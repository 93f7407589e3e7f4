// Tests for the in-situ query processor: the paper's worked θ-join example,
// forward/backward equivalence against uncompressed natural joins (the
// central correctness property), multi-hop pipelines, the merge
// optimization, and selectivity sweeps of the indexed θ-joins against
// brute-force scans of the compressed table.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "array/ndarray.h"
#include "array/op.h"
#include "array/op_registry.h"
#include "common/random.h"
#include "provrc/provrc.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "query/theta_join.h"

namespace dslog {
namespace {

LineageRelation CaptureOp(const char* op_name,
                          const std::vector<const NDArray*>& inputs,
                          const OpArgs& args, NDArray* output,
                          int which = 0) {
  const ArrayOp* op = OpRegistry::Global().Find(op_name);
  EXPECT_NE(op, nullptr) << op_name;
  *output = op->Apply(inputs, args).ValueOrDie();
  auto rels = op->Capture(inputs, *output, args).ValueOrDie();
  return std::move(rels[static_cast<size_t>(which)]);
}

std::set<std::vector<int64_t>> ToTupleSet(const std::vector<int64_t>& flat,
                                          int arity) {
  std::set<std::vector<int64_t>> out;
  for (size_t off = 0; off < flat.size(); off += static_cast<size_t>(arity))
    out.insert(std::vector<int64_t>(flat.begin() + static_cast<long>(off),
                                    flat.begin() + static_cast<long>(off) +
                                        arity));
  return out;
}

// ---------------------------------------------------------------- BoxTable --

TEST(BoxTableTest, FromCellsMergesAdjacent) {
  BoxTable t = BoxTable::FromCells(1, {1, 2, 3, 4, 9, 12, 13, 14, 15});
  // The paper's range() example: {[1,4], [9], [12,15]}.
  EXPECT_EQ(t.num_boxes(), 3);
}

TEST(BoxTableTest, Merge2DGrid) {
  // A full 4x4 grid of cells collapses to a single box.
  std::vector<int64_t> cells;
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 4; ++j) {
      cells.push_back(i);
      cells.push_back(j);
    }
  BoxTable t = BoxTable::FromCells(2, cells);
  ASSERT_EQ(t.num_boxes(), 1);
  EXPECT_EQ(t.Box(0)[0], (Interval{0, 3}));
  EXPECT_EQ(t.Box(0)[1], (Interval{0, 3}));
}

TEST(BoxTableTest, MergeDropsDuplicates) {
  BoxTable t(1);
  Interval iv{3, 7};
  t.AddBox({&iv, 1});
  t.AddBox({&iv, 1});
  t.Merge();
  EXPECT_EQ(t.num_boxes(), 1);
}

TEST(BoxTableTest, MergeCoalescesOverlaps) {
  BoxTable t(1);
  Interval a{0, 5}, b{3, 9};
  t.AddBox({&a, 1});
  t.AddBox({&b, 1});
  t.Merge();
  ASSERT_EQ(t.num_boxes(), 1);
  EXPECT_EQ(t.Box(0)[0], (Interval{0, 9}));
}

TEST(BoxTableTest, ExpandToCellsDedups) {
  BoxTable t(1);
  Interval a{0, 3}, b{2, 5};
  t.AddBox({&a, 1});
  t.AddBox({&b, 1});
  EXPECT_EQ(t.NumDistinctCells(), 6);
}

// ------------------------------------------------------- worked example --

TEST(ThetaJoinTest, PaperSectionVExample) {
  // Stored table (paper Table II, 0-based): b1=[0,2], a1 rel delta 0,
  // a2 abs [0,1]. Backward query for b1 in [0,1] must return
  // a1 in [0,1], a2 in [0,1] (paper Table VI).
  CompressedTable table({3}, {3, 2});
  CompressedRow row;
  row.out = {{0, 2}};
  row.in = {InputCell::Relative(0, {0, 0}), InputCell::Absolute({0, 1})};
  table.AddRow(row);

  BoxTable q(1);
  Interval qiv{0, 1};
  q.AddBox({&qiv, 1});
  BoxTable result = BackwardThetaJoin(q, table);
  ASSERT_EQ(result.num_boxes(), 1);
  EXPECT_EQ(result.Box(0)[0], (Interval{0, 1}));
  EXPECT_EQ(result.Box(0)[1], (Interval{0, 1}));
}

TEST(ThetaJoinTest, RangeJoinNoOverlapYieldsEmpty) {
  CompressedTable table({10}, {10});
  CompressedRow row;
  row.out = {{0, 4}};
  row.in = {InputCell::Absolute({0, 4})};
  table.AddRow(row);
  BoxTable q(1);
  Interval qiv{7, 9};
  q.AddBox({&qiv, 1});
  EXPECT_TRUE(BackwardThetaJoin(q, table).empty());
  EXPECT_TRUE(ForwardThetaJoin(q, table).empty());
}

TEST(ThetaJoinTest, ForwardClampsToRowBound) {
  // Row: out [5, 9], input relative delta [-2, 0] (a = b - 2 .. b).
  // Querying inputs [3, 4]: implied inputs are [3, 9]; t = [3,4];
  // feasible outputs = [3 - 0, 4 + 2] = [3, 6] clamped to [5, 9] -> [5, 6].
  CompressedTable table({10}, {10});
  CompressedRow row;
  row.out = {{5, 9}};
  row.in = {InputCell::Relative(0, {-2, 0})};
  table.AddRow(row);
  BoxTable q(1);
  Interval qiv{3, 4};
  q.AddBox({&qiv, 1});
  BoxTable result = ForwardThetaJoin(q, table);
  ASSERT_EQ(result.num_boxes(), 1);
  EXPECT_EQ(result.Box(0)[0], (Interval{5, 6}));
}

// ----------------------------------------- equivalence with ground truth --

// For each single-op lineage: random queries, both directions, in-situ
// result must equal the uncompressed natural-join result.
class SingleHopEquivalenceTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(SingleHopEquivalenceTest, MatchesUncompressedJoin) {
  const ArrayOp* op = OpRegistry::Global().Find(GetParam());
  ASSERT_NE(op, nullptr);
  if (op->num_inputs() != 1) GTEST_SKIP();
  Rng rng(23);
  std::vector<int64_t> shape = op->SupportsUnaryShape({7, 5})
                                   ? std::vector<int64_t>{7, 5}
                                   : std::vector<int64_t>{35};
  if (!op->SupportsUnaryShape(shape)) GTEST_SKIP();
  NDArray x = NDArray::Random(shape, &rng);
  OpArgs args = op->SampleArgs(shape, &rng);
  auto outr = op->Apply({&x}, args);
  if (!outr.ok()) GTEST_SKIP();
  NDArray out = outr.ValueOrDie();
  auto rels = op->Capture({&x}, out, args).ValueOrDie();
  LineageRelation& rel = rels[0];
  if (rel.num_rows() == 0) GTEST_SKIP();
  CompressedTable table = ProvRcCompress(rel);

  for (int trial = 0; trial < 4; ++trial) {
    // Backward: random output cells.
    {
      std::vector<int64_t> cells;
      std::vector<int64_t> idx(static_cast<size_t>(out.ndim()));
      int64_t k = std::max<int64_t>(1, out.size() / 4);
      for (int64_t flat : rng.SampleWithoutReplacement(out.size(), k)) {
        out.UnravelIndex(flat, idx);
        cells.insert(cells.end(), idx.begin(), idx.end());
      }
      BoxTable q = BoxTable::FromCells(out.ndim(), cells);
      BoxTable got = BackwardThetaJoin(q, table);
      got.Merge();
      std::vector<int64_t> want =
          RelationJoinStep(rel, /*forward=*/false, cells);
      EXPECT_EQ(ToTupleSet(got.ExpandToCells(), rel.in_ndim()),
                ToTupleSet(want, rel.in_ndim()))
          << GetParam() << " backward";
    }
    // Forward: random input cells; the join over the table's cached
    // forward index and over an ephemeral per-call index must both match.
    {
      std::vector<int64_t> cells;
      std::vector<int64_t> idx(static_cast<size_t>(x.ndim()));
      int64_t k = std::max<int64_t>(1, x.size() / 4);
      for (int64_t flat : rng.SampleWithoutReplacement(x.size(), k)) {
        x.UnravelIndex(flat, idx);
        cells.insert(cells.end(), idx.begin(), idx.end());
      }
      BoxTable q = BoxTable::FromCells(x.ndim(), cells);
      BoxTable got = ForwardThetaJoin(q, table);
      got.Merge();
      BoxTable got_eph = ForwardThetaJoin(q, table.view(), nullptr);
      got_eph.Merge();
      std::vector<int64_t> want = RelationJoinStep(rel, /*forward=*/true, cells);
      auto want_set = ToTupleSet(want, rel.out_ndim());
      EXPECT_EQ(ToTupleSet(got.ExpandToCells(), rel.out_ndim()), want_set)
          << GetParam() << " forward";
      EXPECT_EQ(ToTupleSet(got_eph.ExpandToCells(), rel.out_ndim()), want_set)
          << GetParam() << " forward ephemeral index";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, SingleHopEquivalenceTest,
    ::testing::ValuesIn(OpRegistry::Global().UnaryPipelineNames()));

// Random-relation equivalence: no structure at all.
class RandomRelationQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomRelationQueryTest, BothDirectionsMatch) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  LineageRelation rel(2, 2);
  rel.set_shapes({10, 10}, {10, 10});
  std::vector<int64_t> tuple(4);
  for (int r = 0; r < 300; ++r) {
    for (auto& v : tuple) v = rng.UniformRange(0, 9);
    rel.AddTuple(tuple);
  }
  rel.SortAndDedup();
  CompressedTable table = ProvRcCompress(rel);

  std::vector<int64_t> cells;
  for (int i = 0; i < 5; ++i) {
    cells.push_back(rng.UniformRange(0, 9));
    cells.push_back(rng.UniformRange(0, 9));
  }
  BoxTable q = BoxTable::FromCells(2, cells);

  BoxTable back = BackwardThetaJoin(q, table);
  EXPECT_EQ(ToTupleSet(back.ExpandToCells(), 2),
            ToTupleSet(RelationJoinStep(rel, false, cells), 2));
  BoxTable fwd1 = ForwardThetaJoin(q, table);
  BoxTable fwd2 = ForwardThetaJoin(q, table.view(), nullptr);
  auto want = ToTupleSet(RelationJoinStep(rel, true, cells), 2);
  EXPECT_EQ(ToTupleSet(fwd1.ExpandToCells(), 2), want);
  EXPECT_EQ(ToTupleSet(fwd2.ExpandToCells(), 2), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRelationQueryTest,
                         ::testing::Range(0, 10));

// ------------------------------------------------------------- multi-hop --

TEST(MultiHopTest, ForwardPipelineMatchesGroundTruth) {
  // x -> negative -> y -> sum(axis) -> z over a 2-D array; forward query
  // from x cells to z cells.
  Rng rng(42);
  NDArray x = NDArray::Random({8, 6}, &rng);
  NDArray y, z;
  LineageRelation r1 = CaptureOp("negative", {&x}, OpArgs(), &y);
  OpArgs sum_args;
  sum_args.SetInt("axis", 1);
  LineageRelation r2 = CaptureOp("sum", {&y}, sum_args, &z);
  CompressedTable t1 = ProvRcCompress(r1);
  CompressedTable t2 = ProvRcCompress(r2);

  std::vector<int64_t> cells = {0, 0, 3, 4, 7, 5};
  BoxTable q = BoxTable::FromCells(2, cells);
  BoxTable got = InSituQuery({{&t1, true}, {&t2, true}}, q);
  std::vector<int64_t> want =
      UncompressedQuery({{&r1, true}, {&r2, true}}, cells);
  EXPECT_EQ(ToTupleSet(got.ExpandToCells(), 1), ToTupleSet(want, 1));
}

TEST(MultiHopTest, BackwardPipelineMatchesGroundTruth) {
  Rng rng(43);
  NDArray x = NDArray::Random({40}, &rng);
  NDArray y, z;
  OpArgs roll_args;
  roll_args.SetInt("shift", 7);
  LineageRelation r1 = CaptureOp("roll", {&x}, roll_args, &y);
  LineageRelation r2 = CaptureOp("cumsum", {&y}, OpArgs(), &z);
  CompressedTable t1 = ProvRcCompress(r1);
  CompressedTable t2 = ProvRcCompress(r2);

  std::vector<int64_t> cells = {5, 17, 39};
  BoxTable q = BoxTable::FromCells(1, cells);
  // Backward: z -> y -> x.
  BoxTable got = InSituQuery({{&t2, false}, {&t1, false}}, q);
  std::vector<int64_t> want =
      UncompressedQuery({{&r2, false}, {&r1, false}}, cells);
  EXPECT_EQ(ToTupleSet(got.ExpandToCells(), 1), ToTupleSet(want, 1));
}

TEST(MultiHopTest, MixedDirectionPath) {
  // Two ops sharing input x: y1 = negative(x), y2 = flip(x). Path
  // y1 -> x -> y2 uses a backward hop then a forward hop.
  Rng rng(44);
  NDArray x = NDArray::Random({30}, &rng);
  NDArray y1, y2;
  LineageRelation r1 = CaptureOp("negative", {&x}, OpArgs(), &y1);
  LineageRelation r2 = CaptureOp("flip", {&x}, OpArgs(), &y2);
  CompressedTable t1 = ProvRcCompress(r1);
  CompressedTable t2 = ProvRcCompress(r2);

  std::vector<int64_t> cells = {3, 4, 5, 20};
  BoxTable q = BoxTable::FromCells(1, cells);
  BoxTable got = InSituQuery({{&t1, false}, {&t2, true}}, q);
  std::vector<int64_t> want =
      UncompressedQuery({{&r1, false}, {&r2, true}}, cells);
  EXPECT_EQ(ToTupleSet(got.ExpandToCells(), 1), ToTupleSet(want, 1));
}

TEST(MultiHopTest, NoMergeMatchesMergedResults) {
  Rng rng(45);
  NDArray x = NDArray::Random({64}, &rng);
  NDArray y, z;
  LineageRelation r1 = CaptureOp("sqrt", {&x}, OpArgs(), &y);
  OpArgs args;
  args.SetInt("reps", 2);
  LineageRelation r2 = CaptureOp("tile", {&y}, args, &z);
  CompressedTable t1 = ProvRcCompress(r1);
  CompressedTable t2 = ProvRcCompress(r2);
  std::vector<int64_t> cells = {0, 1, 2, 3, 10, 63};
  BoxTable q = BoxTable::FromCells(1, cells);
  QueryOptions no_merge;
  no_merge.merge_between_hops = false;
  BoxTable merged = InSituQuery({{&t1, true}, {&t2, true}}, q);
  BoxTable unmerged = InSituQuery({{&t1, true}, {&t2, true}}, q, no_merge);
  EXPECT_EQ(ToTupleSet(merged.ExpandToCells(), 1),
            ToTupleSet(unmerged.ExpandToCells(), 1));
  EXPECT_LE(merged.num_boxes(), unmerged.num_boxes());
}

// Longer random pipelines: chain 4 random unary ops, compare forward query
// results against ground truth (integration property).
class RandomPipelineQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPipelineQueryTest, ForwardMatchesGroundTruth) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1337 + 5);
  auto pool = OpRegistry::Global().UnaryPipelineNames();
  NDArray current = NDArray::Random({48}, &rng);
  NDArray first = current;
  std::vector<LineageRelation> rels;
  std::vector<CompressedTable> tables;
  int steps = 0;
  int guard = 0;
  while (steps < 4 && guard < 200) {
    ++guard;
    const ArrayOp* op =
        OpRegistry::Global().Find(pool[rng.Uniform(pool.size())]);
    if (!op->SupportsUnaryShape(current.shape())) continue;
    OpArgs args = op->SampleArgs(current.shape(), &rng);
    auto out = op->Apply({&current}, args);
    if (!out.ok()) continue;
    NDArray next = out.ValueOrDie();
    if (next.size() == 0 || next.size() > 200000) continue;
    auto captured = op->Capture({&current}, next, args);
    if (!captured.ok() || captured.value()[0].num_rows() == 0) continue;
    rels.push_back(std::move(captured.ValueOrDie()[0]));
    tables.push_back(ProvRcCompress(rels.back()));
    current = std::move(next);
    ++steps;
  }
  ASSERT_EQ(steps, 4);

  std::vector<int64_t> cells;
  std::vector<int64_t> idx(first.shape().size());
  for (int64_t flat : rng.SampleWithoutReplacement(first.size(), 6)) {
    first.UnravelIndex(flat, idx);
    cells.insert(cells.end(), idx.begin(), idx.end());
  }
  BoxTable q = BoxTable::FromCells(first.ndim(), cells);
  std::vector<QueryHop> hops;
  std::vector<RelationHop> rhops;
  for (size_t i = 0; i < tables.size(); ++i) {
    hops.push_back({&tables[i], true});
    rhops.push_back({&rels[i], true});
  }
  BoxTable got = InSituQuery(hops, q);
  std::vector<int64_t> want = UncompressedQuery(rhops, cells);
  int arity = rels.back().out_ndim();
  EXPECT_EQ(ToTupleSet(got.ExpandToCells(), arity), ToTupleSet(want, arity));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineQueryTest,
                         ::testing::Range(0, 15));

// ------------------------------------------------ selectivity-swept oracle --

/// Bit-identical comparison: same boxes in the same order.
::testing::AssertionResult SameTable(const BoxTable& a, const BoxTable& b) {
  if (a.ndim() != b.ndim())
    return ::testing::AssertionFailure() << "ndim " << a.ndim() << " vs "
                                         << b.ndim();
  if (a.num_boxes() != b.num_boxes())
    return ::testing::AssertionFailure()
           << "num_boxes " << a.num_boxes() << " vs " << b.num_boxes();
  for (int64_t i = 0; i < a.num_boxes(); ++i) {
    auto ba = a.Box(i);
    auto bb = b.Box(i);
    for (size_t k = 0; k < ba.size(); ++k) {
      if (!(ba[k] == bb[k]))
        return ::testing::AssertionFailure()
               << "box " << i << " attr " << k << ": [" << ba[k].lo << ","
               << ba[k].hi << "] vs [" << bb[k].lo << "," << bb[k].hi << "]";
    }
  }
  return ::testing::AssertionSuccess();
}

using BoxList = std::vector<std::vector<Interval>>;

void SortBoxes(BoxList* boxes) {
  std::sort(boxes->begin(), boxes->end(),
            [](const std::vector<Interval>& a, const std::vector<Interval>& b) {
              for (size_t k = 0; k < a.size(); ++k) {
                if (a[k].lo != b[k].lo) return a[k].lo < b[k].lo;
                if (a[k].hi != b[k].hi) return a[k].hi < b[k].hi;
              }
              return false;
            });
}

/// Canonically sorted box list (multiset comparison with the oracles,
/// which emit in row order while the index emits in sorted-lo order).
BoxList SortedBoxes(const BoxTable& t) {
  BoxList boxes;
  boxes.reserve(static_cast<size_t>(t.num_boxes()));
  for (int64_t i = 0; i < t.num_boxes(); ++i) {
    auto b = t.Box(i);
    boxes.emplace_back(b.begin(), b.end());
  }
  SortBoxes(&boxes);
  return boxes;
}

/// Naive branchy backward join, independent of the interval index: scans
/// every row per query box in row order.
BoxList BruteForceBackward(const BoxTable& query,
                           const CompressedTableView& t) {
  const int32_t l = t.out_ndim;
  const int32_t m = t.in_ndim;
  const int64_t w = t.stride();
  BoxList out;
  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    auto q = query.Box(qb);
    for (int64_t r = 0; r < t.num_rows; ++r) {
      const int64_t* row_lo = t.lo + r * w;
      const int64_t* row_hi = t.hi + r * w;
      std::vector<Interval> ti(static_cast<size_t>(l));
      bool hit = true;
      for (int32_t k = 0; k < l && hit; ++k) {
        ti[static_cast<size_t>(k)] = {
            std::max(q[static_cast<size_t>(k)].lo, row_lo[k]),
            std::min(q[static_cast<size_t>(k)].hi, row_hi[k])};
        hit = ti[static_cast<size_t>(k)].lo <= ti[static_cast<size_t>(k)].hi;
      }
      if (!hit) continue;
      std::vector<Interval> box(static_cast<size_t>(m));
      const int32_t* refs = t.ref + r * m;
      for (int32_t i = 0; i < m; ++i) {
        if (refs[i] >= 0) {
          const Interval& base = ti[static_cast<size_t>(refs[i])];
          box[static_cast<size_t>(i)] = {base.lo + row_lo[l + i],
                                         base.hi + row_hi[l + i]};
        } else {
          box[static_cast<size_t>(i)] = {row_lo[l + i], row_hi[l + i]};
        }
      }
      out.push_back(std::move(box));
    }
  }
  SortBoxes(&out);
  return out;
}

/// Naive branchy forward join (clamped rel_for), independent of the
/// interval index: scans every row per query box in row order.
BoxList BruteForceForward(const BoxTable& query, const CompressedTableView& t) {
  const int32_t l = t.out_ndim;
  const int32_t m = t.in_ndim;
  const int64_t w = t.stride();
  BoxList out;
  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    auto q = query.Box(qb);
    for (int64_t r = 0; r < t.num_rows; ++r) {
      const int64_t* row_lo = t.lo + r * w;
      const int64_t* row_hi = t.hi + r * w;
      const int32_t* refs = t.ref + r * m;
      std::vector<Interval> ti(static_cast<size_t>(m));
      bool hit = true;
      for (int32_t i = 0; i < m && hit; ++i) {
        Interval implied{row_lo[l + i], row_hi[l + i]};
        if (refs[i] >= 0) {
          implied.lo += row_lo[refs[i]];
          implied.hi += row_hi[refs[i]];
        }
        ti[static_cast<size_t>(i)] = {
            std::max(q[static_cast<size_t>(i)].lo, implied.lo),
            std::min(q[static_cast<size_t>(i)].hi, implied.hi)};
        hit = ti[static_cast<size_t>(i)].lo <= ti[static_cast<size_t>(i)].hi;
      }
      if (!hit) continue;
      std::vector<Interval> box(static_cast<size_t>(l));
      for (int32_t j = 0; j < l; ++j)
        box[static_cast<size_t>(j)] = {row_lo[j], row_hi[j]};
      for (int32_t i = 0; i < m; ++i) {
        if (refs[i] < 0) continue;
        Interval& target = box[static_cast<size_t>(refs[i])];
        target.lo = std::max(target.lo,
                             ti[static_cast<size_t>(i)].lo - row_hi[l + i]);
        target.hi = std::min(target.hi,
                             ti[static_cast<size_t>(i)].hi - row_lo[l + i]);
      }
      if (std::all_of(box.begin(), box.end(),
                      [](const Interval& iv) { return iv.lo <= iv.hi; }))
        out.push_back(std::move(box));
    }
  }
  SortBoxes(&out);
  return out;
}

/// A wide table (l=2, m=3): out attr 0 tiles [0, 4*rows) in width-4
/// strips, so a probe of width W overlaps ~W/4 rows — selectivity is
/// directly controllable. The same shape BM_BackwardJoinSweep times.
CompressedTable MakeWideTable(int64_t rows, uint64_t seed) {
  const int64_t domain = rows * 4;
  CompressedTable table({domain, 64}, {domain, 64, 16});
  Rng rng(seed);
  CompressedRow row;
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t base = r * 4;
    row.out = {{base, base + 3}, {rng.UniformRange(0, 60), 0}};
    row.out[1].hi = row.out[1].lo + 3;
    row.in = {InputCell::Relative(0, {rng.UniformRange(-2, 2),
                                      rng.UniformRange(3, 5)}),
              InputCell::Absolute({rng.UniformRange(0, 32), 0}),
              InputCell::Absolute({rng.UniformRange(0, 12), 0})};
    row.in[1].iv.hi = row.in[1].iv.lo + rng.UniformRange(0, 8);
    row.in[2].iv.hi = row.in[2].iv.lo + rng.UniformRange(0, 3);
    table.AddRow(row);
  }
  return table;
}

/// `count` query boxes over `attrs` attributes whose attribute 0 has width
/// frac * domain (the selectivity); attributes 1 and 2 span the table's
/// full extent (64 and 16 cells).
BoxTable MakeSweepQuery(int64_t rows, int attrs, int count, double frac,
                        uint64_t seed) {
  const int64_t domain = rows * 4;
  const int64_t width = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(domain) * frac));
  Rng rng(seed);
  BoxTable q(attrs);
  for (int i = 0; i < count; ++i) {
    Interval box[3] = {{0, 0}, {0, 63}, {0, 15}};
    box[0].lo = rng.UniformRange(0, std::max<int64_t>(0, domain - width));
    box[0].hi = box[0].lo + width - 1;
    q.AddBox({box, static_cast<size_t>(attrs)});
  }
  return q;
}

constexpr double kSelectivities[] = {0.001, 0.01, 0.1, 0.5, 1.0};

// Across the selectivity sweep x {1, 4} threads x merge on/off: the
// unmerged backward join equals the brute-force oracle as a multiset, the
// merged one covers the same cells, and the table's cached index and an
// ephemeral per-call index give bit-identical results.
TEST(ThetaJoinSweepTest, BackwardJoinMatchesOracleAcrossSelectivities) {
  for (int64_t rows : {257ll, 4096ll}) {
    CompressedTable table = MakeWideTable(rows, 99);
    for (double frac : kSelectivities) {
      BoxTable q = MakeSweepQuery(rows, 2, 12, frac, 7);
      const BoxList oracle = BruteForceBackward(q, table.view());
      for (int num_threads : {1, 4}) {
        const BoxTable unmerged = BackwardThetaJoin(q, table, num_threads);
        EXPECT_EQ(SortedBoxes(unmerged), oracle)
            << "rows=" << rows << " frac=" << frac
            << " threads=" << num_threads;
        for (bool merge : {false, true}) {
          const BoxTable got = BackwardThetaJoin(q, table, num_threads, merge);
          EXPECT_TRUE(SameTable(BackwardThetaJoin(q, table.view(), nullptr,
                                                  num_threads, merge),
                                got))
              << "rows=" << rows << " frac=" << frac
              << " threads=" << num_threads << " merge=" << merge;
          if (merge && rows == 257 && frac <= 0.1) {
            EXPECT_EQ(got.ExpandToCells(), unmerged.ExpandToCells())
                << "frac=" << frac << " threads=" << num_threads;
          }
        }
      }
    }
  }
}

// The forward counterpart: forward queries probe the input side (3 attrs;
// attr 0 spans the same domain as out attr 0, shifted by the relative
// deltas) through the cached forward index.
TEST(ThetaJoinSweepTest, ForwardJoinMatchesOracleAcrossSelectivities) {
  for (int64_t rows : {257ll, 2048ll}) {
    CompressedTable table = MakeWideTable(rows, 77);
    for (double frac : kSelectivities) {
      BoxTable q = MakeSweepQuery(rows, 3, 8, frac, 13);
      const BoxList oracle = BruteForceForward(q, table.view());
      for (int num_threads : {1, 4}) {
        const BoxTable unmerged = ForwardThetaJoin(q, table, num_threads);
        EXPECT_EQ(SortedBoxes(unmerged), oracle)
            << "rows=" << rows << " frac=" << frac
            << " threads=" << num_threads;
        for (bool merge : {false, true}) {
          const BoxTable got = ForwardThetaJoin(q, table, num_threads, merge);
          EXPECT_TRUE(SameTable(ForwardThetaJoin(q, table.view(), nullptr,
                                                 num_threads, merge),
                                got))
              << "rows=" << rows << " frac=" << frac
              << " threads=" << num_threads << " merge=" << merge;
          if (merge && rows == 257 && frac <= 0.1) {
            EXPECT_EQ(got.ExpandToCells(), unmerged.ExpandToCells())
                << "frac=" << frac << " threads=" << num_threads;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dslog
