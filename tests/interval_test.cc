// Unit tests for the interval primitive, the compressed-table cell types
// and the sorted interval index — the foundations every θ-join property
// rests on.

#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "provrc/compressed_table.h"
#include "provrc/interval.h"
#include "provrc/interval_index.h"

namespace dslog {
namespace {

TEST(IntervalTest, PointAndWidth) {
  Interval p = Interval::Point(7);
  EXPECT_EQ(p.lo, 7);
  EXPECT_EQ(p.hi, 7);
  EXPECT_EQ(p.width(), 1);
  EXPECT_EQ((Interval{3, 9}).width(), 7);
}

TEST(IntervalTest, Contains) {
  Interval iv{2, 5};
  EXPECT_FALSE(iv.Contains(1));
  EXPECT_TRUE(iv.Contains(2));
  EXPECT_TRUE(iv.Contains(5));
  EXPECT_FALSE(iv.Contains(6));
}

TEST(IntervalTest, IntersectSymmetric) {
  Interval a{0, 10}, b{5, 20};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_EQ(a.Intersect(b), (Interval{5, 10}));
  EXPECT_EQ(b.Intersect(a), (Interval{5, 10}));
}

TEST(IntervalTest, DisjointIntersectionInvalid) {
  Interval a{0, 3}, b{5, 9};
  EXPECT_FALSE(a.Intersects(b));
  EXPECT_FALSE(a.Intersect(b).valid());
}

TEST(IntervalTest, SinglePointOverlap) {
  Interval a{0, 5}, b{5, 9};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_EQ(a.Intersect(b), (Interval{5, 5}));
}

TEST(IntervalTest, AdjacentBefore) {
  Interval a{0, 4};
  EXPECT_TRUE(a.AdjacentBefore({5, 9}));
  EXPECT_FALSE(a.AdjacentBefore({4, 9}));  // overlapping, not adjacent
  EXPECT_FALSE(a.AdjacentBefore({6, 9}));  // gap
}

TEST(IntervalTest, ShiftByMinkowski) {
  // {a + d : a in [2,4], d in [-1,1]} = [1, 5].
  EXPECT_EQ((Interval{2, 4}).ShiftBy({-1, 1}), (Interval{1, 5}));
  // Degenerate delta shifts rigidly.
  EXPECT_EQ((Interval{2, 4}).ShiftBy({10, 10}), (Interval{12, 14}));
}

TEST(IntervalTest, CompareLexicographic) {
  EXPECT_LT(CompareIntervals({1, 5}, {2, 3}), 0);
  EXPECT_GT(CompareIntervals({2, 3}, {1, 5}), 0);
  EXPECT_LT(CompareIntervals({1, 3}, {1, 5}), 0);
  EXPECT_EQ(CompareIntervals({1, 5}, {1, 5}), 0);
}

TEST(IntervalTest, ToStringForms) {
  EXPECT_EQ(Interval::Point(4).ToString(), "4");
  EXPECT_EQ((Interval{1, 9}).ToString(), "[1,9]");
}

TEST(InputCellTest, FactoryInvariants) {
  InputCell abs = InputCell::Absolute({3, 8});
  EXPECT_FALSE(abs.is_relative());
  EXPECT_EQ(abs.iv, (Interval{3, 8}));
  InputCell rel = InputCell::Relative(1, {-2, 0});
  EXPECT_TRUE(rel.is_relative());
  EXPECT_EQ(rel.ref, 1);
}

TEST(CompressedTableTest, NumPairsCountsAllToAll) {
  CompressedTable t({4}, {4});
  CompressedRow row;
  row.out = {{0, 3}};
  row.in = {InputCell::Absolute({0, 3})};
  t.AddRow(row);
  EXPECT_EQ(t.NumPairsRepresented(), 16);
  // Relative rows count delta width per output point.
  CompressedTable t2({4}, {4});
  CompressedRow row2;
  row2.out = {{0, 3}};
  row2.in = {InputCell::Relative(0, {0, 0})};
  t2.AddRow(row2);
  EXPECT_EQ(t2.NumPairsRepresented(), 4);
}

TEST(CompressedTableTest, DecompressRelativeRow) {
  // out [1,2], in = out + [0,1]  ->  pairs (1,1),(1,2),(2,2),(2,3).
  CompressedTable t({4}, {4});
  CompressedRow row;
  row.out = {{1, 2}};
  row.in = {InputCell::Relative(0, {0, 1})};
  t.AddRow(row);
  LineageRelation rel = t.Decompress();
  rel.SortAndDedup();
  ASSERT_EQ(rel.num_rows(), 4);
  int64_t want[4][2] = {{1, 1}, {1, 2}, {2, 2}, {2, 3}};
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rel.Row(i)[0], want[i][0]);
    EXPECT_EQ(rel.Row(i)[1], want[i][1]);
  }
}


// ------------------------------------------------------------ IntervalIndex --

std::set<std::pair<int64_t, int64_t>> ReferencePairs(
    const std::vector<Interval>& left, const std::vector<Interval>& right) {
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (size_t i = 0; i < left.size(); ++i)
    for (size_t j = 0; j < right.size(); ++j)
      if (left[i].Intersects(right[j]))
        pairs.insert({static_cast<int64_t>(i), static_cast<int64_t>(j)});
  return pairs;
}

// Every (row, probe) overlap pair the index reports, with `stride - 1`
// decoy cells between indexed intervals.
std::set<std::pair<int64_t, int64_t>> IndexPairs(
    const std::vector<Interval>& rows, const std::vector<Interval>& probes,
    int64_t stride = 1) {
  std::vector<int64_t> lo, hi;
  for (const Interval& iv : rows) {
    lo.push_back(iv.lo);
    hi.push_back(iv.hi);
    for (int64_t pad = 1; pad < stride; ++pad) {
      lo.push_back(-1000000);  // decoy cells the stride must skip
      hi.push_back(-1000000);
    }
  }
  IntervalIndex index(lo.data(), hi.data(), static_cast<int64_t>(rows.size()),
                      stride);
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (size_t j = 0; j < probes.size(); ++j) {
    index.ForEachOverlapping(probes[j], [&](int64_t r) {
      auto [it, inserted] = pairs.insert({r, static_cast<int64_t>(j)});
      EXPECT_TRUE(inserted) << "row emitted twice: " << r << "," << j;
    });
  }
  return pairs;
}

TEST(IntervalIndexTest, EmptyAndSingleton) {
  IntervalIndex empty;
  int hits = 0;
  empty.ForEachOverlapping({0, 100}, [&](int64_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(IndexPairs({{5, 9}}, {{0, 4}, {9, 9}, {10, 20}}),
            (std::set<std::pair<int64_t, int64_t>>{{0, 1}}));
}

TEST(IntervalIndexTest, StridedColumnsSkipDecoyCells) {
  // Stride 3 mimics the lo/hi arenas of a 1-out/2-in table where only the
  // first attribute is indexed.
  EXPECT_EQ(IndexPairs({{0, 3}, {10, 12}, {2, 7}}, {{3, 10}}, 3),
            (std::set<std::pair<int64_t, int64_t>>{{0, 0}, {1, 0}, {2, 0}}));
}

class IntervalIndexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalIndexRandomTest, MatchesNestedLoop) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2467 + 11);
  auto make_side = [&rng](int count, int64_t domain) {
    std::vector<Interval> side;
    for (int i = 0; i < count; ++i) {
      int64_t lo = rng.UniformRange(0, domain);
      side.push_back({lo, lo + (rng.Bernoulli(0.4)
                                    ? 0
                                    : rng.UniformRange(0, domain / 4))});
    }
    return side;
  };
  const int n = static_cast<int>(rng.Uniform(300));
  const int m = static_cast<int>(rng.Uniform(40));
  std::vector<Interval> rows = make_side(n, 200);
  std::vector<Interval> probes = make_side(m, 200);
  EXPECT_EQ(IndexPairs(rows, probes), ReferencePairs(rows, probes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalIndexRandomTest,
                         ::testing::Range(0, 16));

// ------------------------------------------------ interval overlap join --

// Every (left, right) overlap pair, each exactly once: the right side is
// indexed and every left interval probes it.
std::set<std::pair<int64_t, int64_t>> SweepPairs(
    const std::vector<Interval>& left, const std::vector<Interval>& right) {
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const auto& [row, probe] : IndexPairs(right, left))
    pairs.insert({probe, row});
  return pairs;
}

TEST(IntervalSweepTest, EmptySides) {
  EXPECT_TRUE(SweepPairs({}, {}).empty());
  EXPECT_TRUE(SweepPairs({{0, 5}}, {}).empty());
  EXPECT_TRUE(SweepPairs({}, {{0, 5}}).empty());
}

TEST(IntervalSweepTest, TouchingEndpointsCount) {
  // [0,5] and [5,9] overlap at exactly one point.
  auto pairs = SweepPairs({{0, 5}}, {{5, 9}});
  EXPECT_EQ(pairs.size(), 1u);
  // [0,4] and [5,9] do not.
  EXPECT_TRUE(SweepPairs({{0, 4}}, {{5, 9}}).empty());
}

TEST(IntervalSweepTest, DuplicateIntervalsAllPaired) {
  std::vector<Interval> left = {{2, 4}, {2, 4}, {2, 4}};
  std::vector<Interval> right = {{3, 3}, {3, 3}};
  EXPECT_EQ(SweepPairs(left, right).size(), 6u);
}

class IntervalSweepRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSweepRandomTest, MatchesNestedLoop) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  std::vector<Interval> left, right;
  int n = 5 + static_cast<int>(rng.Uniform(120));
  int m = 5 + static_cast<int>(rng.Uniform(120));
  for (int i = 0; i < n; ++i) {
    int64_t lo = rng.UniformRange(0, 200);
    left.push_back({lo, lo + rng.UniformRange(0, 30)});
  }
  for (int j = 0; j < m; ++j) {
    int64_t lo = rng.UniformRange(0, 200);
    right.push_back({lo, lo + rng.UniformRange(0, 30)});
  }
  EXPECT_EQ(SweepPairs(left, right), ReferencePairs(left, right));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSweepRandomTest,
                         ::testing::Range(0, 20));

// Skewed-input stress: points only (short overlap runs), long intervals
// (most rows overlap most probes), clustered low endpoints (heavy lo ties
// inside and across leaf blocks), and lopsided sizes.
class IntervalSweepStressTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSweepStressTest, MatchesNestedLoopOnSkewedInputs) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 101 + 13);
  const int distribution = seed % 4;
  auto make_side = [&](int n) {
    std::vector<Interval> side;
    for (int i = 0; i < n; ++i) {
      int64_t lo, span;
      switch (distribution) {
        case 0:  // points only
          lo = rng.UniformRange(0, 500);
          span = 0;
          break;
        case 1:  // long intervals
          lo = rng.UniformRange(0, 1000);
          span = rng.UniformRange(200, 600);
          break;
        case 2:  // clustered lows: heavy lo ties across both sides
          lo = 100 + rng.UniformRange(0, 8);
          span = rng.UniformRange(0, 40);
          break;
        default:  // mixed points and wide spans
          lo = rng.UniformRange(0, 300);
          span = rng.Bernoulli(0.5) ? 0 : rng.UniformRange(0, 250);
          break;
      }
      side.push_back({lo, lo + span});
    }
    return side;
  };
  // Lopsided sizes included (one side may be empty or a singleton).
  const int n = static_cast<int>(rng.Uniform(400));
  const int m = seed % 5 == 0 ? static_cast<int>(rng.Uniform(2))
                              : static_cast<int>(rng.Uniform(400));
  std::vector<Interval> left = make_side(n);
  std::vector<Interval> right = make_side(m);
  EXPECT_EQ(SweepPairs(left, right), ReferencePairs(left, right));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSweepStressTest,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace dslog
