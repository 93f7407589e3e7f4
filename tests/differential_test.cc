// Randomized differential test: seeded random multi-hop pipelines over the
// op registry, registered into DSLog catalogs and queried in situ, compared
// cell-for-cell (expanded, deduped) against the UncompressedQuery ground
// truth — across query direction (forward, backward, mixed), the
// merge_between_hops knob, single- versus multi-threaded θ-join evaluation,
// and the edge source (resident, OpenInSitu-mapped, mapped behind an
// evicting cache). This extends the hand-built equivalence cases in
// query_test.cc with pipeline-level randomized coverage.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "array/ndarray.h"
#include "array/op.h"
#include "array/op_registry.h"
#include "common/io.h"
#include "common/random.h"
#include "provrc/provrc.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "query/theta_join.h"
#include "storage/dslog.h"
#include "storage/logstore.h"
#include "test_util.h"

namespace dslog {
namespace {

using test_util::GenerateDag;
using test_util::RandomDag;
using test_util::RegisterDag;
using test_util::SampleCells;
using test_util::ToTupleSet;
using test_util::TupleSet;

// Runs one path query against every catalog variant (in-memory, and the
// save -> OpenInSitu legs) under every knob combination and compares the
// expanded, deduplicated cell set to the oracle.
struct LogVariant {
  const DSLog* log;
  const char* name;
  /// Prepended to every array name on the path (a copy of the pipeline
  /// registered under prefixed names).
  std::string prefix;
};

void ExpectMatchesOracle(const std::vector<LogVariant>& variants,
                         const std::vector<std::string>& path,
                         const BoxTable& query,
                         const std::vector<RelationHop>& rhops,
                         const std::vector<int64_t>& query_cells,
                         int result_arity, const std::string& label) {
  const TupleSet want =
      ToTupleSet(UncompressedQuery(rhops, query_cells), result_arity);
  for (const LogVariant& variant : variants) {
    std::vector<std::string> named = path;
    for (std::string& array : named) array = variant.prefix + array;
    for (bool merge : {true, false}) {
      for (int threads : {1, 8}) {
        QueryOptions options;
        options.merge_between_hops = merge;
        options.num_threads = threads;
        auto got = variant.log->ProvQuery(named, query, options);
        ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
        EXPECT_EQ(ToTupleSet(got.value().ExpandToCells(), result_arity), want)
            << label << " variant=" << variant.name << " merge=" << merge
            << " threads=" << threads;
      }
    }
  }
}

class DifferentialPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialPipelineTest, InSituMatchesUncompressedOracle) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomDag dag = GenerateDag(seed);
  const int n = static_cast<int>(dag.rels.size());
  ASSERT_GE(n, 2) << "pipeline generation starved, seed " << seed;

  DSLog plain;
  ASSERT_TRUE(RegisterDag(dag, &plain).ok());

  // In-situ legs: persist the catalog as a LogStore file and serve the same
  // queries through the mapped, lazily-decoded path — once with the default
  // cache, once with a 1-byte budget, where each cache stripe keeps only
  // its most recent segment. The tiny-budget store holds enough prefixed
  // copies of the pipeline that its chain segments outnumber the cache
  // stripes; every copy is queried in turn, so segments sharing a stripe
  // evict each other and re-resolve (rebuilding their forward index) on
  // later queries.
  const std::string store_path =
      ScratchDir() + "/differential_" + std::to_string(seed) + ".dsl";
  ASSERT_TRUE(plain.SaveLogStore(store_path).ok());
  auto insitu_opened = DSLog::OpenInSitu(store_path);
  ASSERT_TRUE(insitu_opened.ok()) << insitu_opened.status().ToString();
  const DSLog& insitu = insitu_opened.value();
  const int copies = static_cast<int>(LogStore::kCacheShards) / n + 1;
  DSLog copied;
  for (int c = 0; c < copies; ++c)
    ASSERT_TRUE(RegisterDag(dag, &copied, test_util::Indexed("c", c) + "_")
                    .ok());
  const std::string tiny_path =
      ScratchDir() + "/differential_tiny_" + std::to_string(seed) + ".dsl";
  ASSERT_TRUE(copied.SaveLogStore(tiny_path).ok());
  LogStoreOptions tiny_options;
  tiny_options.cache_capacity_bytes = 1;
  auto tiny_opened = DSLog::OpenInSitu(tiny_path, tiny_options);
  ASSERT_TRUE(tiny_opened.ok()) << tiny_opened.status().ToString();
  const DSLog& tiny = tiny_opened.value();
  std::vector<LogVariant> variants = {{&plain, "plain", ""},
                                      {&insitu, "insitu", ""}};
  for (int c = 0; c < copies; ++c)
    variants.push_back(
        {&tiny, "insitu_tiny_cache", test_util::Indexed("c", c) + "_"});

  Rng rng(seed * 31 + 7);

  // Forward: x0 -> xn.
  {
    std::vector<int64_t> cells = SampleCells(dag.shapes[0], 8, &rng);
    BoxTable q =
        BoxTable::FromCells(static_cast<int>(dag.shapes[0].size()), cells);
    std::vector<RelationHop> rhops;
    for (int i = 0; i < n; ++i) rhops.push_back({&dag.rels[i], true});
    ExpectMatchesOracle(variants, dag.names, q, rhops, cells,
                        static_cast<int>(dag.shapes.back().size()),
                        "forward seed=" + std::to_string(seed));
  }

  // Backward: xn -> x0.
  {
    std::vector<int64_t> cells = SampleCells(dag.shapes.back(), 8, &rng);
    BoxTable q = BoxTable::FromCells(
        static_cast<int>(dag.shapes.back().size()), cells);
    std::vector<std::string> path(dag.names.rbegin(), dag.names.rend());
    std::vector<RelationHop> rhops;
    for (int i = n - 1; i >= 0; --i) rhops.push_back({&dag.rels[i], false});
    ExpectMatchesOracle(variants, path, q, rhops, cells,
                        static_cast<int>(dag.shapes[0].size()),
                        "backward seed=" + std::to_string(seed));
  }

  // Mixed direction: branch -> x_{branch_from} (backward) -> ... -> xn
  // (forward).
  if (dag.has_branch) {
    std::vector<int64_t> cells = SampleCells(dag.branch_shape, 8, &rng);
    BoxTable q =
        BoxTable::FromCells(static_cast<int>(dag.branch_shape.size()), cells);
    std::vector<std::string> path = {"branch"};
    std::vector<RelationHop> rhops = {{&dag.branch_rel, false}};
    for (int i = dag.branch_from; i < n; ++i) {
      path.push_back(dag.names[static_cast<size_t>(i)]);
      rhops.push_back({&dag.rels[i], true});
    }
    path.push_back(dag.names.back());
    ExpectMatchesOracle(variants, path, q, rhops, cells,
                        static_cast<int>(dag.shapes.back().size()),
                        "mixed seed=" + std::to_string(seed));
  }
  // The tiny budget really did evict and re-resolve segments.
  const LogStoreStats tiny_stats = tiny.log_store()->stats();
  EXPECT_GT(tiny_stats.evictions, 0);
  EXPECT_GT(tiny_stats.decode_count, tiny_stats.segments_touched);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialPipelineTest,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------- AoS join oracle --

// Reference θ-joins over materialized array-of-structs rows — a direct
// port of the pre-columnar kernels (per-row vectors, linear scan, no
// interval index). The SoA kernels must stay set-equal to these on every
// hop of the randomized pipelines, across direction and thread count.
BoxTable AosBackwardJoin(const BoxTable& query,
                         const std::vector<CompressedRow>& rows, int l,
                         int m) {
  BoxTable result(m);
  std::vector<Interval> t(static_cast<size_t>(l));
  std::vector<Interval> out_box(static_cast<size_t>(m));
  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    auto q = query.Box(qb);
    for (const CompressedRow& row : rows) {
      bool hit = true;
      for (int k = 0; k < l && hit; ++k) {
        t[static_cast<size_t>(k)] =
            q[static_cast<size_t>(k)].Intersect(row.out[static_cast<size_t>(k)]);
        hit = t[static_cast<size_t>(k)].valid();
      }
      if (!hit) continue;
      for (int i = 0; i < m; ++i) {
        const InputCell& cell = row.in[static_cast<size_t>(i)];
        out_box[static_cast<size_t>(i)] =
            cell.is_relative() ? t[static_cast<size_t>(cell.ref)].ShiftBy(cell.iv)
                               : cell.iv;
      }
      result.AddBox(out_box);
    }
  }
  return result;
}

BoxTable AosForwardJoin(const BoxTable& query,
                        const std::vector<CompressedRow>& rows, int l, int m) {
  BoxTable result(l);
  std::vector<Interval> t(static_cast<size_t>(m));
  std::vector<Interval> out_box(static_cast<size_t>(l));
  auto implied = [](const CompressedRow& row, int i) {
    const InputCell& cell = row.in[static_cast<size_t>(i)];
    return cell.is_relative()
               ? row.out[static_cast<size_t>(cell.ref)].ShiftBy(cell.iv)
               : cell.iv;
  };
  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    auto q = query.Box(qb);
    for (const CompressedRow& row : rows) {
      bool hit = true;
      for (int i = 0; i < m && hit; ++i) {
        t[static_cast<size_t>(i)] =
            q[static_cast<size_t>(i)].Intersect(implied(row, i));
        hit = t[static_cast<size_t>(i)].valid();
      }
      if (!hit) continue;
      for (int j = 0; j < l; ++j)
        out_box[static_cast<size_t>(j)] = row.out[static_cast<size_t>(j)];
      bool feasible = true;
      for (int i = 0; i < m && feasible; ++i) {
        const InputCell& cell = row.in[static_cast<size_t>(i)];
        if (!cell.is_relative()) continue;
        const Interval& ti = t[static_cast<size_t>(i)];
        Interval& target = out_box[static_cast<size_t>(cell.ref)];
        target = target.Intersect({ti.lo - cell.iv.hi, ti.hi - cell.iv.lo});
        feasible = target.valid();
      }
      if (!feasible) continue;
      result.AddBox(out_box);
    }
  }
  return result;
}

class SoAVsAosJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(SoAVsAosJoinTest, KernelsMatchAosOracleOnRandomPipelines) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) + 100;
  RandomDag dag = GenerateDag(seed);
  ASSERT_GE(dag.rels.size(), 2u) << "pipeline generation starved, seed "
                                 << seed;
  Rng rng(seed * 101 + 3);

  for (size_t h = 0; h < dag.rels.size(); ++h) {
    CompressedTable table = ProvRcCompress(dag.rels[h]);
    const int l = table.out_ndim();
    const int m = table.in_ndim();
    std::vector<CompressedRow> rows;
    rows.reserve(static_cast<size_t>(table.num_rows()));
    for (int64_t r = 0; r < table.num_rows(); ++r) rows.push_back(table.Row(r));

    BoxTable back_q = BoxTable::FromCells(
        l, SampleCells(dag.shapes[h + 1], 6, &rng));
    BoxTable fwd_q =
        BoxTable::FromCells(m, SampleCells(dag.shapes[h], 6, &rng));
    const std::string label =
        "seed=" + std::to_string(seed) + " hop=" + std::to_string(h);

    for (bool merge : {true, false}) {
      for (int threads : {1, 4}) {
        BoxTable back = BackwardThetaJoin(back_q, table, threads);
        BoxTable want_back = AosBackwardJoin(back_q, rows, l, m);
        if (merge) {
          back.Merge();
          want_back.Merge();
        }
        EXPECT_EQ(ToTupleSet(back.ExpandToCells(), m),
                  ToTupleSet(want_back.ExpandToCells(), m))
            << label << " backward merge=" << merge << " threads=" << threads;

        BoxTable fwd = ForwardThetaJoin(fwd_q, table, threads);
        BoxTable want_fwd = AosForwardJoin(fwd_q, rows, l, m);
        BoxTable fwd_eph =
            ForwardThetaJoin(fwd_q, table.view(), nullptr, threads);
        if (merge) {
          fwd.Merge();
          want_fwd.Merge();
          fwd_eph.Merge();
        }
        EXPECT_EQ(ToTupleSet(fwd.ExpandToCells(), l),
                  ToTupleSet(want_fwd.ExpandToCells(), l))
            << label << " forward merge=" << merge << " threads=" << threads;
        EXPECT_EQ(ToTupleSet(fwd_eph.ExpandToCells(), l),
                  ToTupleSet(want_fwd.ExpandToCells(), l))
            << label << " forward-ephemeral merge=" << merge
            << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoAVsAosJoinTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace dslog
