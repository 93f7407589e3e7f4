// θ-join access-path and planner tests: the three IntervalIndex access
// paths (tree probe, SIMD sorted sweep, SIMD full scan) must emit
// identical rows in identical order for any probe; every forced JoinPath
// (and kAuto) must return bit-identical join results per (query,
// num_threads) across a selectivity sweep; and results must match a
// naive brute-force oracle as a set. Also unit-checks the cost model's
// forced regions (tiny table, unknown stats).

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "provrc/compressed_table.h"
#include "provrc/interval_index.h"
#include "query/box.h"
#include "query/join_planner.h"
#include "query/query_engine.h"
#include "query/theta_join.h"

namespace dslog {
namespace {

constexpr JoinPath kForcedPaths[] = {JoinPath::kIndexProbe,
                                     JoinPath::kSortedSweep,
                                     JoinPath::kFullScan};
constexpr JoinPath kAllPaths[] = {JoinPath::kAuto, JoinPath::kIndexProbe,
                                  JoinPath::kSortedSweep, JoinPath::kFullScan};

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

/// Canonically sorted box list (set/multiset comparison for the oracle,
/// which emits in row order while the index paths emit in sorted-lo order).
std::vector<std::vector<Interval>> SortedBoxes(const BoxTable& t) {
  std::vector<std::vector<Interval>> boxes;
  boxes.reserve(static_cast<size_t>(t.num_boxes()));
  for (int64_t i = 0; i < t.num_boxes(); ++i) {
    auto b = t.Box(i);
    boxes.emplace_back(b.begin(), b.end());
  }
  std::sort(boxes.begin(), boxes.end(),
            [](const std::vector<Interval>& a, const std::vector<Interval>& b) {
              for (size_t k = 0; k < a.size(); ++k) {
                if (a[k].lo != b[k].lo) return a[k].lo < b[k].lo;
                if (a[k].hi != b[k].hi) return a[k].hi < b[k].hi;
              }
              return false;
            });
  return boxes;
}

/// Naive branchy backward join, independent of the index and SIMD code:
/// scans every row per query box in row order.
std::vector<std::vector<Interval>> BruteForceBackward(
    const BoxTable& query, const CompressedTableView& t) {
  const int32_t l = t.out_ndim;
  const int32_t m = t.in_ndim;
  const int64_t w = t.stride();
  std::vector<std::vector<Interval>> out;
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
  std::sort(out.begin(), out.end(),
            [](const std::vector<Interval>& a, const std::vector<Interval>& b) {
              for (size_t k = 0; k < a.size(); ++k) {
                if (a[k].lo != b[k].lo) return a[k].lo < b[k].lo;
                if (a[k].hi != b[k].hi) return a[k].hi < b[k].hi;
              }
              return false;
            });
  return out;
}

/// The bench's wide table (l=2, m=3): out attr 0 tiles [0, 4*rows) in
/// width-4 strips, so a probe of width W overlaps ~W/4 rows — selectivity
/// is directly controllable.
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

/// Query at a target selectivity: probe width = frac * domain.
BoxTable MakeSweepQuery(int64_t rows, double frac, uint64_t seed) {
  const int64_t domain = rows * 4;
  const int64_t width = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(domain) * frac));
  Rng rng(seed);
  BoxTable q(2);
  for (int i = 0; i < 12; ++i) {
    Interval box[2] = {{0, 0}, {0, 63}};
    box[0].lo = rng.UniformRange(0, std::max<int64_t>(0, domain - width));
    box[0].hi = box[0].lo + width - 1;
    q.AddBox(box);
  }
  return q;
}

constexpr double kSelectivities[] = {0.001, 0.01, 0.1, 0.5, 1.0};

// ------------------------------------------------ access-path equivalence --

TEST(AccessPathTest, AllPathsEmitIdenticalRowsInIdenticalOrder) {
  Rng rng(42);
  for (int64_t n : {0ll, 1ll, 3ll, 64ll, 257ll, 1000ll}) {
    std::vector<int64_t> lo(static_cast<size_t>(std::max<int64_t>(1, n)));
    std::vector<int64_t> hi(lo.size());
    for (int64_t i = 0; i < n; ++i) {
      lo[static_cast<size_t>(i)] = rng.UniformRange(0, 500);
      hi[static_cast<size_t>(i)] =
          lo[static_cast<size_t>(i)] + rng.UniformRange(0, 40);
    }
    IntervalIndex index(lo.data(), hi.data(), n, 1);
    std::vector<int32_t> scratch;
    for (int p = 0; p < 200; ++p) {
      Interval probe{rng.UniformRange(-50, 550), 0};
      probe.hi = probe.lo + rng.UniformRange(0, 120);
      std::vector<int64_t> reference;
      index.ForEachOverlapping(probe,
                               [&](int64_t r) { reference.push_back(r); });
      for (AccessPath path : {AccessPath::kIndexProbe, AccessPath::kSortedSweep,
                              AccessPath::kFullScan}) {
        std::vector<int64_t> got;
        index.ForEachOverlapping(probe, path, &scratch,
                                 [&](int64_t r) { got.push_back(r); });
        ASSERT_EQ(got, reference)
            << "n=" << n << " path=" << static_cast<int>(path) << " probe=["
            << probe.lo << "," << probe.hi << "]";
      }
    }
  }
}

// ------------------------------------------------------- planner cost model --

TEST(JoinPlannerTest, TinyTablesAlwaysScan) {
  IntervalColumnStats stats;
  stats.row_count = 64;
  stats.min_lo = 0;
  stats.max_lo = 1000;
  stats.max_hi = 1010;
  stats.sum_width = 64 * 5;
  EXPECT_EQ(ChooseAccessPath({0, 10}, stats), AccessPath::kFullScan);
}

TEST(JoinPlannerTest, UnknownStatsFallBackToIndexProbe) {
  EXPECT_EQ(ChooseAccessPath({0, 1000000}, IntervalColumnStats{}),
            AccessPath::kIndexProbe);
}

TEST(JoinPlannerTest, ExtremeSelectivitiesPickExtremePaths) {
  // 1M narrow rows spread over a wide domain.
  IntervalColumnStats stats;
  stats.row_count = 1 << 20;
  stats.min_lo = 0;
  stats.max_lo = 1 << 22;
  stats.max_hi = (1 << 22) + 4;
  stats.sum_width = stats.row_count * 4;
  // A mid-domain point probe hits ~1 row but would pay a half-table sweep
  // prefix: the tree probe must win. (A point probe at the domain's bottom
  // legitimately favors the sweep — its prefix is near-empty.)
  EXPECT_EQ(ChooseAccessPath({1 << 21, 1 << 21}, stats),
            AccessPath::kIndexProbe);
  // A whole-domain probe hits everything: a vectorized path must win.
  EXPECT_NE(ChooseAccessPath({0, 1 << 22}, stats), AccessPath::kIndexProbe);
}

TEST(JoinPlannerTest, ResolveHonorsForcedPaths) {
  IntervalColumnStats stats;  // invalid
  EXPECT_EQ(ResolveAccessPath(JoinPath::kIndexProbe, {0, 9}, stats),
            AccessPath::kIndexProbe);
  EXPECT_EQ(ResolveAccessPath(JoinPath::kSortedSweep, {0, 9}, stats),
            AccessPath::kSortedSweep);
  EXPECT_EQ(ResolveAccessPath(JoinPath::kFullScan, {0, 9}, stats),
            AccessPath::kFullScan);
  EXPECT_EQ(ResolveAccessPath(JoinPath::kAuto, {0, 9}, stats),
            AccessPath::kIndexProbe);
}

// ------------------------------------------- selectivity-swept differential --

TEST(JoinPathSweepTest, BackwardJoinBitIdenticalAcrossPathsAndOracle) {
  for (int64_t rows : {257ll, 4096ll}) {
    CompressedTable table = MakeWideTable(rows, 99);
    for (double frac : kSelectivities) {
      BoxTable q = MakeSweepQuery(rows, frac, 7);
      const auto oracle = BruteForceBackward(q, table.view());
      for (int num_threads : {1, 4}) {
        for (bool merge : {false, true}) {
          const BoxTable reference = BackwardThetaJoin(
              q, table, num_threads, merge, JoinPath::kIndexProbe);
          if (!merge) {
            EXPECT_EQ(SortedBoxes(reference), oracle)
                << "rows=" << rows << " frac=" << frac
                << " threads=" << num_threads;
          }
          for (JoinPath path : kAllPaths) {
            const BoxTable got =
                BackwardThetaJoin(q, table, num_threads, merge, path);
            EXPECT_TRUE(SameTable(got, reference))
                << "rows=" << rows << " frac=" << frac
                << " threads=" << num_threads << " merge=" << merge
                << " path=" << JoinPathName(path);
          }
        }
      }
    }
  }
}

TEST(JoinPathSweepTest, ForwardJoinBitIdenticalAcrossPaths) {
  for (int64_t rows : {257ll, 2048ll}) {
    CompressedTable table = MakeWideTable(rows, 77);
    for (double frac : kSelectivities) {
      // Forward queries probe the input side (3 attrs; attr 0 spans the
      // same domain as out attr 0, shifted by the relative deltas).
      const int64_t domain = rows * 4;
      const int64_t width = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(domain) * frac));
      Rng rng(13);
      BoxTable q(3);
      for (int i = 0; i < 8; ++i) {
        Interval box[3] = {{0, 0}, {0, 63}, {0, 15}};
        box[0].lo = rng.UniformRange(0, std::max<int64_t>(0, domain - width));
        box[0].hi = box[0].lo + width - 1;
        q.AddBox(box);
      }
      for (int num_threads : {1, 4}) {
        // The cached forward index and an ephemeral per-call index must
        // agree bit for bit on every forced path.
        const BoxTable ref = ForwardThetaJoin(q, table, num_threads, false,
                                              JoinPath::kIndexProbe);
        for (JoinPath path : kForcedPaths) {
          EXPECT_TRUE(SameTable(
              ForwardThetaJoin(q, table, num_threads, false, path), ref))
              << "cached rows=" << rows << " frac=" << frac
              << " threads=" << num_threads << " path=" << JoinPathName(path);
          EXPECT_TRUE(SameTable(ForwardThetaJoin(q, table.view(), nullptr,
                                                 num_threads, false, path),
                                ref))
              << "ephemeral rows=" << rows << " frac=" << frac
              << " threads=" << num_threads << " path=" << JoinPathName(path);
        }
      }
    }
  }
}

TEST(JoinPathSweepTest, FooterStatsAndIndexStatsPlanIdentically) {
  // Passing explicit (e.g. footer) stats must not change results, only
  // potentially the chosen path.
  CompressedTable table = MakeWideTable(1024, 5);
  const IntervalColumnStats stats = table.view().BuildBackwardIndex().stats();
  for (double frac : kSelectivities) {
    BoxTable q = MakeSweepQuery(1024, frac, 3);
    const BoxTable without = BackwardThetaJoin(q, table.view(), nullptr, 1,
                                               false, JoinPath::kAuto);
    const BoxTable with = BackwardThetaJoin(q, table.view(), nullptr, 1,
                                            false, JoinPath::kAuto, &stats);
    EXPECT_TRUE(SameTable(with, without)) << "frac=" << frac;
  }
}

TEST(JoinPathSweepTest, QueryOptionsForcePathsThroughInSituQuery) {
  CompressedTable table = MakeWideTable(512, 21);
  std::vector<QueryHop> hops;
  hops.emplace_back(&table, /*forward=*/false);
  BoxTable q = MakeSweepQuery(512, 0.05, 9);
  for (int num_threads : {1, 4}) {
    // Bit-identical is per (query, num_threads): the merged-reduction
    // shape depends on the thread count, the access path never does.
    QueryOptions base;
    base.num_threads = num_threads;
    const BoxTable reference = InSituQuery(hops, q, base);
    for (JoinPath path : kForcedPaths) {
      QueryOptions options = base;
      options.join_path = path;
      EXPECT_TRUE(SameTable(InSituQuery(hops, q, options), reference))
          << "path=" << JoinPathName(path) << " threads=" << num_threads;
    }
  }
}

// ----------------------------------------------------- planner auditability --

// The planner's row estimate (JoinCounters::est_rows, summed over probes)
// must track the candidate rows the index actually enumerated across the
// whole selectivity sweep. MakeWideTable is the model's best case (uniform
// width-4 strips), so a generous fixed bound holds with margin; a
// regression in the stats plumbing or the hit-fraction math blows past it.
TEST(JoinPlannerAuditTest, MispredictRatioBoundedAcrossSelectivitySweep) {
  const int64_t rows = 4096;
  CompressedTable table = MakeWideTable(rows, 33);
  double worst_ratio = 1.0;
  for (double frac : kSelectivities) {
    BoxTable q = MakeSweepQuery(rows, frac, 11);
    JoinCounters counters;
    const BoxTable result = BackwardThetaJoin(q, table, 1, false,
                                              JoinPath::kAuto, &counters);
    // Accounting invariants first: every probe resolved to exactly one
    // path, and the estimate was produced for every probe.
    EXPECT_EQ(counters.probes.load(), q.num_boxes()) << "frac=" << frac;
    EXPECT_EQ(counters.path_probes_total(), q.num_boxes()) << "frac=" << frac;
    EXPECT_EQ(counters.rows_emitted.load(), result.num_boxes());

    const auto scanned = static_cast<double>(counters.rows_scanned.load());
    const double est = counters.est_rows();
    ASSERT_GT(scanned, 0.0) << "frac=" << frac;
    ASSERT_GT(est, 0.0) << "frac=" << frac;
    const double ratio = est / scanned;
    // Fixed per-selectivity bound (observed ratios sit in ~[0.8, 1.05]).
    EXPECT_GE(ratio, 0.25) << "frac=" << frac << " est=" << est
                           << " scanned=" << scanned;
    EXPECT_LE(ratio, 4.0) << "frac=" << frac << " est=" << est
                          << " scanned=" << scanned;
    worst_ratio = std::max(worst_ratio, std::max(ratio, 1.0 / ratio));
  }
  // Aggregate: the sweep as a whole must stay near-calibrated.
  EXPECT_LE(worst_ratio, 2.0);
}

// ChooseAccessPath and EstimateAccessPathCosts must never disagree: the
// profile's "cheapest estimated path" has to be the path the join took.
TEST(JoinPlannerAuditTest, EstimateAndChoiceAgree) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    IntervalColumnStats stats;
    stats.row_count = rng.UniformRange(65, 1 << 20);
    stats.min_lo = rng.UniformRange(0, 1000);
    stats.max_lo = stats.min_lo + rng.UniformRange(1, 1 << 22);
    stats.max_hi = stats.max_lo + rng.UniformRange(0, 64);
    stats.sum_width = stats.row_count * rng.UniformRange(1, 32);
    Interval probe{rng.UniformRange(-100, stats.max_hi), 0};
    probe.hi = probe.lo + rng.UniformRange(0, 1 << 21);
    const PathCostEstimate costs = EstimateAccessPathCosts(probe, stats);
    EXPECT_EQ(costs.chosen, ChooseAccessPath(probe, stats))
        << "trial " << trial;
    EXPECT_GE(costs.est_rows, 0.0);
    EXPECT_LE(costs.cost_ns[static_cast<int>(costs.chosen)],
              std::min({costs.cost_ns[0], costs.cost_ns[1], costs.cost_ns[2]}) +
                  1e-9);
  }
}

}  // namespace
}  // namespace dslog
