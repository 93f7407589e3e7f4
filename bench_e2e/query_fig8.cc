// query_fig8: one client, closed loop, in-process, on an OpenInSitu v4
// LogStore holding the three Fig-8 workflows (image, relational, resnet)
// plus unqueried ballast pipelines. Replays a fixed seeded list of
// full-path forward and backward queries at selectivities {0.0005, 0.005,
// 0.05}. Cold opens (open + first query) run between replay slices, so
// they sample the whole replay rather than one moment of it. Every
// distinct query is checked once against UncompressedQuery before the
// replay. A wire leg (wire_leg.cc) then serves the same store over
// loopback; it feeds the net.* and wire_* per-layer metrics only.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int kQueriesPerClass = 16;
/// Set-up builds the store kSetups times; setup_s is their median.
constexpr int kSetups = 5;
/// Host-speed kernel samples right before and right after each set-up
/// build.
constexpr int kSetupKernelSamples = 5;
/// Ballast: the registry templates of ingest_pipelines (bench_fig9_random's
/// 20000-cell arrays), four instances each.
constexpr int kBallastTemplates = 6;
constexpr int kBallastOps = 5;
constexpr int64_t kBallastCells = 20000;
/// The replay is cut into slices; between slices run kColdPerSlice cold
/// opens.
constexpr int kSlices = 24;
constexpr int kColdPerSlice = 4;
/// Shares of --seconds spent replaying in-process and in the wire leg;
/// the rest covers set-up, the oracle check and the cold opens.
constexpr double kReplayShare = 0.6;
constexpr double kWireShare = 0.1;
/// Cold opens run a lowest-selectivity first query, so that open and
/// first-touch costs make up cold_query_ms rather than the query's size.
constexpr double kColdSelectivity = 0.0005;
/// A stride coprime to the number of cold first queries (96) spreads them
/// over every workflow and direction.
constexpr size_t kColdStride = 7;
/// Threads of the oracle check. UncompressedQuery scans every relation of
/// a path for each query: on one thread the 288 checks took about 14 s of
/// a run, 12 s of it on the relational workflow.
constexpr int kOracleThreads = 3;

/// The set-up builds: each as measured, and each scaled by the host-speed
/// factor measured right before and after it.
struct SetupSamples {
  Samples seconds, seconds_at_reference, factors;
  Samples ingest_rate, ingest_rate_at_reference;
  Samples ingest_overhead;

  /// One build, timed on the thread's CPU clock.
  dslog::Result<Fig8Store> Build(uint64_t seed, const std::string& path,
                                 const std::vector<PipelineTemplate>& ballast,
                                 HostSpeed* host) {
    Tracer off(false);
    const double before = host->MeasureFactor(kSetupKernelSamples);
    const int64_t t0 = CpuNs();
    dslog::Result<Fig8Store> store = BuildFig8Store(seed, path, ballast, &off);
    const double s = CpuMsSince(t0) / 1e3;
    const double after = host->MeasureFactor(kSetupKernelSamples);
    const double factor = (before + after) / 2;
    seconds.Add(s);
    seconds_at_reference.Add(s * factor);
    factors.Add(factor);
    if (store.ok()) {
      const double rate = store.value().ballast.RowsPerSecond();
      ingest_rate.Add(rate);
      ingest_rate_at_reference.Add(rate / factor);
      ingest_overhead.Add(store.value().ballast.OverheadPct());
    }
    return store;
  }
};

struct Phase {
  QueryAgg queries;
  /// Warm latencies per workflow x selectivity x direction.
  std::map<std::string, Samples> per_class;
  int64_t replayed = 0;
  /// Queries per second of each replay slice: how the host's speed moved
  /// over the run.
  Samples slice_qps;
  dslog::LogStoreStats stats;
  /// VmHWM over the phase alone (see ResetPeakRss).
  double peak_rss_mb = 0.0;
  bool peak_reset = false;
  Failures failures;
};

std::string ClassName(const PathQuery& q) {
  static const char* kWorkflows[] = {"image", "relational", "resnet"};
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s sel %.4f %s", kWorkflows[q.workflow],
                q.selectivity, q.forward ? "fwd" : "bwd");
  return buf;
}

/// Cold open + first query: a fresh catalog over the same file (its pages
/// stay in the OS cache).
void ColdOpen(const std::string& path, const PathQuery& q, int64_t request,
              Tracer* tracer, Phase* phase) {
  const int64_t t0 = CpuNs();
  dslog::Result<DSLog> log = [&] {
    ScopedSpan span(tracer, "storage.open");
    return DSLog::OpenInSitu(path);
  }();
  phase->queries.open_ms.Add(CpuMsSince(t0));
  ++phase->failures.attempted;
  if (!log.ok()) {
    ++phase->failures.errors;
    return;
  }
  QueryAgg first;  // cold queries stay out of the warm latency samples
  auto r = TimedQuery(log.value(), q.path, q.query, q.forward, tracer, &first,
                      request);
  phase->queries.cold_ms.Add(CpuMsSince(t0));
  phase->queries.resolves += first.resolves;
  phase->queries.resolve_us += first.resolve_us;
  if (!r.ok()) ++phase->failures.errors;
}

/// Replays `order` over `queries` for kReplayShare * `seconds`, one query
/// at a time, with cold opens between slices.
Phase RunPhase(const DSLog& log, const std::string& path,
               const std::vector<PathQuery>& queries,
               const std::vector<BoxTable>& expected,
               const std::vector<size_t>& order, double seconds,
               Tracer* tracer, HostSpeed* host) {
  Phase phase;
  phase.peak_reset = ResetPeakRss();
  const int64_t slice_ns =
      static_cast<int64_t>(seconds * kReplayShare * 1e9 / kSlices);
  std::vector<size_t> cold_queries;
  for (size_t q = 0; q < queries.size(); ++q)
    if (queries[q].selectivity == kColdSelectivity) cold_queries.push_back(q);
  size_t i = 0, cold = 0;
  for (int slice = 0; slice < kSlices; ++slice) {
    const int64_t slice_start = NowNs();
    const int64_t deadline = slice_start + slice_ns;
    const int64_t replayed_before = phase.replayed;
    for (; NowNs() < deadline; ++i) {
      const size_t qi = order[i % order.size()];
      const PathQuery& q = queries[qi];
      host->Tick();
      auto r = TimedQuery(log, q.path, q.query, q.forward, tracer,
                          &phase.queries, static_cast<int64_t>(i),
                          static_cast<int64_t>(qi));
      phase.per_class[ClassName(q)].Add(
          (q.forward ? phase.queries.fwd_ms : phase.queries.bwd_ms).Last());
      ++phase.failures.attempted;
      ++phase.replayed;
      if (!r.ok())
        ++phase.failures.errors;
      else if (!SameBoxes(r.value(), expected[qi]))
        ++phase.failures.mismatches;
    }
    phase.slice_qps.Add(static_cast<double>(phase.replayed - replayed_before) /
                        (MsSince(slice_start) / 1e3));
    for (int c = 0; c < kColdPerSlice; ++c, ++cold) {
      host->Tick();
      ColdOpen(path,
               queries[cold_queries[cold * kColdStride % cold_queries.size()]],
               static_cast<int64_t>(cold), tracer, &phase);
    }
  }
  phase.stats = log.log_store()->stats();
  phase.peak_rss_mb = PeakRssMb();
  return phase;
}

}  // namespace

WorkloadResult RunQueryFig8(const RunArgs& args) {
  WorkloadResult out;
  const std::string path = args.work_dir + "/fig8.lstore";
  // Template generation is the benchmark's own work, outside set-up.
  const std::vector<PipelineTemplate> ballast =
      MakeRegistryTemplates(kBallastTemplates, kBallastOps, kBallastCells,
                            MixSeed(kTemplateSeed, 84), /*with_sort=*/true);
  HostSpeed setup_host, host;
  SetupSamples setup;
  dslog::Result<Fig8Store> store =
      setup.Build(args.seed, path, ballast, &setup_host);
  for (int rep = 1; rep < kSetups && store.ok(); ++rep)
    store = setup.Build(args.seed, path, ballast, &setup_host);
  dslog::Result<DSLog> log =
      store.ok() ? DSLog::OpenInSitu(path)
                 : dslog::Result<DSLog>(store.status());
  if (!log.ok()) {
    out.report.push_back("set-up failed: " + log.status().ToString());
    out.failures.attempted = out.failures.errors = 1;
    out.end_to_end = MakeEndToEnd({});
    return out;
  }
  Fig8Store& fig8 = store.value();
  std::vector<PathQuery> queries =
      MakeFig8Queries(fig8, {0.0005, 0.005, 0.05}, kQueriesPerClass, args.seed);
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  dslog::Rng rng(MixSeed(args.seed, 91));
  rng.Shuffle(&order);

  // Warm-up pass, outside timing: every distinct query once; its answer
  // is what replays must match, once the oracle has checked it.
  Failures check;
  std::vector<BoxTable> expected(queries.size());
  std::vector<char> answered(queries.size(), 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = log.value().ProvQuery(queries[i].path, queries[i].query);
    ++check.attempted;
    if (!r.ok()) {
      ++check.errors;
      continue;
    }
    expected[i] = std::move(r).ValueOrDie();
    answered[i] = 1;
  }
  std::vector<char> matches(queries.size(), 1);
  std::atomic<size_t> next{0};
  auto oracle = [&] {
    for (size_t i; (i = next.fetch_add(1)) < queries.size();)
      if (answered[i])
        matches[i] = MatchesOracle(
            fig8.workflows[static_cast<size_t>(queries[i].workflow)],
            queries[i], expected[i]);
  };
  std::vector<std::thread> oracle_threads;
  for (int t = 1; t < kOracleThreads; ++t) oracle_threads.emplace_back(oracle);
  oracle();
  for (std::thread& t : oracle_threads) t.join();
  check.mismatches += std::count(matches.begin(), matches.end(), 0);
  // The raw relations serve only the oracle: free them before the
  // replay, so that peak_rss_mb is the program's memory.
  fig8.workflows.clear();
  fig8.workflows.shrink_to_fit();

  Tracer untraced(false);
  const double main_seconds = args.trace ? args.seconds / 2 : args.seconds;
  Phase phase = RunPhase(log.value(), path, queries, expected, order,
                         main_seconds, &untraced, &host);
  out.failures = check;
  out.failures.Add(phase.failures);

  auto end_to_end = [&](const Phase& p) {
    Samples all = p.queries.All();
    std::map<std::string, double> v;
    v["setup_s"] = setup.seconds.Median();
    v["ingest_rows_per_s"] = setup.ingest_rate.Median();
    v["lineage_overhead_pct"] = setup.ingest_overhead.Median();
    v["store_bytes_per_raw_byte"] = static_cast<double>(fig8.file_bytes) /
                                    static_cast<double>(fig8.raw_bytes);
    v["cold_query_ms"] = p.queries.cold_ms.Median();
    v["query_fwd_p50_ms"] = GeoMeanOfMedians(p.queries.fwd_by_query);
    v["query_bwd_p50_ms"] = GeoMeanOfMedians(p.queries.bwd_by_query);
    v["query_p99_ms"] = all.TailPercentile().value;
    v["query_qps"] = static_cast<double>(all.count()) / (all.Sum() / 1e3);
    v["peak_rss_mb"] = p.peak_rss_mb;
    return v;
  };
  const std::map<std::string, double> measured = end_to_end(phase);
  // The replay at the reference host speed; the set-up values (set-up
  // time and the ballast ingest) were scaled build by build.
  auto at_reference = [&](const Phase& p, const HostSpeed& h) {
    std::map<std::string, double> v = AtReferenceSpeed(end_to_end(p), h.Factor());
    v["setup_s"] = setup.seconds_at_reference.Median();
    v["ingest_rows_per_s"] = setup.ingest_rate_at_reference.Median();
    return v;
  };
  const std::map<std::string, double> scaled = at_reference(phase, host);

  char buf[320];
  Samples all = phase.queries.All();
  Samples::Tail tail = all.TailPercentile();
  std::snprintf(buf, sizeof(buf),
                "query_fig8: %zu distinct queries, %lld replayed (%lld fwd, "
                "%lld bwd), %lld cold opens, %lld set-ups; query_p99_ms is "
                "p%.2f over %lld samples (%lld beyond)",
                queries.size(), static_cast<long long>(phase.replayed),
                static_cast<long long>(phase.queries.fwd_ms.count()),
                static_cast<long long>(phase.queries.bwd_ms.count()),
                static_cast<long long>(phase.queries.cold_ms.count()),
                static_cast<long long>(setup.seconds.count()), tail.percentile,
                static_cast<long long>(all.count()),
                static_cast<long long>(tail.beyond));
  out.report.push_back(buf);
  if (!phase.peak_reset)
    out.report.push_back(
        "warning: could not reset VmHWM; peak_rss_mb includes set-up");
  std::snprintf(buf, sizeof(buf),
                "replay queries/s per slice: min %.1f p25 %.1f p50 %.1f p75 "
                "%.1f max %.1f",
                phase.slice_qps.Quantile(0), phase.slice_qps.Quantile(0.25),
                phase.slice_qps.Median(), phase.slice_qps.Quantile(0.75),
                phase.slice_qps.Quantile(1));
  out.report.push_back(buf);
  out.report.push_back("warm latency per query class (p50 ms, samples):");
  for (const auto& [name, samples] : phase.per_class) {
    std::snprintf(buf, sizeof(buf), "  %-28s %10.4f %8lld", name.c_str(),
                  samples.Median(), static_cast<long long>(samples.count()));
    out.report.push_back(buf);
  }

  LayerValues layers;
  std::vector<std::unique_ptr<Tracer>> wire_tracers;
  RunWireLeg(args, path, queries, expected, main_seconds * kWireShare, &out,
             &layers, &wire_tracers);

  if (args.trace) {
    Tracer tracer(true);
    HostSpeed traced_host;
    // A fresh catalog, warmed like the untraced one.
    dslog::Result<DSLog> traced_log = DSLog::OpenInSitu(path);
    if (traced_log.ok()) {
      for (size_t i = 0; i < queries.size(); ++i)
        (void)traced_log.value().ProvQuery(queries[i].path, queries[i].query);
      Phase traced = RunPhase(traced_log.value(), path, queries, expected,
                              order, args.seconds / 2, &tracer, &traced_host);
      out.failures.Add(traced.failures);
      const QueryAgg& q = traced.queries;
      auto per = [](double num, int64_t den) {
        return den > 0 ? num / static_cast<double>(den) : 0.0;
      };
      layers["storage.open_ms"] = q.open_ms.Median();
      layers["storage.resolve_us"] = per(q.resolve_us, q.resolves);
      const dslog::LogStoreStats& s = traced.stats;
      layers["storage.cache_hit_ratio"] =
          per(static_cast<double>(s.cache_hits), s.cache_hits + s.cache_misses);
      layers["storage.bytes_decompressed"] =
          static_cast<double>(s.bytes_decompressed);
      layers["storage.rows_materialized"] =
          static_cast<double>(s.rows_materialized);
      layers["query.fwd_join_ms"] = per(q.fwd_join_ms, q.fwd_ms.count());
      layers["query.bwd_join_ms"] = per(q.bwd_join_ms, q.bwd_ms.count());
      layers["query.rows_scanned_per_result_box"] =
          per(static_cast<double>(q.rows_scanned), q.result_boxes);
      layers["query.merge_ratio"] =
          per(static_cast<double>(q.result_boxes), q.rows_emitted);
      std::vector<const Tracer*> tracers = {&tracer};
      for (const auto& t : wire_tracers) tracers.push_back(t.get());
      AddLayerTimes(tracers, 0.0, &layers, &out);
      AddTraceOverhead(MakeEndToEnd(scaled),
                       MakeEndToEnd(at_reference(traced, traced_host)),
                       "query_fwd_p50_ms", /*higher_is_better=*/false,
                       &layers, &out);
      if (!WriteTraceJson(args.work_dir + "/trace_query_fig8.json", tracers))
        out.report.push_back("warning: could not write the trace file");
    } else {
      ++out.failures.attempted;
      ++out.failures.errors;
    }
  }
  out.end_to_end = MakeEndToEnd(scaled);
  AddHostSpeedReport(setup_host, host, setup.seconds, setup.factors, measured,
                     &layers, &out);
  AddFailureReport(out.failures, &layers, &out);
  SetPerLayer(layers, &out);
  std::remove(path.c_str());
  return out;
}

}  // namespace e2e
