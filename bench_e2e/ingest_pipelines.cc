// ingest_pipelines: one thread, in-process. Rounds of seeded Fig-9-style
// registry pipelines (each with one `sort`) plus a LIME and a D-RISE
// pipeline run op by op through apply -> capture -> RegisterOperation,
// with SaveLogStore/AppendLogStore after every pipeline. Every template
// repeats on fresh inputs, same-shape first and then re-shaped; once the
// reuse predictor has promoted a step's mapping, later instances omit its
// capture. After each round the store is reopened with OpenInSitu and
// every edge of every pipeline is queried forward and backward on seeded
// cells and checked against the oracle. Set-up seeds a fresh store with
// one instance of every template.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/random.h"
#include "workloads.h"

namespace e2e {
namespace {

/// Sizes follow the repository's benches: bench_fig9_random's 20000-cell
/// initial arrays, and the image workflow's 128x128 frames for LIME and
/// D-RISE (at their default 128 samples / masks).
constexpr int kTemplates = 6;
constexpr int kOpsPerTemplate = 5;
constexpr int64_t kCells = 20000;
constexpr int64_t kFrameSide = 128;
constexpr int kSetupReps = 9;
/// Host-speed kernel samples right before and right after each set-up
/// repetition.
constexpr int kSetupKernelSamples = 5;
/// Instance shapes per template within a round: two same-shape instances
/// (dim_sig promotion), one re-shaped (gen_sig promotion), then both
/// shapes again with capture omitted where a mapping was promoted.
constexpr int kSchedule[] = {0, 0, 1, 0, 1, 0};
constexpr int64_t kMaxQueryCells = 256;
constexpr int kColdOpens = 4;
constexpr int kWarmReps = 3;

/// One checked edge reduced to what the oracle check needs: the query
/// path and seeded query cells per direction, and the canonical
/// UncompressedQuery answers.
struct EdgeProbe {
  std::vector<std::string> path[2];  // [0] backward, [1] forward
  BoxTable query[2];
  std::vector<int64_t> expected[2];  // CanonicalCells of the answer
};

/// Probes every edge of the pipeline: draws the cells and evaluates the
/// oracle on the edge's relation. The relations are then no longer kept.
void AddProbes(const CheckedPath& pipeline, dslog::Rng* rng,
               std::vector<EdgeProbe>* out) {
  for (size_t k = 0; k < pipeline.relations.size(); ++k) {
    EdgeProbe probe;
    for (bool forward : {false, true}) {
      const std::vector<int64_t>& shape = pipeline.shapes[forward ? k : k + 1];
      int64_t total = 1;
      for (int64_t d : shape) total *= d;
      std::vector<int64_t> cells = SampleCells(
          shape, std::min<int64_t>(kMaxQueryCells, total / 100 + 1), rng);
      probe.path[forward] = forward
          ? std::vector<std::string>{pipeline.arrays[k], pipeline.arrays[k + 1]}
          : std::vector<std::string>{pipeline.arrays[k + 1], pipeline.arrays[k]};
      probe.query[forward] =
          BoxTable::FromCells(static_cast<int>(shape.size()), cells);
      probe.expected[forward] =
          EdgeOracle(pipeline.relations[k], forward, cells);
    }
    out->push_back(std::move(probe));
  }
}


struct Phase {
  IngestTotals totals;
  Samples round_rate;
  Samples round_overhead;
  QueryAgg queries;
  int64_t rounds = 0;
  /// Probes verified so far: keys of the per-probe latency samples.
  int64_t probes = 0;
  int64_t file_bytes = 0;
  int64_t raw_bytes = 0;
  dslog::ReuseStats reuse;
  int64_t bytes_decompressed = 0, rows_materialized = 0;
  int64_t cache_hits = 0, cache_misses = 0;
  /// VmHWM over the phase alone (see ResetPeakRss).
  double peak_rss_mb = 0.0;
  bool peak_reset = false;
  Failures failures;
};

/// Reopens the round's store kColdOpens times, timing each cold open plus
/// its first query, then queries every pipeline forward and backward:
/// once untimed against the oracle's answer, then kWarmReps times timed
/// (each replay must return the same boxes).
void VerifyRound(const std::string& path, const std::vector<EdgeProbe>& checks,
                 Tracer* tracer, HostSpeed* host, Phase* phase) {
  std::optional<DSLog> log;
  for (int rep = 0; rep < kColdOpens; ++rep) {
    host->Tick();
    const int64_t t0 = CpuNs();
    dslog::Result<DSLog> opened = [&] {
      ScopedSpan span(tracer, "storage.open");
      return DSLog::OpenInSitu(path);
    }();
    phase->queries.open_ms.Add(CpuMsSince(t0));
    ++phase->failures.attempted;
    if (!opened.ok()) {
      ++phase->failures.errors;
      return;
    }
    if (!checks.empty()) {
      // First queries are spread evenly over the round's edges.
      const EdgeProbe& probe =
          checks[static_cast<size_t>(rep) * checks.size() / kColdOpens];
      QueryAgg cold;  // first queries stay out of the warm samples
      ++phase->failures.attempted;
      if (!TimedQuery(opened.value(), probe.path[1], probe.query[1], true,
                      tracer, &cold, rep)
               .ok())
        ++phase->failures.errors;
      phase->queries.cold_ms.Add(CpuMsSince(t0));
      phase->queries.resolves += cold.resolves;
      phase->queries.resolve_us += cold.resolve_us;
    }
    log.emplace(std::move(opened).ValueOrDie());
  }

  int64_t request = 0;
  for (size_t p = 0; p < checks.size(); ++p) {
    const EdgeProbe& probe = checks[p];
    const int64_t key = phase->probes + static_cast<int64_t>(p);
    host->Tick();
    for (bool forward : {true, false}) {
      const BoxTable& q = probe.query[forward];
      ++phase->failures.attempted;
      auto first = log->ProvQuery(probe.path[forward], q);
      if (!first.ok()) {
        ++phase->failures.errors;
        continue;
      }
      if (!SameCells(probe.expected[forward], first.value()))
        ++phase->failures.mismatches;
      for (int rep = 0; rep < kWarmReps; ++rep) {
        auto r = TimedQuery(*log, probe.path[forward], q, forward, tracer,
                            &phase->queries, ++request, key);
        ++phase->failures.attempted;
        if (!r.ok())
          ++phase->failures.errors;
        else if (!SameBoxes(r.value(), first.value()))
          ++phase->failures.mismatches;
      }
    }
  }
  phase->probes += static_cast<int64_t>(checks.size());
  dslog::LogStoreStats stats = log->log_store()->stats();
  phase->bytes_decompressed += stats.bytes_decompressed;
  phase->rows_materialized += stats.rows_materialized;
  phase->cache_hits += stats.cache_hits;
  phase->cache_misses += stats.cache_misses;
}

Phase RunPhase(const RunArgs& args,
               const std::vector<PipelineTemplate>& templates, double seconds,
               int64_t first_round, Tracer* tracer, HostSpeed* host) {
  Phase phase;
  phase.peak_reset = ResetPeakRss();
  const std::string path = args.work_dir + "/ingest.lstore";
  const int64_t start = NowNs();
  for (int64_t round = first_round;
       phase.rounds == 0 || MsSince(start) < seconds * 1e3; ++round) {
    std::remove(path.c_str());
    DSLog log;
    PipelineRunner runner(&log, path, tracer, tracer->enabled());
    dslog::Rng rng(MixSeed(args.seed, 400, static_cast<uint64_t>(round)));
    std::vector<EdgeProbe> checks;
    for (int i = 0; i < static_cast<int>(std::size(kSchedule)); ++i) {
      for (size_t t = 0; t < templates.size(); ++t) {
        CheckedPath pipeline;
        const int64_t ops_before = runner.totals().ops;
        dslog::Status s = runner.RunPipeline(
            templates[t], static_cast<int>(t), kSchedule[i],
            "t" + std::to_string(t) + "_i" + std::to_string(i),
            MixSeed(args.seed, 300 + static_cast<uint64_t>(round), t,
                    static_cast<uint64_t>(i)),
            &pipeline);
        phase.failures.attempted += runner.totals().ops - ops_before;
        host->Tick();
        if (!s.ok()) {
          std::fprintf(stderr, "ingest error: %s\n", s.ToString().c_str());
          ++phase.failures.attempted;
          ++phase.failures.errors;
          continue;
        }
        AddProbes(pipeline, &rng, &checks);
      }
    }
    const IngestTotals& totals = runner.totals();
    phase.totals.Add(totals);
    phase.round_rate.Add(totals.RowsPerSecond());
    phase.round_overhead.Add(totals.OverheadPct());
    phase.raw_bytes += totals.raw_bytes;
    dslog::ReuseStats reuse = log.reuse_stats();
    phase.reuse.base_hits += reuse.base_hits;
    phase.reuse.dim_hits += reuse.dim_hits;
    phase.reuse.gen_hits += reuse.gen_hits;
    if (FILE* f = std::fopen(path.c_str(), "rb")) {
      std::fseek(f, 0, SEEK_END);
      phase.file_bytes += std::ftell(f);
      std::fclose(f);
    }
    VerifyRound(path, checks, tracer, host, &phase);
    ++phase.rounds;
  }
  std::remove(path.c_str());
  phase.peak_rss_mb = PeakRssMb();
  return phase;
}

std::map<std::string, double> EndToEnd(const Phase& p, double setup_s) {
  Samples all = p.queries.All();
  std::map<std::string, double> v;
  v["setup_s"] = setup_s;
  v["ingest_rows_per_s"] = p.round_rate.Median();
  v["lineage_overhead_pct"] = p.round_overhead.Median();
  v["store_bytes_per_raw_byte"] =
      static_cast<double>(p.file_bytes) / static_cast<double>(p.raw_bytes);
  v["cold_query_ms"] = p.queries.cold_ms.Median();
  v["query_fwd_p50_ms"] = GeoMeanOfMedians(p.queries.fwd_by_query);
  v["query_bwd_p50_ms"] = GeoMeanOfMedians(p.queries.bwd_by_query);
  v["query_p99_ms"] = all.TailPercentile().value;
  v["query_qps"] = static_cast<double>(all.count()) / (all.Sum() / 1e3);
  v["peak_rss_mb"] = p.peak_rss_mb;
  return v;
}

void LayerMetrics(const Phase& p, LayerValues* v) {
  const IngestTotals& t = p.totals;
  auto per = [](double num, int64_t den) {
    return den > 0 ? num / static_cast<double>(den) : 0.0;
  };
  (*v)["array.apply_ms"] = per(t.apply_ms, t.ops);
  (*v)["array.capture_ms"] = per(t.capture_ms, t.captured_ops);
  (*v)["array.capture_rows"] =
      per(static_cast<double>(t.capture_rows), t.captured_ops);
  (*v)["provrc.compress_ms"] = per(t.compress_ms, t.captured_ops);
  (*v)["provrc.rows_ratio.structured"] =
      per(static_cast<double>(t.structured_compressed_rows),
          t.structured_raw_rows);
  (*v)["provrc.rows_ratio.value_dependent"] = per(
      static_cast<double>(t.valuedep_compressed_rows), t.valuedep_raw_rows);
  (*v)["storage.register_ms"] = per(t.register_ms, t.ops);
  (*v)["storage.append_ms"] = per(t.append_ms, t.pipelines);
  (*v)["storage.bytes_written"] =
      per(static_cast<double>(p.file_bytes), p.rounds);
  (*v)["storage.reuse_hit_ratio"] =
      per(static_cast<double>(t.reuse_served), t.ops);
  (*v)["storage.reuse_hit_ratio.base"] =
      per(static_cast<double>(p.reuse.base_hits), t.ops);
  (*v)["storage.reuse_hit_ratio.dim"] =
      per(static_cast<double>(p.reuse.dim_hits), t.ops);
  (*v)["storage.reuse_hit_ratio.gen"] =
      per(static_cast<double>(p.reuse.gen_hits), t.ops);
  (*v)["storage.open_ms"] = p.queries.open_ms.Median();
  (*v)["storage.resolve_us"] = per(p.queries.resolve_us, p.queries.resolves);
  (*v)["storage.cache_hit_ratio"] = per(static_cast<double>(p.cache_hits),
                                        p.cache_hits + p.cache_misses);
  (*v)["storage.bytes_decompressed"] =
      per(static_cast<double>(p.bytes_decompressed), p.rounds);
  (*v)["storage.rows_materialized"] =
      per(static_cast<double>(p.rows_materialized), p.rounds);
  (*v)["query.fwd_join_ms"] =
      per(p.queries.fwd_join_ms, p.queries.fwd_ms.count());
  (*v)["query.bwd_join_ms"] =
      per(p.queries.bwd_join_ms, p.queries.bwd_ms.count());
  (*v)["query.rows_scanned_per_result_box"] =
      per(static_cast<double>(p.queries.rows_scanned), p.queries.result_boxes);
  (*v)["query.merge_ratio"] =
      per(static_cast<double>(p.queries.result_boxes), p.queries.rows_emitted);
}

/// Set-up times: the median repetition as measured, and the median of the
/// repetitions each scaled by the host-speed factor measured beside it.
struct SetupTimes {
  double seconds = 0.0;
  double at_reference = 0.0;
  /// Each repetition as measured, and the factor measured beside it.
  Samples each, factors;
};

/// Set-up: a fresh DSLog seeded with one same-shape instance of every
/// template (DefineArray, then apply -> capture -> RegisterOperation per
/// op, SaveLogStore after the first pipeline and AppendLogStore after each
/// later one), kSetupReps times on the thread's CPU clock, with the
/// host-speed kernel run right before and after each repetition.
SetupTimes SeedStores(const RunArgs& args,
                      const std::vector<PipelineTemplate>& templates,
                      HostSpeed* host, Failures* failures) {
  const std::string path = args.work_dir + "/ingest_setup.lstore";
  Tracer off(false);
  SetupTimes out;
  Samples at_reference;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::remove(path.c_str());
    const double before = host->MeasureFactor(kSetupKernelSamples);
    const int64_t t0 = CpuNs();
    DSLog log;
    PipelineRunner runner(&log, path, &off, /*separate_compress=*/false);
    for (size_t t = 0; t < templates.size(); ++t) {
      ++failures->attempted;
      dslog::Status s = runner.RunPipeline(
          templates[t], static_cast<int>(t), 0, "t" + std::to_string(t),
          MixSeed(args.seed, 200, t, static_cast<uint64_t>(rep)), nullptr);
      if (!s.ok()) ++failures->errors;
    }
    const double s = CpuMsSince(t0) / 1e3;
    const double after = host->MeasureFactor(kSetupKernelSamples);
    out.each.Add(s);
    out.factors.Add((before + after) / 2);
    at_reference.Add(s * out.factors.Last());
  }
  std::remove(path.c_str());
  out.seconds = out.each.Median();
  out.at_reference = at_reference.Median();
  return out;
}

}  // namespace

WorkloadResult RunIngestPipelines(const RunArgs& args) {
  WorkloadResult out;
  // Template generation is the benchmark's own work, outside set-up.
  std::vector<PipelineTemplate> templates = MakeRegistryTemplates(
      kTemplates, kOpsPerTemplate, kCells, MixSeed(kTemplateSeed, 10),
      /*with_sort=*/true);
  for (PipelineTemplate& t : MakeExplainTemplates(kFrameSide))
    templates.push_back(std::move(t));
  HostSpeed setup_host, host;
  Failures setup_failures;
  const SetupTimes setup =
      SeedStores(args, templates, &setup_host, &setup_failures);

  Tracer untraced(false);
  const double main_seconds = args.trace ? args.seconds / 2 : args.seconds;
  Phase phase = RunPhase(args, templates, main_seconds, 0, &untraced, &host);
  const std::map<std::string, double> measured =
      EndToEnd(phase, setup.seconds);
  // The timed phase at the reference host speed; set-up was scaled
  // repetition by repetition.
  std::map<std::string, double> scaled =
      AtReferenceSpeed(measured, host.Factor());
  scaled["setup_s"] = setup.at_reference;
  out.failures = setup_failures;
  out.failures.Add(phase.failures);

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ingest_pipelines: %zu templates, %lld rounds, %lld ops "
                "(%lld captured, %lld served by reuse), %lld verification "
                "queries",
                templates.size(), static_cast<long long>(phase.rounds),
                static_cast<long long>(phase.totals.ops),
                static_cast<long long>(phase.totals.captured_ops),
                static_cast<long long>(phase.totals.reuse_served),
                static_cast<long long>(phase.queries.All().count()));
  out.report.push_back(buf);
  if (!phase.peak_reset)
    out.report.push_back(
        "warning: could not reset VmHWM; peak_rss_mb includes set-up");
  Samples::Tail tail = phase.queries.All().TailPercentile();
  std::snprintf(buf, sizeof(buf),
                "query_p99_ms is p%.2f over %lld samples (%lld beyond)",
                tail.percentile,
                static_cast<long long>(phase.queries.All().count()),
                static_cast<long long>(tail.beyond));
  out.report.push_back(buf);
  for (const auto& [name, samples] :
       {std::pair{"fwd", &phase.queries.fwd_ms},
        std::pair{"bwd", &phase.queries.bwd_ms}}) {
    std::snprintf(buf, sizeof(buf),
                  "warm %s query ms: p25 %.6f p50 %.6f p75 %.6f p90 %.6f", name,
                  samples->Quantile(0.25), samples->Median(),
                  samples->Quantile(0.75), samples->Quantile(0.9));
    out.report.push_back(buf);
  }

  LayerValues layers;
  if (args.trace) {
    Tracer tracer(true);
    HostSpeed traced_host;
    Phase traced = RunPhase(args, templates, args.seconds / 2, 1 << 20,
                            &tracer, &traced_host);
    out.failures.Add(traced.failures);
    LayerMetrics(traced, &layers);
    AddLayerTimes({&tracer}, traced.totals.compress_ms, &layers, &out);
    std::map<std::string, double> traced_scaled = AtReferenceSpeed(
        EndToEnd(traced, setup.seconds), traced_host.Factor());
    traced_scaled["setup_s"] = setup.at_reference;  // set-up is not traced
    AddTraceOverhead(MakeEndToEnd(scaled), MakeEndToEnd(traced_scaled),
                     "ingest_rows_per_s", /*higher_is_better=*/true, &layers,
                     &out);
    if (!WriteTraceJson(args.work_dir + "/trace_ingest_pipelines.json",
                        {&tracer}))
      out.report.push_back("warning: could not write the trace file");
  }
  out.end_to_end = MakeEndToEnd(scaled);
  AddHostSpeedReport(setup_host, host, setup.each, setup.factors, measured,
                     &layers, &out);
  AddFailureReport(out.failures, &layers, &out);
  SetPerLayer(layers, &out);
  return out;
}

}  // namespace e2e
