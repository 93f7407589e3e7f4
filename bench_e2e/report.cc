#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace e2e {

const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> kNames = {
      "setup_s",           "ingest_rows_per_s", "lineage_overhead_pct",
      "store_bytes_per_raw_byte", "cold_query_ms", "query_fwd_p50_ms",
      "query_bwd_p50_ms",  "query_p99_ms",      "query_qps",
      "peak_rss_mb"};
  return kNames;
}

const std::map<std::string, std::string>& EndToEndUnits() {
  static const std::map<std::string, std::string> kUnits = {
      {"setup_s", "s"},           {"ingest_rows_per_s", "1/s"},
      {"lineage_overhead_pct", "%"}, {"store_bytes_per_raw_byte", "ratio"},
      {"cold_query_ms", "ms"},    {"query_fwd_p50_ms", "ms"},
      {"query_bwd_p50_ms", "ms"}, {"query_p99_ms", "ms"},
      {"query_qps", "1/s"},       {"peak_rss_mb", "MB"}};
  return kUnits;
}

std::vector<Metric> MakeEndToEnd(const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const std::string& name : EndToEndNames()) {
    auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second,
                   EndToEndUnits().at(name)});
  }
  return out;
}

std::map<std::string, double> AtReferenceSpeed(
    const std::map<std::string, double>& measured, double factor) {
  std::map<std::string, double> out = measured;
  for (auto& [name, value] : out) {
    auto unit = EndToEndUnits().find(name);
    if (unit == EndToEndUnits().end()) continue;
    if (unit->second == "s" || unit->second == "ms") value *= factor;
    if (unit->second == "1/s") value /= factor;
  }
  return out;
}

void AddHostSpeedReport(const HostSpeed& setup_host, const HostSpeed& host,
                        const Samples& setup_seconds,
                        const Samples& setup_factors,
                        const std::map<std::string, double>& measured,
                        LayerValues* values, WorkloadResult* out) {
  (*values)["host.kernel_ms"] = host.MeanMs();
  (*values)["host.speed_factor"] = host.Factor();
  for (const auto& [what, h] : {std::pair{"set-up", &setup_host},
                                std::pair{"timed phase", &host}}) {
    const Samples& k = h->samples();
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "host speed, %s: reference kernel %lld samples, ms p10 "
                  "%.4f p25 %.4f p50 %.4f p75 %.4f p90 %.4f, trimmed mean "
                  "%.4f; factor %.4f",
                  what, static_cast<long long>(k.count()), k.Quantile(0.1),
                  k.Quantile(0.25), k.Median(), k.Quantile(0.75),
                  k.Quantile(0.9), h->MeanMs(), h->Factor());
    out->report.push_back(buf);
  }
  std::string line = "set-up repetitions (s as measured x factor):";
  for (int64_t i = 0; i < setup_seconds.count(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.4f x %.4f", setup_seconds.at(i),
                  setup_factors.at(i));
    line += buf;
  }
  out->report.push_back(line);
  out->report.push_back(
      "end-to-end metrics as measured, before host-speed scaling:");
  for (const Metric& m : MakeEndToEnd(measured))
    out->report.push_back(FormatMetric(m));
}

const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"array.apply_ms", "ms"},
      {"array.capture_ms", "ms"},
      {"array.capture_rows", "count"},
      {"provrc.compress_ms", "ms"},
      {"provrc.rows_ratio.structured", "ratio"},
      {"provrc.rows_ratio.value_dependent", "ratio"},
      {"storage.register_ms", "ms"},
      {"storage.append_ms", "ms"},
      {"storage.bytes_written", "bytes"},
      {"storage.reuse_hit_ratio", "ratio"},
      {"storage.reuse_hit_ratio.base", "ratio"},
      {"storage.reuse_hit_ratio.dim", "ratio"},
      {"storage.reuse_hit_ratio.gen", "ratio"},
      {"storage.open_ms", "ms"},
      {"storage.resolve_us", "us"},
      {"storage.cache_hit_ratio", "ratio"},
      {"storage.bytes_decompressed", "bytes"},
      {"storage.rows_materialized", "count"},
      {"query.fwd_join_ms", "ms"},
      {"query.bwd_join_ms", "ms"},
      {"query.rows_scanned_per_result_box", "ratio"},
      {"query.merge_ratio", "ratio"},
      {"wire_qps", "1/s"},
      {"wire_p50_ms", "ms"},
      {"wire_p99_ms", "ms"},
      {"wire_ingest_ops_per_s", "1/s"},
      {"wire_ingest_rows_per_s", "1/s"},
      {"wire_lineage_overhead_pct", "%"},
      {"net.overhead_ms", "ms"},
      {"net.response_bytes", "bytes"},
      {"net.drain_ms", "ms"},
      {"net.shed", "count"},
      {"net.protocol_errors", "count"},
      {"ops_attempted", "count"},
      {"ops_errors", "count"},
      {"ops_mismatches", "count"},
      {"ops_failed_frac", "ratio"},
      {"trace.overhead_pct", "%"},
      {"host.kernel_ms", "ms"},
      {"host.speed_factor", "ratio"},
      {"array.self_ms", "ms"},
      {"provrc.self_ms", "ms"},
      {"storage.self_ms", "ms"},
      {"query.self_ms", "ms"},
      {"net.self_ms", "ms"},
      {"array.self_share_pct", "%"},
      {"provrc.self_share_pct", "%"},
      {"storage.self_share_pct", "%"},
      {"query.self_share_pct", "%"},
      {"net.self_share_pct", "%"},
  };
  return kNames;
}

std::string FormatMetric(const Metric& m) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-36s %16.6g %s", m.name.c_str(),
                m.value, m.unit.c_str());
  return buf;
}

double MetricValue(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  return 0.0;
}

void AddLayerTimes(const std::vector<const Tracer*>& tracers,
                   double separate_compress_ms, LayerValues* values,
                   WorkloadResult* out) {
  LayerTimes times = ComputeLayerTimes(tracers);
  times.self_ms["storage"] =
      std::max(0.0, times.self_ms["storage"] - separate_compress_ms);
  times.blocking_ms = std::max(0.0, times.blocking_ms - separate_compress_ms);
  out->report.push_back("traced phase: per-layer self time (" +
                        std::to_string(times.blocking_ms) +
                        " ms of blocking steps)");
  for (const char* layer : {"array", "provrc", "storage", "query", "net"}) {
    const double self = times.self_ms[layer];
    const double share =
        times.blocking_ms > 0 ? 100.0 * self / times.blocking_ms : 0.0;
    (*values)[std::string(layer) + ".self_ms"] = self;
    (*values)[std::string(layer) + ".self_share_pct"] = share;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-8s self %12.3f ms  %6.2f %% of blocking",
                  layer, self, share);
    out->report.push_back(buf);
  }
}

void SetPerLayer(const LayerValues& values, WorkloadResult* out) {
  for (const auto& [name, unit] : PerLayerNames()) {
    auto it = values.find(name);
    out->per_layer.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
}

void AddTraceOverhead(const std::vector<Metric>& untraced,
                      const std::vector<Metric>& traced,
                      const std::string& headline, bool higher_is_better,
                      LayerValues* values, WorkloadResult* out) {
  out->report.push_back(
      "tracing overhead (traced minus untraced, per end-to-end metric):");
  for (const Metric& u : untraced) {
    const double t = MetricValue(traced, u.name);
    const double pct = u.value != 0 ? 100.0 * (t - u.value) / u.value : 0;
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "  %-28s untraced %12.6g  traced %12.6g  %+7.2f %%",
                  u.name.c_str(), u.value, t, pct);
    out->report.push_back(buf);
    if (u.name == headline)
      (*values)["trace.overhead_pct"] = higher_is_better ? -pct : pct;
  }
}

void AddFailureReport(const Failures& f, LayerValues* values,
                      WorkloadResult* out) {
  (*values)["ops_attempted"] = static_cast<double>(f.attempted);
  (*values)["ops_errors"] = static_cast<double>(f.errors);
  (*values)["ops_mismatches"] = static_cast<double>(f.mismatches);
  (*values)["net.shed"] = static_cast<double>(f.shed);
  (*values)["net.protocol_errors"] = static_cast<double>(f.protocol_errors);
  (*values)["ops_failed_frac"] =
      f.attempted > 0 ? static_cast<double>(f.failed()) /
                            static_cast<double>(f.attempted)
                      : 0.0;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "failures: attempted %lld  errors %lld  shed %lld  "
                "protocol_errors %lld  oracle_mismatches %lld  "
                "ops_failed_frac %.6g",
                static_cast<long long>(f.attempted),
                static_cast<long long>(f.errors),
                static_cast<long long>(f.shed),
                static_cast<long long>(f.protocol_errors),
                static_cast<long long>(f.mismatches), (*values)["ops_failed_frac"]);
  out->report.push_back(buf);
}

dslog::Result<BoxTable> TimedQuery(const DSLog& log,
                                   const std::vector<std::string>& path,
                                   const BoxTable& query, bool forward,
                                   Tracer* tracer, QueryAgg* agg,
                                   int64_t request_id, int64_t query_key) {
  dslog::QueryOptions options;
  options.profile = tracer->enabled();
  dslog::QueryProfile profile;
  const int64_t t0 = NowNs();  // lays out the trace spans
  const int64_t cpu0 = CpuNs();
  dslog::Result<BoxTable> result = [&] {
    ScopedSpan span(tracer, "query.prov_query", request_id);
    auto r = log.ProvQuery(path, query, options,
                           options.profile ? &profile : nullptr);
    AddProfileSpans(tracer, span.index(), t0, profile, request_id);
    return r;
  }();
  const double ms = CpuMsSince(cpu0);
  (forward ? agg->fwd_ms : agg->bwd_ms).Add(ms);
  if (query_key >= 0)
    (forward ? agg->fwd_by_query : agg->bwd_by_query)[query_key].Add(ms);
  if (options.profile) {
    for (const dslog::HopProfile& hop : profile.hops) {
      (hop.forward ? agg->fwd_join_ms : agg->bwd_join_ms) += hop.wall_ms;
      agg->rows_scanned += hop.rows_scanned;
      agg->rows_emitted += hop.rows_emitted;
      agg->result_boxes += hop.result_boxes;
      if (hop.from_store && !hop.cache_hit) {
        ++agg->resolves;
        agg->resolve_us += static_cast<double>(hop.resolve_us);
      }
    }
  }
  return result;
}

}  // namespace e2e
