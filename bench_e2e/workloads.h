// The three benchmark workloads and the result every one of them reports.

#ifndef DSLOG_BENCH_E2E_WORKLOADS_H_
#define DSLOG_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Failure accounting: each kind is a count next to `attempted`.
struct Failures {
  int64_t attempted = 0;
  int64_t errors = 0;           // calls that returned a non-OK status
  int64_t shed = 0;             // typed refusals (kUnavailable / overloaded)
  int64_t protocol_errors = 0;  // dslog.server.protocol_errors delta
  int64_t mismatches = 0;       // answers that disagree with the oracle

  int64_t failed() const { return errors + shed + protocol_errors + mismatches; }
  void Add(const Failures& o) {
    attempted += o.attempted;
    errors += o.errors;
    shed += o.shed;
    protocol_errors += o.protocol_errors;
    mismatches += o.mismatches;
  }
};

struct WorkloadResult {
  /// Every end-to-end metric, measured untraced.
  std::vector<Metric> end_to_end;
  /// Every per-layer metric, from the traced phase (trace runs only).
  std::vector<Metric> per_layer;
  Failures failures;
  /// Human-readable report lines printed before the JSON result.
  std::vector<std::string> report;
};

/// Query-side aggregates shared by every workload that issues queries.
struct QueryAgg {
  Samples fwd_ms;
  Samples bwd_ms;
  /// The same latencies by distinct query (TimedQuery's `query_key`).
  std::map<int64_t, Samples> fwd_by_query;
  std::map<int64_t, Samples> bwd_by_query;
  Samples cold_ms;
  Samples open_ms;
  // From QueryProfile (traced phase only).
  double fwd_join_ms = 0.0, bwd_join_ms = 0.0;
  int64_t rows_scanned = 0, rows_emitted = 0, result_boxes = 0;
  int64_t resolves = 0;
  double resolve_us = 0.0;

  Samples All() const {
    Samples all = fwd_ms;
    all.Append(bwd_ms);
    return all;
  }
};

/// ProvQuery with the benchmark's timing and, on a traced tracer, a
/// profiled run whose hops become child spans. Latency (on the thread's
/// CPU clock) goes to `agg`, and with a `query_key` >= 0 also to that
/// query's own samples.
dslog::Result<BoxTable> TimedQuery(const DSLog& log,
                                   const std::vector<std::string>& path,
                                   const BoxTable& query, bool forward,
                                   Tracer* tracer, QueryAgg* agg,
                                   int64_t request_id, int64_t query_key = -1);

WorkloadResult RunIngestPipelines(const RunArgs& args);
WorkloadResult RunQueryFig8(const RunArgs& args);

// ------------------------------------------------------------ reporting --

/// The end-to-end metric names, in BENCHMARK.json order.
const std::vector<std::string>& EndToEndNames();

/// Orders `values` as EndToEndNames() with their units (absent names are
/// reported as 0, which the benchmark treats as a failed measurement).
std::vector<Metric> MakeEndToEnd(const std::map<std::string, double>& values);

/// The end-to-end values in `measured` at the reference host speed (see
/// HostSpeed): times (units s and ms) multiplied by `factor`, rates (1/s)
/// divided by it, the rest unchanged.
std::map<std::string, double> AtReferenceSpeed(
    const std::map<std::string, double>& measured, double factor);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames();

/// Per-layer values a workload measured, keyed by metric name. Names a
/// workload does not exercise are reported as 0.
using LayerValues = std::map<std::string, double>;

/// Adds the per-layer self times and blocking-step shares of a traced
/// phase to `values`, and report lines. `separate_compress_ms` is the
/// traced-only ProvRcCompress work: it is credited to provrc, taken out of
/// storage (whose RegisterOperation span contains the same compression)
/// and out of the blocking steps (it is extra work, not a blocking step).
void AddLayerTimes(const std::vector<const Tracer*>& tracers,
                   double separate_compress_ms, LayerValues* values,
                   WorkloadResult* out);

/// Emits every per-layer metric from `values` into `out->per_layer`.
void SetPerLayer(const LayerValues& values, WorkloadResult* out);

/// Appends report lines comparing traced and untraced end-to-end metrics
/// and sets trace.overhead_pct: how much worse `headline` is traced.
void AddTraceOverhead(const std::vector<Metric>& untraced,
                      const std::vector<Metric>& traced,
                      const std::string& headline, bool higher_is_better,
                      LayerValues* values, WorkloadResult* out);

/// The wire leg of query_fig8 (wire_leg.cc): serves the store at `path`
/// from an in-process DslogServer for `seconds` (and as long again traced,
/// on a trace run), replaying the lowest-selectivity `queries` over
/// loopback beside a paced staged-ingest client. Wire answers must equal
/// `expected`. Adds the wire_* and net.* per-layer values, report lines
/// and failures; the traced phase's recorders go to `traced_tracers`.
void RunWireLeg(const RunArgs& args, const std::string& path,
                const std::vector<PathQuery>& queries,
                const std::vector<BoxTable>& expected, double seconds,
                WorkloadResult* out, LayerValues* layers,
                std::vector<std::unique_ptr<Tracer>>* traced_tracers);

/// Reports the host-speed kernel's samples and factor of the set-up and of
/// the timed phase, each set-up repetition with its factor, and the
/// end-to-end values as `measured`, before scaling; sets host.kernel_ms
/// and host.speed_factor (timed phase).
void AddHostSpeedReport(const HostSpeed& setup_host, const HostSpeed& host,
                        const Samples& setup_seconds,
                        const Samples& setup_factors,
                        const std::map<std::string, double>& measured,
                        LayerValues* values, WorkloadResult* out);

/// Adds the failure counts to the report and the per-layer values.
void AddFailureReport(const Failures& failures, LayerValues* values,
                      WorkloadResult* out);

std::string FormatMetric(const Metric& m);

/// The value of the metric called `name` in `metrics` (0 when absent).
double MetricValue(const std::vector<Metric>& metrics, const std::string& name);

}  // namespace e2e

#endif  // DSLOG_BENCH_E2E_WORKLOADS_H_
