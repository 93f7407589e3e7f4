// Shared machinery of the end-to-end DSLog benchmark: run arguments, the
// in-memory span recorder used by traced runs, latency samples, the
// seeded Fig-9-style pipeline generator with its op-by-op ingest runner,
// the Fig-8 query store builder, and the oracle checks.
//
// Everything here calls DSLog through its public headers only; layer
// timings are spans the benchmark records around its own calls.

#ifndef DSLOG_BENCH_E2E_COMMON_H_
#define DSLOG_BENCH_E2E_COMMON_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "array/ndarray.h"
#include "array/op.h"
#include "common/random.h"
#include "lineage/lineage_relation.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "storage/dslog.h"
#include "workloads/workflows.h"

namespace e2e {

using dslog::BoxTable;
using dslog::DSLog;
using dslog::LineageRelation;

// ------------------------------------------------------------------ run --

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for scratch stores and the trace file (created if absent).
  std::string work_dir = ".bench_build/run";
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// CPU time of the calling thread, user and system. The in-process
/// workloads time DSLog calls on this clock, and NowNs() only paces them:
/// it leaves out time the thread was not running (preemption, and on a VM
/// the steal that paravirtual steal accounting removes), which on a shared
/// host is other tenants' load, not DSLog's work. Time blocked in I/O is
/// left out too; the one blocking call timed is the fsync of SaveLogStore,
/// once per store. A read costs about 0.4 us (a system call).
inline int64_t CpuNs() {
  timespec t;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
}

inline double CpuMsSince(int64_t start_ns) {
  return static_cast<double>(CpuNs() - start_ns) / 1e6;
}

// -------------------------------------------------------------- tracing --

/// One recorded span. The layer is the name's prefix before the first '.'
/// ("array.capture" -> array).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same thread's span list
  int64_t request_id = 0;
};

/// Per-thread span recorder. Disabled recorders cost one branch per call.
/// Not thread-safe: each client thread owns one.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index or -1.
  int32_t Begin(std::string_view name, int64_t request_id);
  void End(int32_t index);
  /// Records a finished span with explicit times under `parent` (used for
  /// per-hop spans copied out of a QueryProfile).
  void Add(std::string_view name, int32_t parent, int64_t start_ns,
           int64_t end_ns, int64_t request_id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, int64_t request_id = 0)
      : tracer_(tracer), index_(tracer->Begin(name, request_id)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Self time per layer over every thread's spans: a span's duration minus
/// the part its direct children cover. `blocking_ms` is the summed
/// duration of root spans (the steps a result waits for).
struct LayerTimes {
  std::map<std::string, double> self_ms;
  double blocking_ms = 0.0;
};
LayerTimes ComputeLayerTimes(const std::vector<const Tracer*>& tracers);

/// Writes every span as Chrome trace_event JSON (one tid per tracer).
bool WriteTraceJson(const std::string& path,
                    const std::vector<const Tracer*>& tracers);

/// Appends the QueryProfile's per-hop storage-resolve and θ-join timings
/// as child spans of `parent`, laid out back to back from `start_ns`.
void AddProfileSpans(Tracer* tracer, int32_t parent, int64_t start_ns,
                     const dslog::QueryProfile& profile, int64_t request_id);

// -------------------------------------------------------------- samples --

/// A latency sample set. TailPercentile() is the highest percentile
/// (capped at 99) with at least ten samples beyond it.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  int64_t count() const { return static_cast<int64_t>(values_.size()); }
  /// The most recent sample (0 when empty).
  double Last() const { return values_.empty() ? 0.0 : values_.back(); }
  /// The i-th sample in the order added.
  double at(int64_t i) const { return values_[static_cast<size_t>(i)]; }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The mean of the samples left when the lowest and the highest `trim`
  /// share are dropped (all of them when fewer than 1 / `trim`).
  double TrimmedMean(double trim) const;
  struct Tail {
    double percentile = 0.0;  // e.g. 99.0
    double value = 0.0;
    int64_t beyond = 0;  // samples strictly beyond the percentile rank
  };
  Tail TailPercentile() const;

 private:
  std::vector<double> values_;
};

/// The geometric mean, over the keys of `by_key`, of each key's median:
/// the typical latency of a fixed list of distinct queries, each replayed
/// several times. Unlike the median of all samples pooled, it moves
/// smoothly when the queries' latencies move, rather than jumping when the
/// pooled median crosses a gap between groups of queries. 0 when empty.
double GeoMeanOfMedians(const std::map<int64_t, Samples>& by_key);

// ----------------------------------------------------------- host speed --

/// How fast the host runs right now, from a fixed reference kernel that
/// calls no DSLog code: a sort of 16384 integers, their inserts into an
/// open-addressing hash table, and a dependent random walk over a 256 KiB
/// buffer, about 2 ms of CPU. It allocates nothing, and its data is
/// brought into the caches before each run, so the kernel measures the
/// speed of the core it runs on, not the heap or the caches the workload
/// left behind. A sample is the fastest of three runs back to back: a
/// single run, the first after workload code, followed the host's speed
/// worst of the kernels tried (see README.md, Timing and host speed). On
/// the shared host this benchmark was built on, other tenants moved the
/// speed of whole runs up and down by up to 1.5x for minutes at a time
/// (see README.md, Host noise); a kernel timed in step with the workload
/// moves with it.
///
/// A factor is kReferenceMs over the 10%-trimmed mean of samples. Within a
/// run the samples fall into a fast and a slow group; the mean follows the
/// share of slow samples smoothly, where the median jumps between the
/// groups. A factor scales a time measured beside the kernel to the speed
/// at which the kernel takes kReferenceMs: a duration is multiplied by it,
/// a rate divided by it.
class HostSpeed {
 public:
  /// About the kernel's trimmed mean on the development host (Intel Xeon,
  /// 4 vCPUs of a shared host), so that scaled figures read as if measured
  /// there at a typical speed.
  static constexpr double kReferenceMs = 1.9;
  static constexpr double kSampleIntervalMs = 250.0;
  static constexpr double kTrim = 0.1;

  HostSpeed();
  /// Called between timed calls of a timed phase: takes one sample when
  /// kSampleIntervalMs of wall time have passed since the last one.
  void Tick();
  /// Takes `count` samples now and returns the factor of these samples
  /// alone (for a set-up repetition timed right beside them).
  double MeasureFactor(int count);
  /// The factor of every sample so far; 1 before any.
  double Factor() const;
  double MeanMs() const { return kernel_ms_.TrimmedMean(kTrim); }
  const Samples& samples() const { return kernel_ms_; }

 private:
  static constexpr size_t kKeys = 16384;
  static constexpr size_t kWalk = 65536;
  /// One sample: the fastest of three runs of the kernel.
  double SampleMs();
  double RunMs();

  std::vector<uint64_t> keys_, sorted_, table_;
  std::vector<uint32_t> walk_;
  Samples kernel_ms_;
  int64_t next_ns_ = 0;
  uint64_t sink_ = 0;
};

/// Peak resident set (VmHWM) of this process in MiB since the last
/// ResetPeakRss().
double PeakRssMb();

/// Returns freed heap pages to the kernel and resets VmHWM to the current
/// resident set (writes "5" to /proc/self/clear_refs), so that PeakRssMb()
/// covers only what runs afterwards. False when the mark cannot be reset.
bool ResetPeakRss();

// ----------------------------------------------------------- pipelines --

/// One step of a pipeline template. Registry ops come from OpRegistry;
/// "lime"/"drise" are the explain captures over a frame (apply = the
/// TinyDetector, capture = the attribution method).
struct StepSpec {
  std::string op;
  dslog::OpArgs args;
  bool value_dependent = false;
};

/// A seeded pipeline template: the same step list is instantiated on fresh
/// inputs of shape `shapes[0]` (same-shape repeats) or `shapes[1]`
/// (re-shaped repeats). Templates are validated on both shapes at
/// generation, so no instantiation fails.
struct PipelineTemplate {
  bool explain = false;  // frame -> detector pipeline (LIME / D-RISE)
  std::vector<int64_t> shapes[2];
  std::vector<StepSpec> steps;
};

/// Generator seed of every pipeline template. It is fixed so that every
/// run measures the same op mix; the run seed draws the inputs the
/// templates run on, the edges checked and the query cells.
constexpr uint64_t kTemplateSeed = 9;

/// Registry-op templates starting from 1-D arrays of `cells` (variant 0)
/// and 3/4 * `cells` (variant 1); with `with_sort`, one `sort` is
/// interleaved at a seeded position.
std::vector<PipelineTemplate> MakeRegistryTemplates(int count, int ops,
                                                    int64_t cells,
                                                    uint64_t seed,
                                                    bool with_sort);
/// One LIME and one D-RISE template over frames of side `side` (variant 0)
/// and 3/4 * `side` (variant 1), with the default LimeOptions and
/// DRiseOptions (128 samples / masks).
std::vector<PipelineTemplate> MakeExplainTemplates(int64_t side);

/// Per-call timings and volumes the pipeline runner accumulates.
struct IngestTotals {
  int64_t ops = 0;            // registrations
  int64_t captured_ops = 0;   // registrations that carried capture
  int64_t reuse_served = 0;   // registrations served from the reuse index
  int64_t pipelines = 0;
  int64_t raw_rows = 0;       // lineage rows registered (captured + served)
  int64_t raw_bytes = 0;      // raw rows * arity * 8
  int64_t capture_rows = 0;   // rows produced by capture calls
  double apply_ms = 0.0;
  double capture_ms = 0.0;
  double register_ms = 0.0;
  double append_ms = 0.0;
  // Traced runs only: ProvRcCompress timed on its own per captured relation.
  double compress_ms = 0.0;
  int64_t structured_raw_rows = 0, structured_compressed_rows = 0;
  int64_t valuedep_raw_rows = 0, valuedep_compressed_rows = 0;

  void Add(const IngestTotals& o);
  /// (capture + register + append) / apply, in percent.
  double OverheadPct() const;
  /// Raw lineage rows per second of ingest busy time.
  double RowsPerSecond() const;
};

/// A pipeline kept for the post-ingest oracle check: its arrays and their
/// shapes in chain order, and the uncompressed relation of every step.
struct CheckedPath {
  std::vector<std::string> arrays;
  std::vector<std::vector<int64_t>> shapes;
  std::vector<LineageRelation> relations;
};

/// One instantiated pipeline: its registrations (captured relations kept)
/// plus the operator timings of producing them. Used by the wire workload,
/// which captures in set-up and ships later.
struct CapturedPipeline {
  std::vector<dslog::OperationRegistration> regs;
  std::vector<std::vector<int64_t>> shapes;  // arrays in chain order
  /// Per registration: operator and capture time in ms.
  std::vector<double> apply_ms;
  std::vector<double> capture_ms;
};

/// Drives templates op by op into one DSLog (apply -> capture ->
/// RegisterOperation), omitting capture once the reuse predictor reports a
/// promoted mapping for a structure-determined step, and persisting each
/// finished pipeline with SaveLogStore (first) / AppendLogStore (rest).
class PipelineRunner {
 public:
  PipelineRunner(DSLog* log, std::string store_path, Tracer* tracer,
               bool separate_compress)
      : log_(log),
        store_path_(std::move(store_path)),
        tracer_(tracer),
        separate_compress_(separate_compress) {}

  /// Runs `tmpl` once on a fresh input of `variant` shape, naming arrays
  /// with `prefix`. When `check` is set, every step's relation is returned
  /// in it for the oracle (captured outside every timed call where reuse
  /// served the step).
  dslog::Status RunPipeline(const PipelineTemplate& tmpl, int template_id,
                            int variant, const std::string& prefix,
                            uint64_t input_seed, CheckedPath* check);

  const IngestTotals& totals() const { return totals_; }

 private:
  DSLog* log_;
  std::string store_path_;
  Tracer* tracer_;
  bool separate_compress_;
  bool store_exists_ = false;
  IngestTotals totals_;
  /// (template, step, variant) -> raw rows of the last captured instance,
  /// and whether the mapping is promoted (capture may be omitted).
  std::map<std::tuple<int, int, int>, int64_t> known_rows_;
  std::map<std::tuple<int, int, int>, bool> promoted_;
};

/// Applies + captures one template instance without registering it; the
/// apply and capture times are per-call medians over a few repetitions.
dslog::Result<CapturedPipeline> CapturePipeline(const PipelineTemplate& tmpl,
                                                int variant,
                                                const std::string& prefix,
                                                uint64_t input_seed);

// ---------------------------------------------------------- Fig-8 store --

/// One query of the replay list: a full workflow path in one direction.
struct PathQuery {
  int workflow = 0;
  bool forward = true;
  double selectivity = 0.0;
  std::vector<std::string> path;
  int query_ndim = 0;
  std::vector<int64_t> cells;  // flattened query cells of path.front()
  BoxTable query;
};

/// The Fig-8 query store: image 128x128, relational 40000 + 25000 rows and
/// resnet 48x48 (the sizes of bench_fig8_workflows) plus unqueried random
/// pipelines as catalog ballast (four instances of each `ballast`
/// template), saved as one v4 LogStore at `path`. `workflows` keeps the
/// raw relations for the oracle.
struct Fig8Store {
  std::string path;
  std::vector<dslog::Workflow> workflows;
  int64_t raw_bytes = 0;   // every registered relation, ballast included
  int64_t file_bytes = 0;
  IngestTotals ballast;    // ingest of the ballast pipelines
};

dslog::Result<Fig8Store> BuildFig8Store(
    uint64_t seed, const std::string& path,
    const std::vector<PipelineTemplate>& ballast, Tracer* tracer);

/// `per_class` queries for every workflow x selectivity x direction.
std::vector<PathQuery> MakeFig8Queries(const Fig8Store& store,
                                       const std::vector<double>& selectivities,
                                       int per_class, uint64_t seed);

/// A cell set in canonical form: flattened `arity`-tuples, sorted and
/// without duplicates, so that two sets are equal exactly when their
/// canonical vectors are.
std::vector<int64_t> CanonicalCells(const std::vector<int64_t>& flat,
                                    int arity);

/// Oracle: the query evaluated by UncompressedQuery over the workflow's
/// raw relations equals `result` as a cell set.
bool MatchesOracle(const dslog::Workflow& wf, const PathQuery& q,
                   const BoxTable& result);
/// Oracle for a single stored edge queried in either direction: the
/// canonical UncompressedQuery answer for `cells`.
std::vector<int64_t> EdgeOracle(const LineageRelation& rel, bool forward,
                                const std::vector<int64_t>& cells);
/// True when `result` covers exactly the cells of `canonical`.
bool SameCells(const std::vector<int64_t>& canonical, const BoxTable& result);

/// Bit-identical BoxTable comparison (same boxes in the same order).
bool SameBoxes(const BoxTable& a, const BoxTable& b);

/// Up to `count` distinct cells of `shape` as flattened tuples.
std::vector<int64_t> SampleCells(const std::vector<int64_t>& shape,
                                 int64_t count, dslog::Rng* rng);

/// Mixes a run seed with stream ids into an independent input seed.
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0, uint64_t c = 0);

}  // namespace e2e

#endif  // DSLOG_BENCH_E2E_COMMON_H_
