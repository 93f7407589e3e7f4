#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <tuple>

#include "array/op_registry.h"
#include "common/random.h"
#include "explain/explain.h"
#include "provrc/provrc.h"

namespace e2e {

using dslog::NDArray;
using dslog::OperationRegistration;
using dslog::Result;
using dslog::Rng;
using dslog::Status;

// -------------------------------------------------------------- tracing --

int32_t Tracer::Begin(std::string_view name, int64_t request_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Add(std::string_view name, int32_t parent, int64_t start_ns,
                 int64_t end_ns, int64_t request_id) {
  if (!enabled_) return;
  Span span;
  span.name = std::string(name);
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.request_id = request_id;
  spans_.push_back(std::move(span));
}

namespace {

std::string LayerOf(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

LayerTimes ComputeLayerTimes(const std::vector<const Tracer*>& tracers) {
  LayerTimes out;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& s : spans)
      if (s.parent >= 0)
        child_ms[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      out.self_ms[LayerOf(s.name)] += std::max(0.0, dur - child_ms[i]);
      if (s.parent < 0) out.blocking_ms += dur;
    }
  }
  return out;
}

bool WriteTraceJson(const std::string& path,
                    const std::vector<const Tracer*>& tracers) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [";
  bool first = true;
  for (size_t tid = 0; tid < tracers.size(); ++tid) {
    for (const Span& s : tracers[tid]->spans()) {
      if (!first) f << ",";
      first = false;
      f << "\n{\"name\": \"" << JsonEscape(s.name) << "\", \"cat\": \""
        << JsonEscape(LayerOf(s.name)) << "\", \"ph\": \"X\", \"pid\": 1"
        << ", \"tid\": " << tid << ", \"ts\": "
        << static_cast<double>(s.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"request_id\": " << s.request_id
        << ", \"parent\": " << s.parent << "}}";
    }
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

void AddProfileSpans(Tracer* tracer, int32_t parent, int64_t start_ns,
                     const dslog::QueryProfile& profile, int64_t request_id) {
  if (!tracer->enabled()) return;
  int64_t cursor = start_ns;
  for (const dslog::HopProfile& hop : profile.hops) {
    if (hop.from_store && !hop.cache_hit && hop.resolve_us > 0) {
      int64_t end = cursor + hop.resolve_us * 1000;
      tracer->Add("storage.resolve", parent, cursor, end, request_id);
      cursor = end;
    }
  }
  for (const dslog::HopProfile& hop : profile.hops) {
    int64_t end = cursor + static_cast<int64_t>(hop.wall_ms * 1e6);
    tracer->Add(hop.forward ? "query.fwd_join" : "query.bwd_join", parent,
                cursor, end, request_id);
    cursor = end;
  }
}

// -------------------------------------------------------------- samples --

double Samples::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Samples::TrimmedMean(double trim) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const size_t drop = static_cast<size_t>(trim * static_cast<double>(v.size()));
  return std::accumulate(v.begin() + drop, v.end() - drop, 0.0) /
         static_cast<double>(v.size() - 2 * drop);
}

Samples::Tail Samples::TailPercentile() const {
  Tail tail;
  double n = static_cast<double>(values_.size());
  if (n == 0) return tail;
  double q = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  tail.percentile = 100.0 * q;
  tail.value = Quantile(q);
  tail.beyond = static_cast<int64_t>(std::floor(n * (1.0 - q)));
  return tail;
}

double GeoMeanOfMedians(const std::map<int64_t, Samples>& by_key) {
  if (by_key.empty()) return 0.0;
  double log_sum = 0.0;
  for (const auto& [key, samples] : by_key)
    log_sum += std::log(std::max(samples.Median(), 1e-9));
  return std::exp(log_sum / static_cast<double>(by_key.size()));
}

// ----------------------------------------------------------- host speed --

HostSpeed::HostSpeed()
    : keys_(kKeys), sorted_(kKeys), table_(2 * kKeys), walk_(kWalk) {
  Rng rng(0x5eed);
  for (uint64_t& k : keys_) k = rng.Next() | 1;  // 0 marks an empty slot
  // One random cycle through the walk buffer (Sattolo's shuffle), so that
  // every load of the walk depends on the one before.
  std::iota(walk_.begin(), walk_.end(), 0u);
  for (size_t i = walk_.size() - 1; i > 0; --i)
    std::swap(walk_[i], walk_[rng.Next() % i]);
}

void HostSpeed::Tick() {
  if (NowNs() < next_ns_) return;
  kernel_ms_.Add(SampleMs());
  next_ns_ = NowNs() + static_cast<int64_t>(kSampleIntervalMs * 1e6);
}

double HostSpeed::MeasureFactor(int count) {
  Samples now;
  for (int rep = 0; rep < count; ++rep) now.Add(SampleMs());
  kernel_ms_.Append(now);
  return kReferenceMs / now.TrimmedMean(kTrim);
}

double HostSpeed::SampleMs() {
  return std::min({RunMs(), RunMs(), RunMs()});
}

double HostSpeed::RunMs() {
  // Bring the kernel's data back into the caches first, so that its time
  // does not depend on what the workload evicted since the last sample.
  for (uint64_t k : keys_) sink_ += k;
  for (uint32_t w : walk_) sink_ += w;
  std::fill(table_.begin(), table_.end(), 0);
  const int64_t t0 = CpuNs();
  std::copy(keys_.begin(), keys_.end(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.end());
  const size_t mask = table_.size() - 1;
  for (uint64_t k : keys_) {
    size_t slot = (k * 0x9e3779b97f4a7c15ULL) >> 40 & mask;
    while (table_[slot] != 0 && table_[slot] != k) slot = (slot + 1) & mask;
    table_[slot] = k;
  }
  uint32_t at = static_cast<uint32_t>(sorted_[7] % walk_.size());
  for (size_t step = 0; step < kWalk; ++step) at = walk_[at];
  const double ms = CpuMsSince(t0);
  sink_ += at + table_[at & mask];
  return ms;
}

double HostSpeed::Factor() const {
  return kernel_ms_.empty() ? 1.0 : kReferenceMs / MeanMs();
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      long long kb = std::atoll(line.c_str() + 6);
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  Rng rng(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL) ^
          (c * 0x165667b19e3779f9ULL));
  rng.Next();
  return rng.Next();
}

std::vector<int64_t> SampleCells(const std::vector<int64_t>& shape,
                                 int64_t count, Rng* rng) {
  NDArray probe(shape);
  count = std::clamp<int64_t>(count, 1, probe.size());
  std::vector<int64_t> cells;
  std::vector<int64_t> idx(shape.size());
  for (int64_t flat : rng->SampleWithoutReplacement(probe.size(), count)) {
    probe.UnravelIndex(flat, idx);
    cells.insert(cells.end(), idx.begin(), idx.end());
  }
  return cells;
}

// ----------------------------------------------------------- pipelines --

namespace {

bool IsExplain(const StepSpec& step) {
  return step.op == "lime" || step.op == "drise";
}

/// The operator itself: a registry op's Apply, or the detector for an
/// explain step.
Result<NDArray> ApplyStep(const StepSpec& step, const NDArray& x) {
  if (IsExplain(step)) return dslog::TinyDetector().Evaluate(x);
  const dslog::ArrayOp* op = dslog::OpRegistry::Global().Find(step.op);
  if (op == nullptr) return Status::NotFound("no op " + step.op);
  return op->Apply({&x}, step.args);
}

/// Lineage capture for one step; explain steps run the attribution method.
Result<LineageRelation> CaptureStep(const StepSpec& step, const NDArray& x,
                                    const NDArray& out, uint64_t rng_seed) {
  Rng rng(rng_seed);
  if (step.op == "lime")
    return dslog::LimeCapture(x, dslog::TinyDetector(), dslog::LimeOptions(),
                              &rng);
  if (step.op == "drise")
    return dslog::DRiseCapture(x, dslog::TinyDetector(), dslog::DRiseOptions(),
                               &rng);
  const dslog::ArrayOp* op = dslog::OpRegistry::Global().Find(step.op);
  if (op == nullptr) return Status::NotFound("no op " + step.op);
  auto rels = op->Capture({&x}, out, step.args);
  if (!rels.ok()) return rels.status();
  return std::move(rels.ValueOrDie()[0]);
}

NDArray MakeInput(const PipelineTemplate& tmpl, int variant,
                  uint64_t input_seed) {
  const std::vector<int64_t>& shape = tmpl.shapes[variant];
  if (tmpl.explain)
    return dslog::MakeSurveillanceFrame(shape[0], shape[1], input_seed);
  Rng rng(input_seed);
  return NDArray::Random(shape, &rng);
}

int64_t RelationBytes(const LineageRelation& rel) {
  return rel.num_rows() * rel.arity() * 8;
}

}  // namespace

std::vector<PipelineTemplate> MakeRegistryTemplates(int count, int ops,
                                                    int64_t cells,
                                                    uint64_t seed,
                                                    bool with_sort) {
  const dslog::OpRegistry& registry = dslog::OpRegistry::Global();
  std::vector<std::string> pool;
  for (const std::string& name : registry.UnaryPipelineNames())
    if (!registry.Find(name)->value_dependent()) pool.push_back(name);

  std::vector<PipelineTemplate> out;
  for (int t = 0; t < count; ++t) {
    Rng rng(MixSeed(seed, 1, static_cast<uint64_t>(t)));
    PipelineTemplate tmpl;
    tmpl.shapes[0] = {cells};
    tmpl.shapes[1] = {cells * 3 / 4};
    NDArray cur[2] = {NDArray::Random(tmpl.shapes[0], &rng),
                      NDArray::Random(tmpl.shapes[1], &rng)};
    const int sort_at =
        with_sort ? static_cast<int>(rng.Uniform(static_cast<uint64_t>(ops)))
                  : -1;
    for (int guard = 0; static_cast<int>(tmpl.steps.size()) < ops &&
                        guard < ops * 400;
         ++guard) {
      const bool want_sort = static_cast<int>(tmpl.steps.size()) == sort_at;
      const dslog::ArrayOp* op =
          registry.Find(want_sort ? "sort" : pool[rng.Uniform(pool.size())]);
      StepSpec step;
      step.op = op->name();
      step.value_dependent = op->value_dependent();
      step.args = op->SampleArgs(cur[0].shape(), &rng);
      // A step joins the template only when it applies to both input
      // shapes with bounded lineage, so no instantiation can fail.
      NDArray next[2];
      bool ok = true;
      for (int v = 0; v < 2 && ok; ++v) {
        const int64_t base = tmpl.shapes[v][0];
        ok = op->SupportsUnaryShape(cur[v].shape());
        if (!ok) break;
        auto applied = op->Apply({&cur[v]}, step.args);
        ok = applied.ok() && applied.value().size() > 0 &&
             applied.value().size() <= 4 * base;
        if (!ok) break;
        next[v] = std::move(applied).ValueOrDie();
        auto rel = CaptureStep(step, cur[v], next[v], 0);
        ok = rel.ok() && rel.value().num_rows() > 0 &&
             rel.value().num_rows() <= 16 * base;
      }
      if (!ok) continue;
      tmpl.steps.push_back(std::move(step));
      cur[0] = std::move(next[0]);
      cur[1] = std::move(next[1]);
    }
    out.push_back(std::move(tmpl));
  }
  return out;
}

std::vector<PipelineTemplate> MakeExplainTemplates(int64_t side) {
  std::vector<PipelineTemplate> out;
  for (const char* method : {"lime", "drise"}) {
    PipelineTemplate tmpl;
    tmpl.explain = true;
    tmpl.shapes[0] = {side, side};
    tmpl.shapes[1] = {side * 3 / 4, side * 3 / 4};
    StepSpec step;
    step.op = method;
    step.value_dependent = true;
    if (step.op == "lime")
      step.args.SetInt("grid", dslog::LimeOptions().grid)
          .SetInt("samples", dslog::LimeOptions().num_samples);
    else
      step.args.SetInt("grid", dslog::DRiseOptions().mask_grid)
          .SetInt("samples", dslog::DRiseOptions().num_masks);
    tmpl.steps.push_back(std::move(step));
    out.push_back(std::move(tmpl));
  }
  return out;
}

void IngestTotals::Add(const IngestTotals& o) {
  ops += o.ops;
  captured_ops += o.captured_ops;
  reuse_served += o.reuse_served;
  pipelines += o.pipelines;
  raw_rows += o.raw_rows;
  raw_bytes += o.raw_bytes;
  capture_rows += o.capture_rows;
  apply_ms += o.apply_ms;
  capture_ms += o.capture_ms;
  register_ms += o.register_ms;
  append_ms += o.append_ms;
  compress_ms += o.compress_ms;
  structured_raw_rows += o.structured_raw_rows;
  structured_compressed_rows += o.structured_compressed_rows;
  valuedep_raw_rows += o.valuedep_raw_rows;
  valuedep_compressed_rows += o.valuedep_compressed_rows;
}

double IngestTotals::OverheadPct() const {
  return apply_ms > 0 ? 100.0 * (capture_ms + register_ms + append_ms) / apply_ms
                      : 0.0;
}

double IngestTotals::RowsPerSecond() const {
  double busy = apply_ms + capture_ms + register_ms + append_ms;
  return busy > 0 ? static_cast<double>(raw_rows) / (busy / 1e3) : 0.0;
}

Status PipelineRunner::RunPipeline(const PipelineTemplate& tmpl, int template_id,
                                 int variant, const std::string& prefix,
                                 uint64_t input_seed, CheckedPath* check) {
  NDArray x = MakeInput(tmpl, variant, input_seed);
  std::string in_name = prefix + "_x0";
  DSLOG_RETURN_IF_ERROR(log_->DefineArray(in_name, x.shape()));
  if (check != nullptr) {
    check->arrays = {in_name};
    check->shapes = {x.shape()};
    check->relations.clear();
  }
  for (size_t k = 0; k < tmpl.steps.size(); ++k) {
    const StepSpec& step = tmpl.steps[k];
    const std::string out_name = prefix + "_x" + std::to_string(k + 1);
    const auto key = std::make_tuple(template_id, static_cast<int>(k), variant);
    const uint64_t capture_seed = MixSeed(input_seed, 7, k);

    int64_t t0 = CpuNs();
    Result<NDArray> applied = [&] {
      ScopedSpan span(tracer_, "array.apply");
      return ApplyStep(step, x);
    }();
    totals_.apply_ms += CpuMsSince(t0);
    DSLOG_RETURN_IF_ERROR(applied.status());
    NDArray out = std::move(applied).ValueOrDie();

    OperationRegistration reg;
    reg.op_name = step.op;
    reg.in_arrs = {in_name};
    reg.out_arr = out_name;
    reg.args = step.args;
    reg.content_hash = x.ContentHash();

    const bool omit = !step.value_dependent && promoted_[key];
    int64_t rows = 0;
    int arity = 0;
    if (!omit) {
      t0 = CpuNs();
      Result<LineageRelation> rel = [&] {
        ScopedSpan span(tracer_, "array.capture");
        return CaptureStep(step, x, out, capture_seed);
      }();
      totals_.capture_ms += CpuMsSince(t0);
      DSLOG_RETURN_IF_ERROR(rel.status());
      rows = rel.value().num_rows();
      arity = rel.value().arity();
      known_rows_[key] = rows;
      totals_.capture_rows += rows;
      ++totals_.captured_ops;
      if (separate_compress_) {
        t0 = CpuNs();
        dslog::CompressedTable table = [&] {
          ScopedSpan span(tracer_, "provrc.compress");
          return dslog::ProvRcCompress(rel.value());
        }();
        totals_.compress_ms += CpuMsSince(t0);
        if (step.value_dependent) {
          totals_.valuedep_raw_rows += rows;
          totals_.valuedep_compressed_rows += table.num_rows();
        } else {
          totals_.structured_raw_rows += rows;
          totals_.structured_compressed_rows += table.num_rows();
        }
      }
      if (check != nullptr) check->relations.push_back(rel.value());
      reg.captured.push_back(std::move(rel).ValueOrDie());
    } else {
      rows = known_rows_[key];
      arity = static_cast<int>(x.ndim() + out.ndim());
      ++totals_.reuse_served;
      if (check != nullptr) {
        // Outside every timed call: the oracle needs the true relation.
        auto rel = CaptureStep(step, x, out, capture_seed);
        DSLOG_RETURN_IF_ERROR(rel.status());
        check->relations.push_back(std::move(rel).ValueOrDie());
      }
    }
    if (check != nullptr) {
      check->arrays.push_back(out_name);
      check->shapes.push_back(out.shape());
    }

    t0 = CpuNs();
    Result<dslog::ReuseOutcome> outcome = [&] {
      ScopedSpan span(tracer_, "storage.register");
      Status defined = log_->DefineArray(out_name, out.shape());
      if (!defined.ok()) return Result<dslog::ReuseOutcome>(defined);
      return log_->RegisterOperation(std::move(reg));
    }();
    totals_.register_ms += CpuMsSince(t0);
    DSLOG_RETURN_IF_ERROR(outcome.status());
    if (!omit && (outcome.value().dim_hit || outcome.value().gen_hit)) {
      // The predictor now serves this step: later instances omit capture.
      // A gen_sig promotion covers both shapes once both were captured.
      promoted_[key] = true;
      const auto other = std::make_tuple(template_id, static_cast<int>(k),
                                         1 - variant);
      if (outcome.value().gen_hit && known_rows_.count(other))
        promoted_[other] = true;
    }
    ++totals_.ops;
    totals_.raw_rows += rows;
    totals_.raw_bytes += rows * arity * 8;
    x = std::move(out);
    in_name = out_name;
  }

  int64_t t0 = CpuNs();
  Status saved = [&] {
    ScopedSpan span(tracer_, "storage.append");
    return store_exists_ ? log_->AppendLogStore(store_path_)
                         : log_->SaveLogStore(store_path_);
  }();
  totals_.append_ms += CpuMsSince(t0);
  DSLOG_RETURN_IF_ERROR(saved);
  store_exists_ = true;
  ++totals_.pipelines;
  return Status::OK();
}

constexpr int kTimingReps = 21;

Result<CapturedPipeline> CapturePipeline(const PipelineTemplate& tmpl,
                                         int variant,
                                         const std::string& prefix,
                                         uint64_t input_seed) {
  CapturedPipeline out;
  NDArray x = MakeInput(tmpl, variant, input_seed);
  std::string in_name = prefix + "_x0";
  out.shapes.push_back(x.shape());
  for (size_t k = 0; k < tmpl.steps.size(); ++k) {
    const StepSpec& step = tmpl.steps[k];
    // Each call is timed kTimingReps times and the medians kept: single
    // calls of these small operators are too short to time steadily.
    Samples apply_ms, capture_ms;
    NDArray next;
    LineageRelation rel;
    for (int rep = 0; rep < kTimingReps; ++rep) {
      int64_t t0 = NowNs();
      DSLOG_ASSIGN_OR_RETURN(next, ApplyStep(step, x));
      apply_ms.Add(MsSince(t0));
      t0 = NowNs();
      DSLOG_ASSIGN_OR_RETURN(
          rel, CaptureStep(step, x, next, MixSeed(input_seed, 7, k)));
      capture_ms.Add(MsSince(t0));
    }
    out.apply_ms.push_back(apply_ms.Median());
    out.capture_ms.push_back(capture_ms.Median());
    OperationRegistration reg;
    reg.op_name = step.op;
    reg.in_arrs = {in_name};
    reg.out_arr = prefix + "_x" + std::to_string(k + 1);
    reg.args = step.args;
    reg.content_hash = x.ContentHash();
    reg.captured.push_back(std::move(rel));
    in_name = reg.out_arr;
    out.shapes.push_back(next.shape());
    out.regs.push_back(std::move(reg));
    x = std::move(next);
  }
  return out;
}

// ---------------------------------------------------------- Fig-8 store --

Result<Fig8Store> BuildFig8Store(uint64_t seed, const std::string& path,
                                 const std::vector<PipelineTemplate>& ballast,
                                 Tracer* tracer) {
  Fig8Store store;
  store.path = path;
  DSLOG_ASSIGN_OR_RETURN(dslog::Workflow image,
                         dslog::BuildImageWorkflow(128, 128, MixSeed(seed, 81)));
  DSLOG_ASSIGN_OR_RETURN(
      dslog::Workflow relational,
      dslog::BuildRelationalWorkflow(40000, 25000, MixSeed(seed, 82)));
  DSLOG_ASSIGN_OR_RETURN(dslog::Workflow resnet,
                         dslog::BuildResNetWorkflow(48, 48, MixSeed(seed, 83)));
  store.workflows = {std::move(image), std::move(relational),
                     std::move(resnet)};

  DSLog log;
  for (const dslog::Workflow& wf : store.workflows) {
    for (size_t i = 0; i < wf.array_names.size(); ++i)
      DSLOG_RETURN_IF_ERROR(log.DefineArray(wf.array_names[i], wf.shapes[i]));
    for (size_t i = 0; i < wf.steps.size(); ++i) {
      OperationRegistration reg;
      reg.op_name = wf.steps[i].op_name;
      reg.in_arrs = {wf.array_names[i]};
      reg.out_arr = wf.array_names[i + 1];
      reg.captured = {wf.steps[i].relation};
      store.raw_bytes += RelationBytes(wf.steps[i].relation);
      DSLOG_RETURN_IF_ERROR(log.RegisterOperation(std::move(reg)).status());
    }
  }

  // Ballast: pipelines that are stored but never queried, so the catalog
  // holds more edges than the query list touches. Their ingest is timed.
  std::remove(path.c_str());
  PipelineRunner runner(&log, path, tracer, /*separate_compress=*/false);
  for (size_t t = 0; t < ballast.size(); ++t)
    for (int i = 0; i < 4; ++i)
      DSLOG_RETURN_IF_ERROR(runner.RunPipeline(
          ballast[t], static_cast<int>(t), i % 2,
          "ballast" + std::to_string(t) + "_" + std::to_string(i),
          MixSeed(seed, 85, t, static_cast<uint64_t>(i)), nullptr));
  store.ballast = runner.totals();
  store.raw_bytes += store.ballast.raw_bytes;
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  store.file_bytes = static_cast<int64_t>(f.tellg());
  return store;
}

std::vector<PathQuery> MakeFig8Queries(const Fig8Store& store,
                                       const std::vector<double>& selectivities,
                                       int per_class, uint64_t seed) {
  std::vector<PathQuery> out;
  Rng rng(MixSeed(seed, 90));
  for (size_t w = 0; w < store.workflows.size(); ++w) {
    const dslog::Workflow& wf = store.workflows[w];
    for (double sel : selectivities) {
      for (bool forward : {true, false}) {
        const std::vector<int64_t>& shape =
            forward ? wf.shapes.front() : wf.shapes.back();
        int64_t total = 1;
        for (int64_t d : shape) total *= d;
        for (int i = 0; i < per_class; ++i) {
          PathQuery q;
          q.workflow = static_cast<int>(w);
          q.forward = forward;
          q.selectivity = sel;
          q.path = wf.array_names;
          if (!forward) std::reverse(q.path.begin(), q.path.end());
          q.query_ndim = static_cast<int>(shape.size());
          const int64_t count = std::max<int64_t>(
              1, static_cast<int64_t>(sel * static_cast<double>(total)));
          if (count == 1 && total <= per_class) {
            // A tiny start array (the 6-cell detection vector): cycle
            // through its cells so every seed queries the same mix.
            q.cells.resize(shape.size());
            NDArray(shape).UnravelIndex(i % total, q.cells);
          } else {
            q.cells = SampleCells(shape, count, &rng);
          }
          q.query = BoxTable::FromCells(q.query_ndim, q.cells);
          out.push_back(std::move(q));
        }
      }
    }
  }
  return out;
}

std::vector<int64_t> CanonicalCells(const std::vector<int64_t>& flat,
                                    int arity) {
  std::vector<int64_t> out;
  if (arity <= 0) return out;
  const size_t a = static_cast<size_t>(arity);
  const int64_t* data = flat.data();
  std::vector<size_t> order(flat.size() / a);
  std::iota(order.begin(), order.end(), size_t{0});
  auto less = [&](size_t x, size_t y) {
    return std::lexicographical_compare(data + x * a, data + x * a + a,
                                        data + y * a, data + y * a + a);
  };
  std::sort(order.begin(), order.end(), less);
  out.reserve(order.size() * a);
  for (size_t i = 0; i < order.size(); ++i) {
    const int64_t* t = data + order[i] * a;
    if (i > 0 && std::equal(t, t + a, data + order[i - 1] * a)) continue;
    out.insert(out.end(), t, t + a);
  }
  return out;
}

bool MatchesOracle(const dslog::Workflow& wf, const PathQuery& q,
                   const BoxTable& result) {
  std::vector<dslog::RelationHop> hops;
  const size_t n = wf.steps.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t s = q.forward ? i : n - 1 - i;
    hops.push_back({&wf.steps[s].relation, q.forward});
  }
  const int arity = static_cast<int>(
      (q.forward ? wf.shapes.back() : wf.shapes.front()).size());
  return CanonicalCells(dslog::UncompressedQuery(hops, q.cells), arity) ==
         CanonicalCells(result.ExpandToCells(), arity);
}

std::vector<int64_t> EdgeOracle(const LineageRelation& rel, bool forward,
                                const std::vector<int64_t>& cells) {
  const int arity = forward ? rel.out_ndim() : rel.in_ndim();
  return CanonicalCells(dslog::UncompressedQuery({{&rel, forward}}, cells),
                        arity);
}

bool SameCells(const std::vector<int64_t>& canonical, const BoxTable& result) {
  return CanonicalCells(result.ExpandToCells(), result.ndim()) == canonical;
}

bool SameBoxes(const BoxTable& a, const BoxTable& b) {
  if (a.ndim() != b.ndim() || a.num_boxes() != b.num_boxes()) return false;
  for (int64_t i = 0; i < a.num_boxes(); ++i) {
    auto x = a.Box(i);
    auto y = b.Box(i);
    if (!std::equal(x.begin(), x.end(), y.begin())) return false;
  }
  return true;
}

}  // namespace e2e
