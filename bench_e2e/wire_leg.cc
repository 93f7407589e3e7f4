// The wire leg of query_fig8: an in-process DslogServer on loopback that
// mounts the Fig-8 store. One query client runs a closed loop, because
// DslogClient is strict request/response, replaying the list's lowest-
// selectivity queries, while a paced ingest client ships pipelines
// captured beforehand through an IngestHandle, draining every kDrainEvery
// ops into the same tenant. A query-only window comes first: it and an
// in-process replay of the same list, both without the ingest load, give
// net.overhead_ms. Every wire answer must be bit-identical to in-process
// ProvQuery on the same store.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "common/random.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "workloads.h"

namespace e2e {
namespace {

using dslog::net::DslogClient;
using dslog::net::DslogServer;

/// One query client and one server worker: with two query clients and
/// two workers beside the ingest client, wire latency and qps swung by
/// 20-60% between identical runs on a shared 4-core host; one of each
/// kept them within about 10%. With one worker, a Drain holds the lane
/// queries wait on, so net.drain_ms shows up in query_p99_ms.
constexpr int kWorkerThreads = 1;
constexpr int kQueryClients = 1;
constexpr double kWireSelectivity = 0.0005;
/// Window length of the windowed wire qps and tail.
constexpr int64_t kWindowNs = 500'000'000;
constexpr int kDrainEvery = 16;
/// The ingest client is paced, not closed-loop: run closed-loop, it and
/// the query clients traded the host's cores run to run (query_qps
/// 4.1k-10.1k, ingest 1.0M-2.3M rows/s over five runs) and the tenant grew
/// with whichever won. At a fixed rate the write load, and the memory it
/// adds, are the same on every run.
constexpr double kIngestOpsPerSecond = 200.0;
/// Share of the leg's seconds in the query-only window; the mixed window
/// with the ingest client takes the rest. The in-process baseline of
/// net.overhead_ms runs as long as the query-only window, after it.
constexpr double kQuietShare = 0.25;
constexpr const char* kTenant = "bench";

struct ClientStats {
  QueryAgg queries;
  /// Latencies per kWindowNs window of the phase.
  std::vector<Samples> windows;
  /// Latencies per query of the list.
  std::vector<Samples> per_query;
  Failures failures;
  int64_t response_bytes = 0;
  int64_t responses = 0;
};

struct IngestStats {
  int64_t ops = 0;
  double busy_ms = 0.0;  // inside DefineArray / Add / Drain calls
  /// Per drained batch: rows per second of busy time, and (capture + busy)
  /// / apply of the batch's ops in percent.
  Samples batch_rate;
  Samples batch_overhead;
  Samples drain_ms;
  Samples late_ms;  // how far behind its schedule each pipeline started
  Failures failures;
};

struct Phase {
  std::vector<ClientStats> clients;
  IngestStats ingest;
  std::vector<std::unique_ptr<Tracer>> tracers;
  int64_t protocol_errors = 0;
  int64_t overloaded = 0;

  /// Per window: the tail percentile and the queries per second.
  void WindowStats(int64_t full_windows, Samples* tail, Samples* qps) const {
    for (int64_t w = 0; w < full_windows; ++w) {
      Samples window;
      for (const ClientStats& c : clients)
        if (w < static_cast<int64_t>(c.windows.size()))
          window.Append(c.windows[static_cast<size_t>(w)]);
      if (window.empty()) continue;
      tail->Add(window.TailPercentile().value);
      qps->Add(static_cast<double>(window.count()) * 1e9 / kWindowNs);
    }
  }

  QueryAgg Queries() const {
    QueryAgg all;
    for (const ClientStats& c : clients) {
      all.fwd_ms.Append(c.queries.fwd_ms);
      all.bwd_ms.Append(c.queries.bwd_ms);
    }
    return all;
  }
};

void CountError(const dslog::Status& s, Failures* f) {
  if (s.code() == dslog::StatusCode::kUnavailable)
    ++f->shed;
  else
    ++f->errors;
}

/// Reads one counter out of the ServerStats JSON (0 when absent).
int64_t StatsCounter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  size_t at = json.find(key);
  return at == std::string::npos
             ? 0
             : std::strtoll(json.c_str() + at + key.size(), nullptr, 10);
}

double ProfileWallMs(const std::string& json) {
  const std::string key = "\"wall_ms\": ";
  size_t at = json.find(key);
  return at == std::string::npos
             ? 0.0
             : std::strtod(json.c_str() + at + key.size(), nullptr);
}

/// Closed-loop wire queries until `deadline_ns`.
void QueryClient(int port, int index, const std::vector<PathQuery>& queries,
                 const std::vector<BoxTable>& expected, int64_t start_ns,
                 int64_t deadline_ns, Tracer* tracer, ClientStats* stats) {
  auto client = DslogClient::Connect("127.0.0.1", port);
  ++stats->failures.attempted;
  if (!client.ok()) {
    CountError(client.status(), &stats->failures);
    return;
  }
  dslog::Status opened = client.value()->OpenStore(kTenant, /*create=*/false);
  if (!opened.ok()) {
    CountError(opened, &stats->failures);
    return;
  }
  dslog::QueryOptions options;
  options.profile = tracer->enabled();
  std::string profile_json;
  for (size_t i = static_cast<size_t>(index) * queries.size() / kQueryClients;
       NowNs() < deadline_ns; ++i) {
    const size_t qi = i % queries.size();
    const PathQuery& q = queries[qi];
    const int64_t request = static_cast<int64_t>(i) * kQueryClients + index;
    const int64_t t0 = NowNs();
    dslog::Result<BoxTable> r = [&] {
      ScopedSpan span(tracer, "net.query", request);
      auto result = client.value()->Query(
          q.path, q.query, options, options.profile ? &profile_json : nullptr);
      // The server-side query time, from its QueryProfile, is the query
      // layer's share of the round trip; the rest is net.
      if (options.profile && result.ok())
        tracer->Add("query.prov_query", span.index(), t0,
                    t0 + static_cast<int64_t>(ProfileWallMs(profile_json) * 1e6),
                    request);
      return result;
    }();
    const double ms = MsSince(t0);
    (q.forward ? stats->queries.fwd_ms : stats->queries.bwd_ms).Add(ms);
    const size_t window = static_cast<size_t>((t0 - start_ns) / kWindowNs);
    if (window >= stats->windows.size()) stats->windows.resize(window + 1);
    stats->windows[window].Add(ms);
    if (stats->per_query.size() < queries.size())
      stats->per_query.resize(queries.size());
    stats->per_query[qi].Add(ms);
    ++stats->failures.attempted;
    if (!r.ok()) {
      CountError(r.status(), &stats->failures);
      continue;
    }
    if (!SameBoxes(r.value(), expected[qi])) ++stats->failures.mismatches;
    if (tracer->enabled()) {
      dslog::net::QueryResponse resp;
      resp.result = std::move(r).ValueOrDie();
      resp.profile_json = profile_json;
      stats->response_bytes += static_cast<int64_t>(resp.Encode().size());
      ++stats->responses;
    }
  }
  (void)client.value()->Bye();
}

/// Ships the captured pipelines at kIngestOpsPerSecond (op k is due at
/// start + k / rate), defining fresh array names per shipment and draining
/// every kDrainEvery ops. Busy time is the time inside client calls.
void IngestClient(int port, std::vector<CapturedPipeline>* pipelines,
                  int64_t deadline_ns, int64_t cycle_base, Tracer* tracer,
                  IngestStats* stats) {
  auto client = DslogClient::Connect("127.0.0.1", port);
  ++stats->failures.attempted;
  if (!client.ok()) {
    CountError(client.status(), &stats->failures);
    return;
  }
  DslogClient* c = client.value().get();
  dslog::Status opened = c->OpenStore(kTenant, /*create=*/false);
  if (!opened.ok()) {
    CountError(opened, &stats->failures);
    return;
  }
  dslog::net::IngestHandle handle(c);
  int64_t staged_ops = 0, staged_rows = 0;
  double batch_busy = 0, batch_apply = 0, batch_capture = 0;
  auto busy = [&](double ms) {
    stats->busy_ms += ms;
    batch_busy += ms;
  };
  auto drain = [&] {
    const int64_t t0 = NowNs();
    auto outcomes = [&] {
      ScopedSpan span(tracer, "net.drain");
      return handle.Drain();
    }();
    const double ms = MsSince(t0);
    stats->drain_ms.Add(ms);
    busy(ms);
    ++stats->failures.attempted;
    if (!outcomes.ok())
      CountError(outcomes.status(), &stats->failures);
    else if (static_cast<int64_t>(outcomes.value().size()) != staged_ops)
      ++stats->failures.errors;
    else {
      stats->ops += staged_ops;
      stats->batch_rate.Add(static_cast<double>(staged_rows) /
                            (batch_busy / 1e3));
      stats->batch_overhead.Add(100.0 * (batch_capture + batch_busy) /
                                batch_apply);
    }
    staged_ops = staged_rows = 0;
    batch_busy = batch_apply = batch_capture = 0;
  };

  const int64_t start = NowNs();
  const double interval_ns = 1e9 / kIngestOpsPerSecond;
  int64_t shipped = 0;
  for (int64_t cycle = cycle_base; NowNs() < deadline_ns; ++cycle) {
    for (size_t p = 0; p < pipelines->size() && NowNs() < deadline_ns; ++p) {
      CapturedPipeline& pipe = (*pipelines)[p];
      // Fresh array names per shipment; the captured relations are reused.
      const std::string prefix =
          "w" + std::to_string(cycle) + "_" + std::to_string(p) + "_x";
      const int64_t due = start + static_cast<int64_t>(
                                      static_cast<double>(shipped) * interval_ns);
      if (due > NowNs())
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      stats->late_ms.Add(std::max(0.0, MsSince(due)));
      bool defined = true;
      for (size_t a = 0; a < pipe.shapes.size() && defined; ++a) {
        const int64_t t0 = NowNs();
        dslog::Status s = [&] {
          ScopedSpan span(tracer, "net.define_array");
          return c->DefineArray(prefix + std::to_string(a), pipe.shapes[a]);
        }();
        busy(MsSince(t0));
        ++stats->failures.attempted;
        if (!s.ok()) {
          CountError(s, &stats->failures);
          defined = false;
        }
      }
      if (!defined) continue;
      for (size_t k = 0; k < pipe.regs.size(); ++k) {
        dslog::OperationRegistration& reg = pipe.regs[k];
        reg.in_arrs = {prefix + std::to_string(k)};
        reg.out_arr = prefix + std::to_string(k + 1);
        const int64_t t0 = NowNs();
        auto id = [&] {
          ScopedSpan span(tracer, "net.ingest_add");
          return handle.Add(reg);
        }();
        busy(MsSince(t0));
        ++shipped;
        ++stats->failures.attempted;
        if (!id.ok()) {
          CountError(id.status(), &stats->failures);
          continue;
        }
        ++staged_ops;
        batch_apply += pipe.apply_ms[k];
        batch_capture += pipe.capture_ms[k];
        staged_rows += reg.captured[0].num_rows();
        if (staged_ops == kDrainEvery) drain();
      }
    }
  }
  if (staged_ops > 0) drain();
  (void)c->Bye();
}

/// Runs the query clients, and the ingest client when `pipelines` is
/// set, for `seconds`.
Phase RunPhase(int port, const std::vector<PathQuery>& queries,
               const std::vector<BoxTable>& expected,
               std::vector<CapturedPipeline>* pipelines, double seconds,
               int64_t cycle_base, bool traced) {
  Phase phase;
  phase.clients.resize(kQueryClients);
  for (int i = 0; i <= kQueryClients; ++i)
    phase.tracers.push_back(std::make_unique<Tracer>(traced));

  std::string before_json;
  {
    auto stats_client = DslogClient::Connect("127.0.0.1", port);
    if (stats_client.ok()) {
      auto s = stats_client.value()->ServerStats();
      if (s.ok()) before_json = s.value();
    }
  }
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int i = 0; i < kQueryClients; ++i)
    threads.emplace_back(QueryClient, port, i, std::cref(queries),
                         std::cref(expected), start, deadline,
                         phase.tracers[static_cast<size_t>(i)].get(),
                         &phase.clients[static_cast<size_t>(i)]);
  if (pipelines != nullptr)
    threads.emplace_back(IngestClient, port, pipelines, deadline, cycle_base,
                         phase.tracers.back().get(), &phase.ingest);
  for (std::thread& t : threads) t.join();

  auto stats_client = DslogClient::Connect("127.0.0.1", port);
  dslog::Result<std::string> after = stats_client.ok()
                                         ? stats_client.value()->ServerStats()
                                         : dslog::Result<std::string>(
                                               stats_client.status());
  if (!after.ok()) {
    ++phase.ingest.failures.attempted;
    ++phase.ingest.failures.errors;
  } else {
    phase.protocol_errors =
        StatsCounter(after.value(), "dslog.server.protocol_errors") -
        StatsCounter(before_json, "dslog.server.protocol_errors");
    phase.overloaded = StatsCounter(after.value(), "dslog.server.overloaded") -
                       StatsCounter(before_json, "dslog.server.overloaded");
  }
  return phase;
}

Failures PhaseFailures(const Phase& p) {
  Failures f = p.ingest.failures;
  for (const ClientStats& c : p.clients) f.Add(c.failures);
  f.protocol_errors += p.protocol_errors;
  return f;
}

/// Pins the calling thread, and so every thread it starts afterwards (the
/// server's reactor and worker, the clients), to the last CPU it may use,
/// and restores the previous mask when destroyed. Spread over CPUs, each
/// loopback round trip waits on cross-CPU wake-ups whose latency swings
/// with the load of other tenants of a shared host; on one CPU, wire
/// latency and qps repeat far better.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace

void RunWireLeg(const RunArgs& args, const std::string& path,
                const std::vector<PathQuery>& queries,
                const std::vector<BoxTable>& expected, double seconds,
                WorkloadResult* out, LayerValues* layers,
                std::vector<std::unique_ptr<Tracer>>* traced_tracers) {
  PinToOneCpu pin;
  auto fail = [&](const dslog::Status& s) {
    out->report.push_back("wire leg set-up failed: " + s.ToString());
    ++out->failures.attempted;
    ++out->failures.errors;
  };

  std::vector<PipelineTemplate> templates =
      MakeRegistryTemplates(3, 4, 1024, MixSeed(kTemplateSeed, 20),
                            /*with_sort=*/false);
  for (PipelineTemplate& t : MakeExplainTemplates(16))
    templates.push_back(std::move(t));
  std::vector<CapturedPipeline> pipelines;
  for (size_t t = 0; t < templates.size(); ++t)
    for (int v = 0; v < 2; ++v) {
      auto p = CapturePipeline(templates[t], v, "w",
                               MixSeed(args.seed, 21, t, static_cast<uint64_t>(v)));
      if (!p.ok()) return fail(p.status());
      pipelines.push_back(std::move(p).ValueOrDie());
    }
  auto log = DSLog::OpenInSitu(path);
  if (!log.ok()) return fail(log.status());
  dslog::net::ServerOptions options;
  options.worker_threads = kWorkerThreads;
  DslogServer server(options);
  dslog::Status started = server.Mount(kTenant, std::move(log).ValueOrDie());
  if (started.ok()) started = server.Start();
  if (!started.ok()) return fail(started);
  const DSLog& local = *server.store(kTenant);

  // The lowest-selectivity queries of the list, where the wire is the
  // largest share of a request. In-process ProvQuery on the mounted store
  // must reproduce the oracle-checked answers; wire answers must then be
  // bit-identical to them.
  std::vector<PathQuery> wire_queries;
  std::vector<BoxTable> wire_expected;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].selectivity != kWireSelectivity) continue;
    auto r = local.ProvQuery(queries[i].path, queries[i].query);
    ++out->failures.attempted;
    if (!r.ok())
      ++out->failures.errors;
    else if (!SameBoxes(r.value(), expected[i]))
      ++out->failures.mismatches;
    wire_queries.push_back(queries[i]);
    wire_expected.push_back(expected[i]);
  }

  // net.overhead_ms = wire p50 - in-process p50 of the same list, both
  // without the ingest load, on the same CPU, one after the other.
  const double quiet_seconds = seconds * kQuietShare;
  const double mixed_seconds = seconds - quiet_seconds;
  Phase quiet = RunPhase(server.port(), wire_queries, wire_expected, nullptr,
                         quiet_seconds, 0, /*traced=*/false);
  out->failures.Add(PhaseFailures(quiet));
  Tracer off(false);
  QueryAgg local_agg;
  std::vector<Samples> local_per_query(wire_queries.size());
  const int64_t local_end = NowNs() + static_cast<int64_t>(quiet_seconds * 1e9);
  for (size_t n = 0; NowNs() < local_end; ++n) {
    const size_t i = n % wire_queries.size();
    const PathQuery& q = wire_queries[i];
    ++out->failures.attempted;
    const int64_t t0 = NowNs();
    auto r = TimedQuery(local, q.path, q.query, q.forward, &off, &local_agg,
                        static_cast<int64_t>(n));
    local_per_query[i].Add(MsSince(t0));
    if (!r.ok())
      ++out->failures.errors;
    else if (!SameBoxes(r.value(), wire_expected[i]))
      ++out->failures.mismatches;
  }

  Phase phase = RunPhase(server.port(), wire_queries, wire_expected,
                         &pipelines, mixed_seconds, 0, /*traced=*/false);
  out->failures.Add(PhaseFailures(phase));
  Phase traced;
  if (args.trace) {
    traced = RunPhase(server.port(), wire_queries, wire_expected, &pipelines,
                      mixed_seconds, 1 << 20, /*traced=*/true);
    out->failures.Add(PhaseFailures(traced));
  }
  server.Stop();

  // Rates and tails are medians over drained batches and kWindowNs
  // windows: single stalls of the shared host otherwise dominate them.
  Samples all = phase.Queries().All();
  Samples window_tail, window_qps;
  phase.WindowStats(std::max<int64_t>(1, static_cast<int64_t>(
                                             mixed_seconds * 1e9 / kWindowNs)),
                    &window_tail, &window_qps);
  const IngestStats& in = phase.ingest;
  (*layers)["wire_qps"] = window_qps.Median();
  (*layers)["wire_p50_ms"] = all.Median();
  (*layers)["wire_p99_ms"] = window_tail.Median();
  (*layers)["wire_ingest_ops_per_s"] =
      in.busy_ms > 0 ? static_cast<double>(in.ops) / (in.busy_ms / 1e3) : 0.0;
  (*layers)["wire_ingest_rows_per_s"] = in.batch_rate.Median();
  (*layers)["wire_lineage_overhead_pct"] = in.batch_overhead.Median();
  // Per query of the list, wire p50 minus in-process p50; the median of
  // those. (The p50 of the whole list falls between its workflows'
  // latency groups and jumped with the mix of a window.)
  Samples overhead;
  for (const ClientStats& c : quiet.clients)
    for (size_t i = 0; i < c.per_query.size(); ++i)
      if (!c.per_query[i].empty() && !local_per_query[i].empty())
        overhead.Add(c.per_query[i].Median() - local_per_query[i].Median());
  (*layers)["net.overhead_ms"] = overhead.Median();
  (*layers)["net.drain_ms"] = in.drain_ms.Median();
  int64_t bytes = 0, responses = 0;
  for (const ClientStats& c : traced.clients) {
    bytes += c.response_bytes;
    responses += c.responses;
  }
  if (responses > 0)
    (*layers)["net.response_bytes"] =
        static_cast<double>(bytes) / static_cast<double>(responses);
  for (auto& t : traced.tracers) traced_tracers->push_back(std::move(t));

  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "wire leg (%.1f s query-only, then %.1f s mixed, one CPU): "
                "query clients %d (closed loop), ingest clients 1 (paced at "
                "%.0f ops/s, median lateness %.3f ms), server worker_threads "
                "%d, drain every %d ops; %lld mixed-window wire queries, %lld "
                "ops ingested in %lld batches",
                quiet_seconds, mixed_seconds, kQueryClients, kIngestOpsPerSecond,
                in.late_ms.Median(), kWorkerThreads, kDrainEvery,
                static_cast<long long>(all.count()),
                static_cast<long long>(in.ops),
                static_cast<long long>(in.batch_rate.count()));
  out->report.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "  wire_qps %.6g  wire_p50_ms %.6g  wire_p99_ms %.6g  "
                "wire_ingest_ops_per_s %.6g  wire_ingest_rows_per_s %.6g  "
                "net.overhead_ms %.6g",
                (*layers)["wire_qps"], (*layers)["wire_p50_ms"],
                (*layers)["wire_p99_ms"], (*layers)["wire_ingest_ops_per_s"],
                (*layers)["wire_ingest_rows_per_s"],
                (*layers)["net.overhead_ms"]);
  out->report.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "  server counters: dslog.server.overloaded %+lld, "
                "dslog.server.protocol_errors %+lld",
                static_cast<long long>(quiet.overloaded + phase.overloaded +
                                       traced.overloaded),
                static_cast<long long>(quiet.protocol_errors +
                                       phase.protocol_errors +
                                       traced.protocol_errors));
  out->report.push_back(buf);
}

}  // namespace e2e
