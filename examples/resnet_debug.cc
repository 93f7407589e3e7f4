// Model-debugging scenario (the Fig 8C workflow): trace activations through
// the seven steps of a ResNet block. Both query directions run in situ on
// the one stored backward representation (paper §IV.C): forward hops probe
// each table's cached forward index, backward hops its backward index, and
// each index is built once, on the first hop that needs it. The example
// reports first (index-building) and repeat latency for each direction.

#include <cstdio>

#include "common/strings.h"
#include "common/timer.h"
#include "storage/dslog.h"
#include "workloads/workflows.h"

using namespace dslog;

namespace {

DSLog BuildCatalog(const Workflow& wf) {
  DSLog log;
  for (size_t i = 0; i < wf.array_names.size(); ++i)
    DSLOG_CHECK(log.DefineArray(wf.array_names[i], wf.shapes[i]).ok());
  for (size_t i = 0; i < wf.steps.size(); ++i) {
    OperationRegistration reg;
    reg.op_name = wf.steps[i].op_name;
    reg.in_arrs = {wf.array_names[i]};
    reg.out_arr = wf.array_names[i + 1];
    reg.captured = {wf.steps[i].relation};
    DSLOG_CHECK(log.RegisterOperation(std::move(reg)).ok());
  }
  return log;
}

// Runs `query` along `path` once cold (the hops build their indexes) and
// then `reps` times warm; prints both latencies and returns the result.
BoxTable TimeQuery(const DSLog& log, const std::vector<std::string>& path,
                   const BoxTable& query, const char* label) {
  constexpr int reps = 20;
  WallTimer cold;
  BoxTable result = log.ProvQuery(path, query).ValueOrDie();
  const double cold_ms = cold.ElapsedMillis();
  WallTimer warm;
  for (int i = 0; i < reps; ++i)
    DSLOG_CHECK(log.ProvQuery(path, query).ValueOrDie().NumDistinctCells() ==
                result.NumDistinctCells());
  std::printf("  %s hops: first %.3f ms, repeat %.3f ms\n", label, cold_ms,
              warm.ElapsedMillis() / reps);
  return result;
}

}  // namespace

int main() {
  auto wfr = BuildResNetWorkflow(64, 64, /*seed=*/21);
  DSLOG_CHECK(wfr.ok()) << wfr.status().ToString();
  const Workflow& wf = wfr.value();
  for (size_t i = 0; i < wf.steps.size(); ++i)
    std::printf("step %zu: %-10s lineage rows=%lld\n", i + 1,
                wf.steps[i].op_name.c_str(),
                static_cast<long long>(wf.steps[i].relation.num_rows()));

  DSLog log = BuildCatalog(wf);
  std::printf("\nstored lineage (backward rep only): %s\n",
              HumanBytes(log.StorageFootprintBytes()).c_str());

  // Forward query: receptive-field expansion of one input pixel through
  // both 3x3 convolutions (the "which activations did this pixel touch"
  // debugging question).
  std::vector<std::string> fwd_path(wf.array_names.begin(),
                                    wf.array_names.end());
  std::printf("\nforward query pixel (32,32) -> final activations:\n");
  BoxTable sinks =
      TimeQuery(log, fwd_path, BoxTable::FromCells(2, {32, 32}), "forward");
  std::printf("  receptive field: %lld cells (expected 5x5 = 25)\n",
              static_cast<long long>(sinks.NumDistinctCells()));

  // Backward query: which input pixels can influence a border activation?
  std::vector<std::string> bwd_path(wf.array_names.rbegin(),
                                    wf.array_names.rend());
  std::printf("\nbackward query activation (0,0) -> input pixels:\n");
  BoxTable sources =
      TimeQuery(log, bwd_path, BoxTable::FromCells(2, {0, 0}), "backward");
  std::printf("  %lld source cells (corner receptive field: 3x3 = 9)\n",
              static_cast<long long>(sources.NumDistinctCells()));
  return 0;
}
