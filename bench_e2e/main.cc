// bench_e2e: the layer-attributed end-to-end benchmark of DSLog.
//
//   bench_e2e --workload <ingest_pipelines|query_fig8>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints a human-readable report, then as the last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any answer disagrees with the oracle or any operation failed.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_e2e --workload "
               "<ingest_pipelines|query_fig8> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               msg);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  ::mkdir(args.work_dir.c_str(), 0755);

  e2e::WorkloadResult result;
  if (args.workload == "ingest_pipelines") {
    result = e2e::RunIngestPipelines(args);
  } else if (args.workload == "query_fig8") {
    result = e2e::RunQueryFig8(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  std::printf("end-to-end metrics:\n");
  for (const e2e::Metric& m : result.end_to_end)
    std::printf("%s\n", e2e::FormatMetric(m).c_str());
  if (args.trace) {
    std::printf("per-layer metrics:\n");
    for (const e2e::Metric& m : result.per_layer)
      std::printf("%s\n", e2e::FormatMetric(m).c_str());
  }

  // A metric that could not be measured reads 0; that is a failed run.
  bool measured = true;
  for (const e2e::Metric& m : result.end_to_end)
    if (!(m.value > 0) || !std::isfinite(m.value)) {
      std::fprintf(stderr, "error: metric %s was not measured\n",
                   m.name.c_str());
      measured = false;
    }
  const e2e::Failures& f = result.failures;
  const bool correct = f.mismatches == 0 && f.failed() == 0 && measured;

  const std::vector<e2e::Metric>& metrics =
      args.trace ? result.per_layer : result.end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, f.attempted));
  json += ", \"failed\": " + std::to_string(f.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
