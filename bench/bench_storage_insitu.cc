// Cold-open time-to-first-result: in-situ LogStore queries versus a
// full-decode load of the same store, across both segment layouts.
// Registers the three Fig-8 workflows (image, relational, ResNet) plus a
// population of Fig-9 random numpy workflows in one catalog (a serving
// catalog holds far more lineage than any one query touches), persists it
// twice — a ProvRC-GZip LogStore and a columnar LogStore — then measures,
// per Fig-8 workflow, how long a cold process takes to answer its first
// backward full-path query. The full-decode leg opens the gzip store and
// decodes every segment (LogStore::Table) before the query, the restore
// step in-situ querying avoids; in-situ gzip decodes only the path's
// segments; in-situ columnar borrows them zero-copy from the mapping
// (bytes_decompressed and rows_materialized both 0). Emits the
// machine-readable BENCH_storage.json baseline (override with
// `--json <path>`).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "query/box.h"
#include "storage/dslog.h"

using namespace dslog;
using namespace dslog::bench;

namespace {

struct WorkflowPath {
  std::string name;
  std::vector<std::string> backward_path;  // last array -> first array
  BoxTable query;                          // one box over the last array
};

void RegisterWorkflow(const Workflow& wf, DSLog* log, WorkflowPath* out) {
  std::vector<std::string> names;
  for (size_t i = 0; i < wf.array_names.size(); ++i) {
    names.push_back(wf.name + "_" + std::to_string(i));
    Status st = log->DefineArray(names.back(), wf.shapes[i]);
    DSLOG_CHECK(st.ok()) << st.ToString();
  }
  for (size_t s = 0; s < wf.steps.size(); ++s) {
    OperationRegistration reg;
    reg.op_name = wf.steps[s].op_name;
    reg.in_arrs = {names[s]};
    reg.out_arr = names[s + 1];
    reg.captured.push_back(wf.steps[s].relation);
    reg.reuse = false;
    auto outcome = log->RegisterOperation(std::move(reg));
    DSLOG_CHECK(outcome.ok()) << outcome.status().ToString();
  }
  out->name = wf.name;
  out->backward_path.assign(names.rbegin(), names.rend());
  std::vector<Interval> box;
  for (int64_t d : wf.shapes.back())
    box.push_back({0, std::max<int64_t>(0, d / 8)});
  out->query = BoxTable::FromBox(std::move(box));
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("storage_insitu", argc, argv, "BENCH_storage.json");
  int reps = 5;
  int extra_workflows = 32;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--extra-workflows") == 0)
      extra_workflows = std::atoi(argv[i + 1]);
  }

  std::printf(
      "=== Cold-open first-query latency: in situ vs full decode ===\n\n");

  DSLog log;
  std::vector<WorkflowPath> paths(3);
  {
    auto image = BuildImageWorkflow(96, 96, 81);
    DSLOG_CHECK(image.ok()) << image.status().ToString();
    RegisterWorkflow(image.value(), &log, &paths[0]);
    auto relational = BuildRelationalWorkflow(20000, 12000, 82);
    DSLOG_CHECK(relational.ok()) << relational.status().ToString();
    RegisterWorkflow(relational.value(), &log, &paths[1]);
    auto resnet = BuildResNetWorkflow(40, 40, 83);
    DSLOG_CHECK(resnet.ok()) << resnet.status().ToString();
    RegisterWorkflow(resnet.value(), &log, &paths[2]);
    // The rest of the catalog: random numpy pipelines nobody queries here.
    // The full-decode load still decompresses all of them before the first
    // result.
    for (int i = 0; i < extra_workflows; ++i) {
      auto random = BuildRandomNumpyWorkflow(5, 30000, 9000 + i);
      DSLOG_CHECK(random.ok()) << random.status().ToString();
      Workflow wf = std::move(random).ValueOrDie();
      wf.name = "rand" + std::to_string(i);
      WorkflowPath unused;
      RegisterWorkflow(wf, &log, &unused);
    }
  }

  const std::string file_gzip = ScratchDir() + "/bench_storage_gzip.dsl";
  const std::string file_columnar =
      ScratchDir() + "/bench_storage_columnar.dsl";
  {
    Status st = log.SaveLogStore(file_gzip, SegmentLayout::kProvRcGzip);
    DSLOG_CHECK(st.ok()) << st.ToString();
    st = log.SaveLogStore(file_columnar);  // default layout = columnar
    DSLOG_CHECK(st.ok()) << st.ToString();
  }
  std::printf("catalog: 3 Fig-8 + %d random workflows, %lld segments\n"
              "on disk: gzip store %lld bytes | columnar store %lld bytes\n\n",
              extra_workflows,
              static_cast<long long>(
                  DSLog::OpenInSitu(file_gzip).ValueOrDie().log_store()
                      ->stats().segment_count),
              static_cast<long long>(
                  DSLog::OpenInSitu(file_gzip).ValueOrDie().log_store()
                      ->file_size()),
              static_cast<long long>(
                  DSLog::OpenInSitu(file_columnar).ValueOrDie().log_store()
                      ->file_size()));

  std::printf("%-12s %11s %11s %11s %8s %8s %10s %10s %10s\n", "workflow",
              "full (s)", "gzip (s)", "col (s)", "gz spd", "col spd",
              "full MB", "gzip MB", "col rows");
  PrintRule(100);

  for (const WorkflowPath& wp : paths) {
    double full_s = 0.0, gzip_s = 0.0, col_s = 0.0;
    int64_t full_bytes = 0, gzip_bytes = 0, touched = 0, total_segs = 0;
    int64_t col_bytes = 0, col_rows_materialized = 0, col_borrowed = 0;
    for (int r = 0; r < reps; ++r) {
      {
        // Full decode: every segment is materialized before the query can
        // run, as a restore-then-query load would.
        WallTimer timer;
        auto cold = DSLog::OpenInSitu(file_gzip);
        DSLOG_CHECK(cold.ok()) << cold.status().ToString();
        const LogStore& store = *cold.value().log_store();
        for (size_t id = 0; id < store.segment_count(); ++id) {
          auto table = store.Table(id);
          DSLOG_CHECK(table.ok()) << table.status().ToString();
        }
        auto got = cold.value().ProvQuery(wp.backward_path, wp.query);
        DSLOG_CHECK(got.ok()) << got.status().ToString();
        full_s += timer.ElapsedSeconds();
        full_bytes = store.stats().bytes_decompressed;
      }
      {
        WallTimer timer;
        auto cold = DSLog::OpenInSitu(file_gzip);
        DSLOG_CHECK(cold.ok()) << cold.status().ToString();
        auto got = cold.value().ProvQuery(wp.backward_path, wp.query);
        DSLOG_CHECK(got.ok()) << got.status().ToString();
        gzip_s += timer.ElapsedSeconds();
        LogStoreStats stats = cold.value().log_store()->stats();
        gzip_bytes = stats.bytes_decompressed;
        touched = stats.segments_touched;
        total_segs = stats.segment_count;
      }
      {
        WallTimer timer;
        auto cold = DSLog::OpenInSitu(file_columnar);
        DSLOG_CHECK(cold.ok()) << cold.status().ToString();
        auto got = cold.value().ProvQuery(wp.backward_path, wp.query);
        DSLOG_CHECK(got.ok()) << got.status().ToString();
        col_s += timer.ElapsedSeconds();
        LogStoreStats stats = cold.value().log_store()->stats();
        col_bytes = stats.bytes_decompressed;
        col_rows_materialized = stats.rows_materialized;
        col_borrowed = stats.segments_borrowed;
      }
    }
    full_s /= reps;
    gzip_s /= reps;
    col_s /= reps;
    const double gzip_speedup = gzip_s > 0 ? full_s / gzip_s : 0.0;
    const double col_speedup = col_s > 0 ? full_s / col_s : 0.0;
    std::printf("%-12s %11.5f %11.5f %11.5f %7.1fx %7.1fx %10.3f %10.3f "
                "%10lld\n",
                wp.name.c_str(), full_s, gzip_s, col_s, gzip_speedup,
                col_speedup, static_cast<double>(full_bytes) / 1e6,
                static_cast<double>(gzip_bytes) / 1e6,
                static_cast<long long>(col_rows_materialized));
    // The v2_* keys name the columnar layout; they keep the historical
    // record names so the committed trajectory stays comparable.
    json.Add()
        .Str("workflow", wp.name)
        .Num("reps", reps)
        .Num("full_decode_open_query_s", full_s)
        .Num("insitu_open_query_s", gzip_s)
        .Num("insitu_v2_open_query_s", col_s)
        .Num("speedup", gzip_speedup)
        .Num("v2_speedup", col_speedup)
        .Num("full_decode_bytes_decompressed", static_cast<double>(full_bytes))
        .Num("insitu_bytes_decompressed", static_cast<double>(gzip_bytes))
        .Num("v2_bytes_decompressed", static_cast<double>(col_bytes))
        .Num("v2_rows_materialized", static_cast<double>(col_rows_materialized))
        .Num("v2_segments_borrowed", static_cast<double>(col_borrowed))
        .Num("segments_touched", static_cast<double>(touched))
        .Num("segment_count", static_cast<double>(total_segs));
  }

  std::printf(
      "\nExpected shape: in-situ OpenInSitu answers the first query sooner\n"
      "than a full-decode load of the same store, and decompresses only the\n"
      "path's segments. The columnar store additionally decompresses zero\n"
      "bytes and materializes zero rows: its segments are scanned in place.\n");
  return 0;
}
