// System-level tests: relational capture ops, explainable-AI capture, the
// DSLog storage manager (registration, path queries, reuse prediction,
// persistence), and the workload generators — the full
// capture -> compress -> store -> query integration.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "array/ndarray.h"
#include "array/op_registry.h"
#include "common/io.h"
#include "common/random.h"
#include "explain/explain.h"
#include "provrc/provrc.h"
#include "query/query_engine.h"
#include "query/theta_join.h"
#include "relational/relational_ops.h"
#include "storage/dslog.h"
#include "storage/signatures.h"
#include "test_util.h"
#include "workloads/kaggle_sim.h"
#include "workloads/workflows.h"

namespace dslog {
namespace {

std::set<std::vector<int64_t>> ToTupleSet(const std::vector<int64_t>& flat,
                                          int arity) {
  std::set<std::vector<int64_t>> out;
  for (size_t off = 0; off < flat.size(); off += static_cast<size_t>(arity))
    out.insert(std::vector<int64_t>(flat.begin() + static_cast<long>(off),
                                    flat.begin() + static_cast<long>(off) +
                                        arity));
  return out;
}

// -------------------------------------------------------------- relational --

TEST(RelationalOpsTest, InnerJoinMatchesAndLineage) {
  // A: ids {0,1,2}, B: ids {1,2,2,5}: matches (1,1), (2,2) twice.
  NDArray a = NDArray::FromValues({3, 2}, {0, 10, 1, 11, 2, 12});
  NDArray b = NDArray::FromValues({4, 2}, {1, 21, 2, 22, 2, 23, 5, 25});
  auto r = InnerJoin(a, b, 0, 0).ValueOrDie();
  EXPECT_EQ(r.output.shape()[0], 3);  // (1,1), (2,2), (2,2')
  EXPECT_EQ(r.output.shape()[1], 3);  // a's 2 cols + b's non-key col
  // Every output row's key must exist in both inputs.
  for (int64_t k = 0; k < r.output.shape()[0]; ++k) {
    double key = r.output[k * 3];
    EXPECT_TRUE(key == 1.0 || key == 2.0);
  }
  // Lineage: key column cells trace to B as well.
  EXPECT_GT(r.lineage[1].num_rows(), r.output.shape()[0]);
  EXPECT_EQ(r.lineage.size(), 2u);
}

TEST(RelationalOpsTest, InnerJoinSortedKeysProduceStructuredLineage) {
  // Sorted keys on both sides give near-diagonal match lineage that ProvRC
  // compresses well (Table VII "Inner Join" behaviour).
  int64_t n = 2000;
  NDArray a({n, 2});
  NDArray b({n, 2});
  for (int64_t i = 0; i < n; ++i) {
    a[i * 2] = static_cast<double>(i);
    a[i * 2 + 1] = static_cast<double>(i % 7);
    b[i * 2] = static_cast<double>(i);
    b[i * 2 + 1] = static_cast<double>(i % 5);
  }
  auto r = InnerJoin(a, b, 0, 0).ValueOrDie();
  CompressedTable t = ProvRcCompress(r.lineage[0]);
  EXPECT_LT(t.num_rows(), r.lineage[0].num_rows() / 100);
  EXPECT_TRUE(t.Decompress().EqualAsSet(r.lineage[0]));
}

TEST(RelationalOpsTest, GroupByAllToAllWithinGroups) {
  NDArray t = NDArray::FromValues({6, 2}, {1, 10, 0, 20, 1, 30,
                                           0, 40, 1, 50, 0, 60});
  auto r = GroupByAggregate(t, 0, 1).ValueOrDie();
  ASSERT_EQ(r.output.shape()[0], 2);
  EXPECT_EQ(r.output[0], 0.0);
  EXPECT_EQ(r.output[1], 120.0);  // 20+40+60
  EXPECT_EQ(r.output[2], 1.0);
  EXPECT_EQ(r.output[3], 90.0);  // 10+30+50
  EXPECT_EQ(r.lineage[0].num_rows(), 12);  // 6 rows x 2 output cells
}

TEST(RelationalOpsTest, DropNaNColumnsKeepsClean) {
  NDArray t = NDArray::FromValues({2, 3}, {1, std::nan(""), 3, 4, 5, 6});
  auto r = DropNaNColumns(t).ValueOrDie();
  EXPECT_EQ(r.output.shape()[1], 2);
  EXPECT_EQ(r.output[0], 1.0);
  EXPECT_EQ(r.output[1], 3.0);
}

TEST(RelationalOpsTest, OneHotAppendsIndicators) {
  NDArray t = NDArray::FromValues({2, 1}, {0, 2});
  auto r = OneHotEncode(t, 0, 3).ValueOrDie();
  EXPECT_EQ(r.output.shape()[1], 4);
  EXPECT_EQ(r.output[1], 1.0);  // row 0 one-hot position 0
  EXPECT_EQ(r.output[4 + 3], 1.0);  // row 1 one-hot position 2
}

TEST(RelationalOpsTest, AddColumnsAndConstant) {
  NDArray t = NDArray::FromValues({2, 2}, {1, 2, 3, 4});
  auto r1 = AddColumns(t, 0, 1).ValueOrDie();
  EXPECT_EQ(r1.output[2], 3.0);
  auto r2 = AddConstant(r1.output, 0, 10).ValueOrDie();
  EXPECT_EQ(r2.output[0], 11.0);
}

// ----------------------------------------------------------------- explain --

TEST(ExplainTest, DetectorFindsBrightBlob) {
  NDArray frame = NDArray::Zeros({32, 32});
  for (int64_t y = 10; y < 14; ++y)
    for (int64_t x = 20; x < 24; ++x) frame[y * 32 + x] = 200.0;
  TinyDetector det;
  NDArray d = det.Evaluate(frame).ValueOrDie();
  EXPECT_NEAR(d[0], 22, 2);  // x near the blob
  EXPECT_NEAR(d[1], 12, 2);  // y near the blob
  EXPECT_GT(d[4], 1.0);      // confident
}

TEST(ExplainTest, LimeLineageCoversDetectionCells) {
  NDArray frame = MakeSurveillanceFrame(48, 48, 5);
  TinyDetector det;
  Rng rng(6);
  LimeOptions opts;
  opts.num_samples = 64;
  LineageRelation rel = LimeCapture(frame, det, opts, &rng).ValueOrDie();
  EXPECT_GT(rel.num_rows(), 0);
  EXPECT_EQ(rel.out_ndim(), 1);
  EXPECT_EQ(rel.in_ndim(), 2);
  // Indices in bounds; lineage compresses to far fewer rows (segments are
  // rectangles).
  for (int64_t r = 0; r < rel.num_rows(); ++r) {
    EXPECT_LT(rel.Row(r)[0], 6);
    EXPECT_LT(rel.Row(r)[1], 48);
    EXPECT_LT(rel.Row(r)[2], 48);
  }
  CompressedTable t = ProvRcCompress(rel);
  EXPECT_LT(t.num_rows() * 20, rel.num_rows());
  EXPECT_TRUE(t.Decompress().EqualAsSet(rel));
}

TEST(ExplainTest, DRiseLineageThresholded) {
  NDArray frame = MakeSurveillanceFrame(40, 40, 7);
  TinyDetector det;
  Rng rng(8);
  DRiseOptions opts;
  opts.num_masks = 48;
  LineageRelation rel = DRiseCapture(frame, det, opts, &rng).ValueOrDie();
  EXPECT_GT(rel.num_rows(), 0);
  // Thresholding keeps well under the full bipartite size.
  EXPECT_LT(rel.num_rows(), 6 * 40 * 40);
  CompressedTable t = ProvRcCompress(rel);
  EXPECT_TRUE(t.Decompress().EqualAsSet(rel));
}

// ------------------------------------------------------------------ DSLog --

TEST(DSLogTest, DefineAndRegisterAndQuery) {
  DSLog log;
  ASSERT_TRUE(log.DefineArray("x", {16}).ok());
  ASSERT_TRUE(log.DefineArray("y", {16}).ok());
  ASSERT_TRUE(log.DefineArray("z", {1}).ok());
  EXPECT_FALSE(log.DefineArray("x", {2}).ok());  // duplicate

  Rng rng(9);
  NDArray x = NDArray::Random({16}, &rng);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  NDArray y = neg->Apply({&x}, OpArgs()).ValueOrDie();
  auto rel1 = neg->Capture({&x}, y, OpArgs()).ValueOrDie();
  const ArrayOp* sum = OpRegistry::Global().Find("sum");
  NDArray z = sum->Apply({&y}, OpArgs()).ValueOrDie();
  auto rel2 = sum->Capture({&y}, z, OpArgs()).ValueOrDie();

  OperationRegistration r1{"negative", {"x"}, "y", {rel1[0]}, OpArgs(), 1, true};
  OperationRegistration r2{"sum", {"y"}, "z", {rel2[0]}, OpArgs(), 2, true};
  ASSERT_TRUE(log.RegisterOperation(std::move(r1)).ok());
  ASSERT_TRUE(log.RegisterOperation(std::move(r2)).ok());

  // Forward x -> z.
  BoxTable q = BoxTable::FromCells(1, {3});
  auto fwd = log.ProvQuery({"x", "y", "z"}, q);
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  EXPECT_EQ(fwd.value().NumDistinctCells(), 1);  // the single sum cell
  // Backward z -> x: everything contributed.
  BoxTable qz = BoxTable::FromCells(1, {0});
  auto bwd = log.ProvQuery({"z", "y", "x"}, qz);
  ASSERT_TRUE(bwd.ok());
  EXPECT_EQ(bwd.value().NumDistinctCells(), 16);
  // Unknown path segment.
  EXPECT_FALSE(log.ProvQuery({"x", "nope"}, q).ok());
}

TEST(DSLogTest, DimSigReuseAfterOneVerification) {
  DSLog log;
  Rng rng(10);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  for (int call = 0; call < 3; ++call) {
    std::string x = test_util::Indexed("x", call);
    std::string y = test_util::Indexed("y", call);
    ASSERT_TRUE(log.DefineArray(x, {32}).ok());
    ASSERT_TRUE(log.DefineArray(y, {32}).ok());
    NDArray xv = NDArray::Random({32}, &rng);
    NDArray yv = neg->Apply({&xv}, OpArgs()).ValueOrDie();
    auto rels = neg->Capture({&xv}, yv, OpArgs()).ValueOrDie();
    OperationRegistration reg{"negative", {x},     y,
                              {rels[0]},  OpArgs(), xv.ContentHash(),
                              true};
    auto outcome = log.RegisterOperation(std::move(reg));
    ASSERT_TRUE(outcome.ok());
    if (call >= 1) {
      EXPECT_TRUE(outcome.value().dim_hit) << call;
    }
  }
  EXPECT_EQ(log.reuse_stats().dim_promotions, 1);
  EXPECT_GE(log.reuse_stats().gen_promotions, 0);
}

TEST(DSLogTest, ReuseServesLineageWithoutCapture) {
  DSLog log;
  Rng rng(11);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  // Two captured calls promote the dim_sig mapping.
  for (int call = 0; call < 2; ++call) {
    std::string x = test_util::Indexed("a", call);
    std::string y = test_util::Indexed("b", call);
    ASSERT_TRUE(log.DefineArray(x, {24}).ok());
    ASSERT_TRUE(log.DefineArray(y, {24}).ok());
    NDArray xv = NDArray::Random({24}, &rng);
    NDArray yv = neg->Apply({&xv}, OpArgs()).ValueOrDie();
    auto rels = neg->Capture({&xv}, yv, OpArgs()).ValueOrDie();
    OperationRegistration reg{"negative", {x}, y, {rels[0]}, OpArgs(),
                              xv.ContentHash(), true};
    ASSERT_TRUE(log.RegisterOperation(std::move(reg)).ok());
  }
  // Third call: no capture provided; lineage served from the index.
  ASSERT_TRUE(log.DefineArray("a2", {24}).ok());
  ASSERT_TRUE(log.DefineArray("b2", {24}).ok());
  OperationRegistration reg{"negative", {"a2"}, "b2", {}, OpArgs(), 0, true};
  auto outcome = log.RegisterOperation(std::move(reg));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome.value().dim_hit);
  // The served lineage answers queries correctly.
  auto fwd = log.ProvQuery({"a2", "b2"}, BoxTable::FromCells(1, {5}));
  ASSERT_TRUE(fwd.ok());
  auto cells = fwd.value().ExpandToCells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], 5);
}

TEST(DSLogTest, RegisterOperationErrorsAreTypedAndCommitNothing) {
  DSLog log;
  ASSERT_TRUE(log.DefineArray("x", {8}).ok());
  ASSERT_TRUE(log.DefineArray("y", {8}).ok());
  LineageRelation rel(1, 1);
  rel.set_shapes({8}, {8});
  for (int64_t i = 0; i < 8; ++i) {
    const int64_t tuple[2] = {i, i};
    rel.AddTuple(tuple);
  }
  const auto code = [&log](OperationRegistration reg) {
    return log.RegisterOperation(std::move(reg)).status().code();
  };
  EXPECT_EQ(code({"negative", {"x"}, "nope", {rel}, OpArgs(), 1, true}),
            StatusCode::kNotFound);
  EXPECT_EQ(code({"negative", {"nope"}, "y", {rel}, OpArgs(), 1, true}),
            StatusCode::kNotFound);
  EXPECT_EQ(code({"negative", {"x", "x"}, "y", {rel}, OpArgs(), 1, true}),
            StatusCode::kInvalidArgument);
  // No capture: reuse disabled is InvalidArgument, no promoted mapping
  // NotFound.
  EXPECT_EQ(code({"negative", {"x"}, "y", {}, OpArgs(), 0, false}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code({"negative", {"x"}, "y", {}, OpArgs(), 0, true}),
            StatusCode::kNotFound);
  EXPECT_EQ(log.FindEdge("x", "y"), nullptr);
  // Nor did the failed captured calls reach the predictor: the first valid
  // registration of the same content is no base hit.
  auto ok = log.RegisterOperation({"negative", {"x"}, "y", {rel}, OpArgs(), 1,
                                   true});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok.value().base_hit);
  EXPECT_FALSE(ok.value().dim_hit);
  EXPECT_EQ(log.reuse_stats().base_hits, 0);
  EXPECT_NE(log.FindEdge("x", "y"), nullptr);
}

TEST(DSLogTest, GenSigServesDifferentShape) {
  DSLog log;
  Rng rng(12);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  // Calls with two different shapes promote gen_sig.
  int64_t sizes[2] = {16, 28};
  for (int call = 0; call < 2; ++call) {
    std::string x = test_util::Indexed("g", call);
    std::string y = test_util::Indexed("h", call);
    ASSERT_TRUE(log.DefineArray(x, {sizes[call]}).ok());
    ASSERT_TRUE(log.DefineArray(y, {sizes[call]}).ok());
    NDArray xv = NDArray::Random({sizes[call]}, &rng);
    NDArray yv = neg->Apply({&xv}, OpArgs()).ValueOrDie();
    auto rels = neg->Capture({&xv}, yv, OpArgs()).ValueOrDie();
    OperationRegistration reg{"negative", {x}, y, {rels[0]}, OpArgs(),
                              xv.ContentHash(), true};
    ASSERT_TRUE(log.RegisterOperation(std::move(reg)).ok());
  }
  EXPECT_EQ(log.reuse_stats().gen_promotions, 1);
  // A third, previously-unseen shape is served without capture.
  ASSERT_TRUE(log.DefineArray("g2", {99}).ok());
  ASSERT_TRUE(log.DefineArray("h2", {99}).ok());
  OperationRegistration reg{"negative", {"g2"}, "h2", {}, OpArgs(), 0, true};
  auto outcome = log.RegisterOperation(std::move(reg));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto fwd = log.ProvQuery({"g2", "h2"}, BoxTable::FromCells(1, {98}));
  ASSERT_TRUE(fwd.ok());
  auto cells = fwd.value().ExpandToCells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], 98);
}

TEST(DSLogTest, CachedForwardIndexMatchesEphemeral) {
  // Forward ProvQuery hops probe each edge's cached forward index; they
  // must answer identically to a hop-by-hop chain of joins that build an
  // ephemeral index per call, and to the uncompressed ground truth.
  auto wfr = BuildRandomNumpyWorkflow(4, 400, 97);
  ASSERT_TRUE(wfr.ok());
  const Workflow& wf = wfr.value();
  DSLog log;
  for (size_t i = 0; i < wf.array_names.size(); ++i)
    ASSERT_TRUE(log.DefineArray(wf.array_names[i], wf.shapes[i]).ok());
  for (size_t i = 0; i < wf.steps.size(); ++i) {
    OperationRegistration reg;
    reg.op_name = wf.steps[i].op_name;
    reg.in_arrs = {wf.array_names[i]};
    reg.out_arr = wf.array_names[i + 1];
    reg.captured = {wf.steps[i].relation};
    ASSERT_TRUE(log.RegisterOperation(std::move(reg)).ok());
  }
  std::vector<std::string> path(wf.array_names.begin(), wf.array_names.end());
  std::vector<RelationHop> rhops;
  for (const auto& step : wf.steps) rhops.push_back({&step.relation, true});
  const int arity = static_cast<int>(wf.shapes.back().size());
  for (int64_t cell : {int64_t{0}, int64_t{17}, int64_t{399}}) {
    BoxTable q = BoxTable::FromCells(1, {cell});
    auto cached = log.ProvQuery(path, q);
    ASSERT_TRUE(cached.ok());
    BoxTable ephemeral = q;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const CompressedTable* table = log.FindEdge(path[i], path[i + 1]);
      ASSERT_NE(table, nullptr);
      ephemeral = ForwardThetaJoin(ephemeral, table->view(), nullptr, 1,
                                   /*merge_result=*/true);
    }
    const auto want = ToTupleSet(UncompressedQuery(rhops, {cell}), arity);
    EXPECT_EQ(ToTupleSet(cached.value().ExpandToCells(), arity), want);
    EXPECT_EQ(ToTupleSet(ephemeral.ExpandToCells(), arity), want);
  }
}

TEST(DSLogTest, SaveCrashSimulationLeavesPreviousCatalogLoadable) {
  // Torn-write regression: SaveLogStore commits through temp + rename, so
  // a crash before the rename leaves the previous file at the path fully
  // openable, with the previous catalog's answers.
  const std::string path = ScratchDir() + "/dslog_crash_sim.dsl";
  Rng rng(21);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  NDArray xv = NDArray::Random({8}, &rng);
  NDArray yv = neg->Apply({&xv}, OpArgs()).ValueOrDie();
  auto xy = neg->Capture({&xv}, yv, OpArgs()).ValueOrDie();

  DSLog a;
  ASSERT_TRUE(a.DefineArray("x", {8}).ok());
  ASSERT_TRUE(a.DefineArray("y", {8}).ok());
  OperationRegistration reg_a{"negative", {"x"}, "y", {xy[0]}, OpArgs(), 1,
                              true};
  ASSERT_TRUE(a.RegisterOperation(std::move(reg_a)).ok());
  ASSERT_TRUE(a.SaveLogStore(path).ok());

  // Catalog B replaces A's x -> y lineage with a reversal and adds an
  // a -> b edge, so a save that leaked into the file would show in the
  // lineage check below.
  LineageRelation reversal(1, 1);
  reversal.set_shapes({8}, {8});
  for (int64_t i = 0; i < 8; ++i) {
    const int64_t tuple[2] = {i, 7 - i};
    reversal.AddTuple(tuple);
  }
  DSLog b;
  for (const char* name : {"a", "b", "x", "y"})
    ASSERT_TRUE(b.DefineArray(name, {8}).ok());
  OperationRegistration reg_b1{"reverse", {"x"}, "y", {reversal}, OpArgs(), 2,
                               true};
  OperationRegistration reg_b2{"reverse", {"a"}, "b", {reversal}, OpArgs(), 3,
                               true};
  ASSERT_TRUE(b.RegisterOperation(std::move(reg_b1)).ok());
  ASSERT_TRUE(b.RegisterOperation(std::move(reg_b2)).ok());

  // Crash: B's whole file is written to its temp name, but the rename onto
  // `path` never happens.
  io_testing::SetAtomicWriteCrashHook([&path](const std::string& target) {
    return target == path ? Status::IOError("simulated crash: " + target)
                          : Status::OK();
  });
  EXPECT_FALSE(b.SaveLogStore(path).ok());
  io_testing::SetAtomicWriteCrashHook(nullptr);

  auto restored = DSLog::OpenInSitu(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_NE(restored.value().FindEdge("x", "y"), nullptr);
  EXPECT_EQ(restored.value().FindEdge("a", "b"), nullptr);  // still A
  EXPECT_FALSE(restored.value().HasArray("a"));
  auto q = restored.value().ProvQuery({"y", "x"}, BoxTable::FromCells(1, {3}));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().ExpandToCells(), (std::vector<int64_t>{3}));

  // A non-crashing save of B then commits the new catalog.
  ASSERT_TRUE(b.SaveLogStore(path).ok());
  auto saved = DSLog::OpenInSitu(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_NE(saved.value().FindEdge("a", "b"), nullptr);
  auto q2 = saved.value().ProvQuery({"y", "x"}, BoxTable::FromCells(1, {3}));
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2.value().ExpandToCells(), (std::vector<int64_t>{4}));
}

TEST(DSLogTest, ReusePredictorStateSurvivesSaveLoad) {
  // A promoted dim_sig mapping must cross SaveLogStore -> OpenInSitu with
  // the lineage, the counters intact, and keep serving capture-free
  // registrations on the opened catalog.
  const std::string path = ScratchDir() + "/dslog_reuse_persist.dsl";
  DSLog log;
  Rng rng(22);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  for (int call = 0; call < 2; ++call) {
    std::string x = test_util::Indexed("p", call);
    std::string y = test_util::Indexed("q", call);
    ASSERT_TRUE(log.DefineArray(x, {24}).ok());
    ASSERT_TRUE(log.DefineArray(y, {24}).ok());
    NDArray xv = NDArray::Random({24}, &rng);
    NDArray yv = neg->Apply({&xv}, OpArgs()).ValueOrDie();
    auto rels = neg->Capture({&xv}, yv, OpArgs()).ValueOrDie();
    OperationRegistration reg{"negative", {x}, y, {rels[0]}, OpArgs(),
                              xv.ContentHash(), true};
    ASSERT_TRUE(log.RegisterOperation(std::move(reg)).ok());
  }
  ASSERT_EQ(log.reuse_stats().dim_promotions, 1);
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DSLog& restored = opened.value();
  EXPECT_EQ(restored.reuse_stats().dim_promotions, 1);
  EXPECT_EQ(restored.reuse_stats().dim_hits, log.reuse_stats().dim_hits);
  auto bwd = restored.ProvQuery({"q0", "p0"}, BoxTable::FromCells(1, {4}));
  ASSERT_TRUE(bwd.ok()) << bwd.status().ToString();
  EXPECT_EQ(bwd.value().ExpandToCells(), (std::vector<int64_t>{4}));

  // Third call, no capture: served from the restored reuse index.
  ASSERT_TRUE(restored.DefineArray("p2", {24}).ok());
  ASSERT_TRUE(restored.DefineArray("q2", {24}).ok());
  OperationRegistration reg{"negative", {"p2"}, "q2", {}, OpArgs(), 0, true};
  auto outcome = restored.RegisterOperation(std::move(reg));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome.value().dim_hit);
  auto fwd = restored.ProvQuery({"p2", "q2"}, BoxTable::FromCells(1, {7}));
  ASSERT_TRUE(fwd.ok());
  EXPECT_EQ(fwd.value().ExpandToCells(), (std::vector<int64_t>{7}));
}

// ------------------------------------------------ predictor state restore --

namespace restore_test {

/// Identity lineage over `n` cells.
CompressedTable Identity(int64_t n) {
  LineageRelation rel(1, 1);
  rel.set_shapes({n}, {n});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t tuple[2] = {i, i};
    rel.AddTuple(tuple);
  }
  return ProvRcCompress(rel);
}

OpArgs ArgsK(int k) {
  OpArgs args;
  args.SetInt("k", k);
  return args;
}

/// Predictor with `ops` promoted dim signatures op0..op<ops-1> over 8
/// cells (each registered twice with identical lineage, the m = 1
/// promotion) plus one gen-promoted op "gen" (identity lineage confirmed
/// on a second, different shape).
ReusePredictor Promoted(int ops) {
  ReusePredictor p;
  const std::vector<CompressedTable> tables = {Identity(8)};
  for (int i = 0; i < ops; ++i)
    for (int rep = 0; rep < 2; ++rep)
      p.ProcessRegistration("op" + std::to_string(i), ArgsK(i), {{8}}, {8},
                            static_cast<uint64_t>(i), tables);
  p.ProcessRegistration("gen", ArgsK(0), {{8}}, {8}, 100, {Identity(8)});
  p.ProcessRegistration("gen", ArgsK(0), {{16}}, {16}, 101, {Identity(16)});
  return p;
}

/// Asserts `r` serves exactly Promoted(ops)'s mappings: every promoted
/// dim op at its shape, the gen op at a fresh shape, and clean misses for
/// absent ops and for dim ops at another shape.
void ExpectServesPromoted(const ReusePredictor& r, int ops) {
  for (int i = 0; i < ops; ++i) {
    const std::string op = "op" + std::to_string(i);
    auto predicted = r.Predict(op, ArgsK(i), {{8}}, {8});
    ASSERT_EQ(predicted.size(), 1u) << op;
    EXPECT_TRUE(predicted[0] == Identity(8)) << op;
    EXPECT_TRUE(r.Predict("nope" + std::to_string(i), ArgsK(i), {{8}}, {8})
                    .empty());
    EXPECT_TRUE(r.Predict(op, ArgsK(i), {{9}}, {9}).empty()) << op;
  }
  auto gen = r.Predict("gen", ArgsK(0), {{32}}, {32});
  ASSERT_EQ(gen.size(), 1u);
  EXPECT_TRUE(gen[0] == Identity(32));
  EXPECT_TRUE(r.Predict("gen", ArgsK(1), {{32}}, {32}).empty());
}

void ExpectSameStats(const ReuseStats& a, const ReuseStats& b) {
  EXPECT_EQ(a.base_hits, b.base_hits);
  EXPECT_EQ(a.dim_hits, b.dim_hits);
  EXPECT_EQ(a.gen_hits, b.gen_hits);
  EXPECT_EQ(a.dim_promotions, b.dim_promotions);
  EXPECT_EQ(a.gen_promotions, b.gen_promotions);
  EXPECT_EQ(a.dim_rejections, b.dim_rejections);
  EXPECT_EQ(a.gen_rejections, b.gen_rejections);
  EXPECT_EQ(a.mispredictions, b.mispredictions);
}

}  // namespace restore_test

TEST(ReusePredictorTest, RestoredStateServesPromotedLookups) {
  ReusePredictor p = restore_test::Promoted(4);
  ASSERT_EQ(p.stats().dim_promotions, 4);
  ASSERT_EQ(p.stats().gen_promotions, 1);
  restore_test::ExpectServesPromoted(p, 4);

  ReusePredictor r;
  ASSERT_TRUE(r.RestoreState(p.SerializeState()).ok());
  restore_test::ExpectServesPromoted(r, 4);
  restore_test::ExpectSameStats(r.stats(), p.stats());
  // The restored state serializes back to the same bytes.
  EXPECT_EQ(r.SerializeState(), p.SerializeState());
}

TEST(ReusePredictorTest, MispredictionAfterRestoreDemotesOnlyThatOp) {
  ReusePredictor r;
  ASSERT_TRUE(r.RestoreState(restore_test::Promoted(3).SerializeState()).ok());

  // Lineage that disagrees with op1's promoted mapping demotes op1
  // (promoted -> rejected); the other promoted ops keep serving.
  LineageRelation other(1, 1);
  other.set_shapes({8}, {8});
  const int64_t tuple[2] = {0, 7};
  other.AddTuple(tuple);
  r.ProcessRegistration("op1", restore_test::ArgsK(1), {{8}}, {8}, 99,
                        {ProvRcCompress(other)});
  EXPECT_EQ(r.stats().mispredictions, 1);
  EXPECT_TRUE(r.Predict("op1", restore_test::ArgsK(1), {{8}}, {8}).empty());
  for (int i : {0, 2})
    EXPECT_EQ(r.Predict("op" + std::to_string(i), restore_test::ArgsK(i),
                        {{8}}, {8})
                  .size(),
              1u);
  EXPECT_EQ(r.Predict("gen", restore_test::ArgsK(0), {{32}}, {32}).size(), 1u);
}

TEST(ReusePredictorTest, CorruptPayloadIsRejectedWithoutStateChange) {
  ReusePredictor p = restore_test::Promoted(3);
  const std::string good = p.SerializeState();
  ReusePredictor r;
  ASSERT_TRUE(r.RestoreState(good).ok());

  // The first base key's length prefix (after the magic, eight one-byte
  // counter varints and the base count) overwritten with a length far
  // past the blob's end.
  std::string bad = good;
  ASSERT_GT(bad.size(), 17u);
  bad.replace(13, 4, "\xff\xff\xff\x7f");
  std::vector<std::string> corrupt = {bad};
  // Every strict prefix of the payload is missing a declared field.
  for (size_t n = 0; n < good.size(); n += 7)
    corrupt.push_back(good.substr(0, n));
  corrupt.push_back(good.substr(0, good.size() - 1));

  for (const std::string& blob : corrupt) {
    Status st = r.RestoreState(blob);
    ASSERT_FALSE(st.ok()) << blob.size();
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }
  // Prior state intact.
  restore_test::ExpectServesPromoted(r, 3);
  restore_test::ExpectSameStats(r.stats(), p.stats());
}

TEST(ReusePredictorTest, ParentFormatTrailerIsIgnoredOnRestore) {
  // Older writers appended a "SEAL" section after the RPS1 payload; the
  // reader skips it unparsed, whatever its bytes.
  ReusePredictor p = restore_test::Promoted(4);
  const std::string payload = p.SerializeState();
  std::string parent_blob = payload + "SEAL";
  for (int i = 0; i < 64; ++i) parent_blob.push_back(static_cast<char>(i * 37));

  ReusePredictor bare, parent;
  ASSERT_TRUE(bare.RestoreState(payload).ok());
  ASSERT_TRUE(parent.RestoreState(parent_blob).ok());
  restore_test::ExpectServesPromoted(parent, 4);
  restore_test::ExpectSameStats(parent.stats(), bare.stats());
  // Identical Predict answers, hits and misses alike, and the re-written
  // blob is the bare payload.
  for (int i = 0; i < 5; ++i)
    for (int64_t n : {8, 9}) {
      const std::string op = "op" + std::to_string(i);
      auto a = bare.Predict(op, restore_test::ArgsK(i), {{n}}, {n});
      auto b = parent.Predict(op, restore_test::ArgsK(i), {{n}}, {n});
      EXPECT_TRUE(a == b) << op << " " << n;
    }
  EXPECT_EQ(parent.SerializeState(), payload);
}

// -------------------------------------------------------------- workflows --

TEST(WorkflowTest, ImageWorkflowShape) {
  auto wf = BuildImageWorkflow(48, 48, 3);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();
  EXPECT_EQ(wf.value().steps.size(), 5u);
  EXPECT_EQ(wf.value().array_names.size(), 6u);
  // Final array is the 6-cell detection vector.
  EXPECT_EQ(wf.value().shapes.back(), (std::vector<int64_t>{6}));
}

TEST(WorkflowTest, RelationalWorkflowShape) {
  auto wf = BuildRelationalWorkflow(400, 200, 4);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();
  EXPECT_EQ(wf.value().steps.size(), 5u);
  for (const auto& step : wf.value().steps)
    EXPECT_GT(step.relation.num_rows(), 0) << step.op_name;
}

TEST(WorkflowTest, ResNetWorkflowSevenSteps) {
  auto wf = BuildResNetWorkflow(24, 24, 5);
  ASSERT_TRUE(wf.ok());
  EXPECT_EQ(wf.value().steps.size(), 7u);
  // Conv lineage has ~9 entries per cell; elementwise exactly 1.
  EXPECT_GT(wf.value().steps[0].relation.num_rows(),
            wf.value().steps[1].relation.num_rows() * 7);
}

TEST(WorkflowTest, RandomNumpyWorkflowChains) {
  auto wf = BuildRandomNumpyWorkflow(5, 500, 77);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();
  EXPECT_EQ(wf.value().steps.size(), 5u);
}

TEST(WorkflowTest, WorkflowQueriesMatchGroundTruthEndToEnd) {
  auto wfr = BuildRandomNumpyWorkflow(4, 300, 11);
  ASSERT_TRUE(wfr.ok());
  const Workflow& wf = wfr.value();
  std::vector<CompressedTable> tables;
  std::vector<QueryHop> hops;
  std::vector<RelationHop> rhops;
  for (const auto& step : wf.steps) tables.push_back(ProvRcCompress(step.relation));
  for (size_t i = 0; i < tables.size(); ++i) {
    hops.push_back({&tables[i], true});
    rhops.push_back({&wf.steps[i].relation, true});
  }
  std::vector<int64_t> cells = {0, 5, 42, 299};
  BoxTable q = BoxTable::FromCells(1, cells);
  BoxTable got = InSituQuery(hops, q);
  std::vector<int64_t> want = UncompressedQuery(rhops, cells);
  int arity = wf.steps.back().relation.out_ndim();
  EXPECT_EQ(ToTupleSet(got.ExpandToCells(), arity), ToTupleSet(want, arity));
}

TEST(WorkflowTest, SurveillanceFrameStatistics) {
  NDArray f = MakeSurveillanceFrame(64, 64, 9);
  double lo = 1e300, hi = -1e300;
  for (int64_t i = 0; i < f.size(); ++i) {
    lo = std::min(lo, f[i]);
    hi = std::max(hi, f[i]);
  }
  EXPECT_GT(lo, 0.0);
  EXPECT_GT(hi, 150.0);  // blobs present
}

TEST(WorkflowTest, TitleBasicsSchemaProperties) {
  NDArray t = MakeTitleBasics(500, 1);
  // tconst sorted; startYear non-decreasing; isAdult in {0, 1}.
  for (int64_t i = 1; i < 500; ++i) {
    EXPECT_LT(t[(i - 1) * 6 + 0], t[i * 6 + 0]);
    EXPECT_LE(t[(i - 1) * 6 + 3], t[i * 6 + 3]);
  }
  for (int64_t i = 0; i < 500; ++i)
    EXPECT_TRUE(t[i * 6 + 2] == 0.0 || t[i * 6 + 2] == 1.0);
}

// -------------------------------------------------------------- kaggle sim --

TEST(KaggleSimTest, SummaryInPlausibleBands) {
  KaggleSummary flight = SimulateKaggleDataset(FlightProfile(), 20, 1);
  KaggleSummary netflix = SimulateKaggleDataset(NetflixProfile(), 20, 2);
  // Compressible share should land in the paper's 60-85% region.
  EXPECT_GT(flight.pct_mean, 55.0);
  EXPECT_LT(flight.pct_mean, 90.0);
  EXPECT_GT(netflix.pct_mean, 50.0);
  EXPECT_LT(netflix.pct_mean, 90.0);
  EXPECT_GT(flight.chain_mean, 4.0);
  EXPECT_GT(flight.total_mean, 20.0);
}

TEST(KaggleSimTest, NotebooksDeterministicPerSeed) {
  NotebookStats a = SimulateNotebook(true, 42);
  NotebookStats b = SimulateNotebook(true, 42);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.compressible_ops, b.compressible_ops);
  EXPECT_EQ(a.longest_chain, b.longest_chain);
}

}  // namespace
}  // namespace dslog
