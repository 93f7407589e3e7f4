// LogStore subsystem tests: the single-file on-disk format (round trip,
// incremental append), the lazy in-situ query path (decode counters, LRU
// bounds, concurrent readers), the mmap abstraction with its read
// fallback, and corruption handling (flipped segment bytes, truncated
// footers, unsupported footer versions, patched footer records — every
// failure must surface as Status::Corruption, never UB; the CI ASan job
// runs this whole suite).

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "array/ndarray.h"
#include "array/op_registry.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/metrics.h"
#include "common/mmap_file.h"
#include "compress/varint.h"
#include "common/random.h"
#include "lineage/lineage_relation.h"
#include "provrc/provrc.h"
#include "provrc/serialize.h"
#include "query/box.h"
#include "storage/dslog.h"
#include "storage/logstore.h"
#include "test_util.h"

namespace dslog {
namespace {

using test_util::ToTupleSet;

std::string TestPath(const std::string& name) {
  return ScratchDir() + "/" + name;
}

/// Identity lineage over a 1-D array of `n` cells: out i <- in i.
LineageRelation IdentityRelation(int64_t n) {
  LineageRelation rel(1, 1);
  rel.set_shapes({n}, {n});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t tuple[2] = {i, i};
    rel.AddTuple(tuple);
  }
  return rel;
}

/// Shifted lineage: out i <- in (i + 1) mod n. Distinct per-edge content so
/// replaced/corrupted segments are distinguishable from identity.
LineageRelation ShiftRelation(int64_t n) {
  LineageRelation rel(1, 1);
  rel.set_shapes({n}, {n});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t tuple[2] = {i, (i + 1) % n};
    rel.AddTuple(tuple);
  }
  return rel;
}

/// Registers the chain a<first> -> ... -> a<first+num_edges> of identity
/// edges over {width} arrays (defining all arrays that do not exist yet).
void BuildChain(DSLog* log, int first, int num_edges, int64_t width) {
  if (first == 0) {
    ASSERT_TRUE(log->DefineArray("a0", {width}).ok());
  }
  for (int i = first; i < first + num_edges; ++i) {
    std::string in = "a" + std::to_string(i);
    std::string out = "a" + std::to_string(i + 1);
    ASSERT_TRUE(log->DefineArray(out, {width}).ok());
    OperationRegistration reg;
    reg.op_name = "chain_step";
    reg.in_arrs = {in};
    reg.out_arr = out;
    reg.captured.push_back(IdentityRelation(width));
    reg.reuse = false;
    auto outcome = log->RegisterOperation(std::move(reg));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
}

std::vector<std::string> ChainPath(int from, int to) {
  std::vector<std::string> path;
  const int step = from <= to ? 1 : -1;
  for (int i = from;; i += step) {
    path.push_back(test_util::Indexed("a", i));
    if (i == to) break;
  }
  return path;
}

/// Footer record of edge in_arr -> out_arr in the store at `path` (a
/// default record, length 0, when the store holds no such edge).
LogStore::SegmentInfo SegmentOf(const std::string& path,
                                std::string_view in_arr,
                                std::string_view out_arr) {
  std::unique_ptr<LogStore> store = LogStore::Open(path).ValueOrDie();
  const int64_t id = store->FindSegmentId(in_arr, out_arr).ValueOrDie();
  return id < 0 ? LogStore::SegmentInfo{}
                : store->segment_info(static_cast<size_t>(id));
}

/// Segment id of edge in_arr -> out_arr in the store at `path`.
size_t SegmentId(const std::string& path, std::string_view in_arr,
                 std::string_view out_arr) {
  std::unique_ptr<LogStore> store = LogStore::Open(path).ValueOrDie();
  return static_cast<size_t>(
      store->FindSegmentId(in_arr, out_arr).ValueOrDie());
}

// ---------------------------------------------------------------- MmapFile --

// The properties LogStore relies on for zero-copy columnar borrows from
// either backing: identical bytes, an 8-aligned base, and a base address
// that survives a move (the store parses the footer before moving the
// file into itself).
TEST(MmapFileTest, MapsAndFallsBackIdentically) {
  const std::string path = TestPath("mmap_basic.bin");
  const std::string payload = "hello mapped world";
  ASSERT_TRUE(WriteFile(path, payload).ok());
  auto mapped = MmapFile::Open(path, /*allow_mmap=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().mapped());
  EXPECT_EQ(mapped.value().view(), payload);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(mapped.value().data()) % 8, 0u);
  auto fallback = MmapFile::Open(path, /*allow_mmap=*/false);
  ASSERT_TRUE(fallback.ok());
  EXPECT_FALSE(fallback.value().mapped());
  EXPECT_EQ(fallback.value().view(), payload);
  EXPECT_EQ(fallback.value().view(6, 6), "mapped");
  const char* base = fallback.value().data();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(base) % 8, 0u);
  MmapFile moved = std::move(fallback).ValueOrDie();
  EXPECT_EQ(moved.data(), base);
  MmapFile assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), base);
  EXPECT_EQ(assigned.view(), payload);
}

TEST(MmapFileTest, MissingFileIsIOErrorAndEmptyFileIsEmpty) {
  EXPECT_FALSE(MmapFile::Open(TestPath("nonexistent.bin")).ok());
  const std::string path = TestPath("mmap_empty.bin");
  ASSERT_TRUE(WriteFile(path, "").ok());
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value().size(), 0u);
}

TEST(MmapFileTest, MoveTransfersView) {
  const std::string path = TestPath("mmap_move.bin");
  ASSERT_TRUE(WriteFile(path, "payload").ok());
  for (bool allow_mmap : {true, false}) {
    auto opened = MmapFile::Open(path, allow_mmap);
    ASSERT_TRUE(opened.ok());
    MmapFile moved = std::move(opened).ValueOrDie();
    MmapFile again = std::move(moved);
    EXPECT_EQ(again.view(), "payload");
  }
}

// -------------------------------------------------------------- round trip --

TEST(LogStoreTest, RoundTripMatchesInMemoryCatalog) {
  DSLog log;
  BuildChain(&log, 0, 8, 16);
  // Both segment layouts must round-trip identical query results; the
  // gzip layout additionally preserves the in-memory footprint accounting
  // (columnar trades bytes for zero-copy scans, so its file is bigger).
  for (SegmentLayout layout :
       {SegmentLayout::kColumnar, SegmentLayout::kProvRcGzip}) {
    const std::string path = TestPath(
        layout == SegmentLayout::kColumnar ? "roundtrip_v2.dsl"
                                           : "roundtrip_v1.dsl");
    ASSERT_TRUE(log.SaveLogStore(path, layout).ok());

    auto opened = DSLog::OpenInSitu(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const DSLog& insitu = opened.value();
    EXPECT_TRUE(insitu.HasArray("a0"));
    EXPECT_TRUE(insitu.HasArray("a8"));
    EXPECT_EQ(insitu.ArrayShape("a3").ValueOrDie(),
              (std::vector<int64_t>{16}));

    for (const auto& path_arrays :
         {ChainPath(0, 8), ChainPath(8, 0), ChainPath(5, 2)}) {
      BoxTable q = BoxTable::FromCells(1, {3, 7});
      auto want = log.ProvQuery(path_arrays, q);
      auto got = insitu.ProvQuery(path_arrays, q);
      ASSERT_TRUE(want.ok() && got.ok()) << got.status().ToString();
      EXPECT_EQ(ToTupleSet(got.value().ExpandToCells(), 1),
                ToTupleSet(want.value().ExpandToCells(), 1));
    }

    auto store = insitu.log_store();
    ASSERT_NE(store, nullptr);
    EXPECT_TRUE(store->mapped());
    EXPECT_EQ(store->stats().segment_count, 8);
    for (size_t id = 0; id < store->segment_count(); ++id) {
      const LogStore::SegmentInfo seg = store->segment_info(id);
      EXPECT_EQ(seg.layout, layout);
      EXPECT_GT(seg.row_count, 0);
    }
    if (layout == SegmentLayout::kProvRcGzip)
      EXPECT_EQ(insitu.StorageFootprintBytes(), log.StorageFootprintBytes());
    else
      EXPECT_GT(insitu.StorageFootprintBytes(), 0);
  }
}

// ------------------------------------------------------------- lazy decode --

TEST(LogStoreTest, BackwardQueryDecodesUnderTenPercentOfSegments) {
  // The ProvRC-GZip leg: on a >= 500-edge catalog, a backward path
  // query must decode only the segments on its path (< 10% of the log).
  // Also the compatibility guarantee that gzip stores keep opening and
  // querying through OpenInSitu now that columnar is the write default.
  DSLog log;
  BuildChain(&log, 0, 500, 8);
  const std::string path = TestPath("large_chain.dsl");
  ASSERT_TRUE(log.SaveLogStore(path, SegmentLayout::kProvRcGzip).ok());

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const DSLog& insitu = opened.value();
  ASSERT_EQ(insitu.log_store()->stats().segment_count, 500);
  EXPECT_EQ(insitu.log_store()->stats().segments_touched, 0);

  // Backward over the last five edges of the chain.
  BoxTable q = BoxTable::FromCells(1, {2});
  auto got = insitu.ProvQuery(ChainPath(500, 495), q);
  auto want = log.ProvQuery(ChainPath(500, 495), q);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(ToTupleSet(got.value().ExpandToCells(), 1),
            ToTupleSet(want.value().ExpandToCells(), 1));

  LogStoreStats stats = insitu.log_store()->stats();
  EXPECT_EQ(stats.segments_touched, 5);  // exactly the path's edges
  EXPECT_LT(stats.segments_touched, stats.segment_count / 10);
  EXPECT_GT(stats.bytes_decompressed, 0);

  // Re-running the query is pure cache hits: no new decodes.
  ASSERT_TRUE(insitu.ProvQuery(ChainPath(500, 495), q).ok());
  LogStoreStats again = insitu.log_store()->stats();
  EXPECT_EQ(again.segments_touched, 5);
  EXPECT_EQ(again.decode_count, stats.decode_count);
  EXPECT_GT(again.cache_hits, stats.cache_hits);
}

TEST(LogStoreTest, ColumnarQueryIsZeroCopy) {
  // The acceptance bar for the columnar layout: a path query over a columnar
  // store borrows its segments straight from the mapping — zero bytes
  // decompressed and zero rows materialized into owned arenas (no per-row
  // allocation anywhere in the decode path), with only the path's
  // segments touched.
  DSLog log;
  BuildChain(&log, 0, 64, 16);
  const std::string path = TestPath("columnar_chain.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());  // default layout = columnar

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const DSLog& insitu = opened.value();
  ASSERT_TRUE(insitu.log_store()->mapped());

  BoxTable q = BoxTable::FromCells(1, {2});
  auto got = insitu.ProvQuery(ChainPath(64, 59), q);
  auto want = log.ProvQuery(ChainPath(64, 59), q);
  ASSERT_TRUE(got.ok() && want.ok()) << got.status().ToString();
  EXPECT_EQ(ToTupleSet(got.value().ExpandToCells(), 1),
            ToTupleSet(want.value().ExpandToCells(), 1));

  LogStoreStats stats = insitu.log_store()->stats();
  EXPECT_EQ(stats.segments_touched, 5);  // exactly the path's edges
  EXPECT_EQ(stats.segments_borrowed, 5);
  EXPECT_EQ(stats.bytes_decompressed, 0);
  EXPECT_EQ(stats.tables_materialized, 0);
  EXPECT_EQ(stats.rows_materialized, 0);

  // Repeat queries are pure cache hits on the pinned views.
  ASSERT_TRUE(insitu.ProvQuery(ChainPath(64, 59), q).ok());
  LogStoreStats again = insitu.log_store()->stats();
  EXPECT_EQ(again.decode_count, stats.decode_count);
  EXPECT_GT(again.cache_hits, stats.cache_hits);
  EXPECT_EQ(again.rows_materialized, 0);
}

TEST(LogStoreTest, MixedLayoutStoreServesBothSegmentKinds) {
  // A gzip store extended by a columnar append is a legitimate mixed-
  // layout file: old segments keep decoding, new ones borrow, and the
  // footer records which is which.
  DSLog log;
  BuildChain(&log, 0, 4, 16);
  const std::string path = TestPath("mixed_layout.dsl");
  ASSERT_TRUE(log.SaveLogStore(path, SegmentLayout::kProvRcGzip).ok());
  BuildChain(&log, 4, 4, 16);
  ASSERT_TRUE(log.AppendLogStore(path).ok());  // appends columnar

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const DSLog& insitu = opened.value();
  int gzip = 0, columnar = 0;
  for (size_t id = 0; id < insitu.log_store()->segment_count(); ++id) {
    if (insitu.log_store()->segment_info(id).layout ==
        SegmentLayout::kProvRcGzip)
      ++gzip;
    else
      ++columnar;
  }
  EXPECT_EQ(gzip, 4);
  EXPECT_EQ(columnar, 4);

  // One query spanning both halves of the chain exercises both decode
  // paths in a single traversal.
  BoxTable q = BoxTable::FromCells(1, {9});
  auto got = insitu.ProvQuery(ChainPath(0, 8), q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{9}));
  LogStoreStats stats = insitu.log_store()->stats();
  EXPECT_EQ(stats.tables_materialized, 4);
  EXPECT_EQ(stats.segments_borrowed, 4);
  EXPECT_GT(stats.bytes_decompressed, 0);
}

TEST(LogStoreTest, TinyCacheEvictsButStaysCorrect) {
  DSLog log;
  BuildChain(&log, 0, 40, 64);
  const std::string path = TestPath("tiny_cache.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  LogStoreOptions options;
  options.cache_capacity_bytes = 2048;  // a handful of decoded tables
  auto opened = DSLog::OpenInSitu(path, options);
  ASSERT_TRUE(opened.ok());
  const DSLog& insitu = opened.value();

  BoxTable q = BoxTable::FromCells(1, {11});
  for (int rep = 0; rep < 3; ++rep) {
    auto got = insitu.ProvQuery(ChainPath(0, 40), q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{11}));
  }
  LogStoreStats stats = insitu.log_store()->stats();
  EXPECT_EQ(stats.segments_touched, 40);
  EXPECT_GT(stats.evictions, 0);
  // Eviction forced re-decodes on the later sweeps.
  EXPECT_GT(stats.decode_count, stats.segments_touched);
}

// The forward index is never built at resolve; the first forward View of a
// cached segment builds it once and charges its bytes to the segment's
// cache entry, so a budget sized for the backward entries alone evicts.
TEST(LogStoreTest, ForwardIndexBuiltOnFirstForwardViewAndCharged) {
  DSLog log;
  BuildChain(&log, 0, 9, 64);
  const std::string path = TestPath("forward_charge.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  // Every segment holds the same identity table; a borrowed segment is
  // charged 64 bytes of bookkeeping plus its backward index. Segments 0
  // and `other` share cache stripe 0, whose budget slice is 1/kCacheShards
  // of the whole budget.
  constexpr size_t other = LogStore::kCacheShards;
  const CompressedTable table = ProvRcCompress(IdentityRelation(64));
  const int64_t backward_charge =
      64 + table.view().BuildBackwardIndex().bytes();
  const int64_t forward_bytes = table.view().BuildForwardIndex().bytes();
  LogStoreOptions options;
  options.cache_capacity_bytes =
      static_cast<int64_t>(LogStore::kCacheShards) *
      (2 * backward_charge + forward_bytes - 1);
  auto store = LogStore::Open(path, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const LogStore& s = *store.value();
  ASSERT_GT(s.segment_count(), other);

  metrics::Counter& builds = metrics::Registry::Global().counter(
      "dslog.query.forward_index_builds");
  const int64_t builds_before = builds.Value();
  auto back0 = s.View(0);
  auto back1 = s.View(other);
  ASSERT_TRUE(back0.ok() && back1.ok());
  EXPECT_EQ(builds.Value(), builds_before);  // resolve builds no forward index
  EXPECT_EQ(s.stats().evictions, 0);

  auto fwd0 = s.View(0, /*forward=*/true);
  ASSERT_TRUE(fwd0.ok());
  EXPECT_NE(fwd0.value().index, back0.value().index);
  EXPECT_EQ(fwd0.value().index->size(), table.num_rows());
  EXPECT_EQ(builds.Value(), builds_before + 1);
  EXPECT_EQ(s.stats().evictions, 1);  // the charge pushed `other` out

  EXPECT_EQ(s.View(0, /*forward=*/true).value().index, fwd0.value().index);
  EXPECT_EQ(builds.Value(), builds_before + 1);  // built once per resolve
  ASSERT_TRUE(s.View(other).ok());  // evicted: resolves again
  EXPECT_EQ(s.stats().decode_count, 3);
}

TEST(LogStoreTest, FindEdgeDecodesLazilyAndStaysValid) {
  DSLog log;
  BuildChain(&log, 0, 3, 8);
  const std::string path = TestPath("findedge.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok());
  const CompressedTable* table = opened.value().FindEdge("a0", "a1");
  ASSERT_NE(table, nullptr);
  EXPECT_GT(table->num_rows(), 0);
  EXPECT_EQ(opened.value().FindEdge("a0", "nope"), nullptr);
}

// ------------------------------------------------------------------ append --

TEST(LogStoreTest, AppendPersistsNewOperationsIncrementally) {
  DSLog log;
  BuildChain(&log, 0, 4, 16);
  const std::string path = TestPath("append.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  const int64_t size_after_save =
      static_cast<int64_t>(std::filesystem::file_size(path));

  // Register four more operations and append only those.
  BuildChain(&log, 4, 4, 16);
  ASSERT_TRUE(log.AppendLogStore(path).ok());

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().log_store()->stats().segment_count, 8);
  EXPECT_GT(static_cast<int64_t>(std::filesystem::file_size(path)),
            size_after_save);
  auto got =
      opened.value().ProvQuery(ChainPath(0, 8), BoxTable::FromCells(1, {9}));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{9}));

  // A second append with nothing new keeps the file valid and complete.
  ASSERT_TRUE(log.AppendLogStore(path).ok());
  auto reopened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().log_store()->stats().segment_count, 8);
}

TEST(LogStoreTest, AppendRepersistsEdgeWhoseLineageChanged) {
  // A re-registered edge (same in/out arrays, different lineage) must be
  // re-persisted by AppendLogStore — only byte-identical segments may be
  // skipped.
  const std::string path = TestPath("append_changed.dsl");
  DSLog log;
  ASSERT_TRUE(log.DefineArray("u", {8}).ok());
  ASSERT_TRUE(log.DefineArray("v", {8}).ok());
  auto register_edge = [&](LineageRelation rel) {
    OperationRegistration reg;
    reg.op_name = "step";
    reg.in_arrs = {"u"};
    reg.out_arr = "v";
    reg.captured.push_back(std::move(rel));
    reg.reuse = false;
    ASSERT_TRUE(log.RegisterOperation(std::move(reg)).ok());
  };
  register_edge(IdentityRelation(8));
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  register_edge(ShiftRelation(8));  // overwrite with different lineage
  ASSERT_TRUE(log.AppendLogStore(path).ok());

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto got = opened.value().ProvQuery({"u", "v"}, BoxTable::FromCells(1, {0}));
  ASSERT_TRUE(got.ok());
  // Shifted lineage: input 0 feeds output 7 — not the stale identity's 0.
  EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{7}));

  // Appending again with unchanged content adds no segment bytes.
  const auto size_before = std::filesystem::file_size(path);
  ASSERT_TRUE(log.AppendLogStore(path).ok());
  EXPECT_EQ(std::filesystem::file_size(path), size_before);
}

TEST(LogStoreTest, ConvertedLegacyDirectoryServesQueriesAndPredictor) {
  // The directory format and its converter are gone; the conversion that
  // remains is store-to-store: a catalog opened in situ from a gzip store
  // is rewritten by SaveLogStore into a new file. Stored segments are
  // shuttled raw (their gzip layout kept, whatever layout is asked for),
  // and both the lineage and a promoted dim_sig mapping must cross.
  DSLog log;
  Rng rng(71);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  for (int call = 0; call < 2; ++call) {
    std::string x = "cx" + std::to_string(call);
    std::string y = "cy" + std::to_string(call);
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

  const std::string source = TestPath("convert_source.dsl");
  const std::string path = TestPath("converted.dsl");
  ASSERT_TRUE(log.SaveLogStore(source, SegmentLayout::kProvRcGzip).ok());
  auto from = DSLog::OpenInSitu(source);
  ASSERT_TRUE(from.ok()) << from.status().ToString();
  ASSERT_TRUE(from.value().SaveLogStore(path, SegmentLayout::kColumnar).ok());

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DSLog& insitu = opened.value();
  const LogStore& src = *from.value().log_store();
  const LogStore& dst = *insitu.log_store();
  ASSERT_EQ(dst.segment_count(), 2u);
  ASSERT_EQ(src.segment_count(), 2u);
  for (size_t id = 0; id < dst.segment_count(); ++id) {
    EXPECT_EQ(dst.segment_info(id).layout, SegmentLayout::kProvRcGzip);
    auto src_bytes = src.SegmentView(id);
    auto dst_bytes = dst.SegmentView(id);
    ASSERT_TRUE(src_bytes.ok() && dst_bytes.ok());
    EXPECT_EQ(src_bytes.value(), dst_bytes.value());
  }
  auto got = insitu.ProvQuery({"cy0", "cx0"}, BoxTable::FromCells(1, {4}));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{4}));
  EXPECT_EQ(insitu.reuse_stats().dim_promotions, 1);

  // The restored predictor serves a third call without capture.
  ASSERT_TRUE(insitu.DefineArray("cx2", {24}).ok());
  ASSERT_TRUE(insitu.DefineArray("cy2", {24}).ok());
  OperationRegistration reg{"negative", {"cx2"}, "cy2", {}, OpArgs(), 0, true};
  auto outcome = insitu.RegisterOperation(std::move(reg));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome.value().dim_hit);
}

TEST(LogStoreTest, WriterReplacementNewestSegmentWins) {
  const std::string path = TestPath("replace.dsl");
  {
    auto writer = LogStoreWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    writer.value().PutArray("x", {8});
    writer.value().PutArray("y", {8});
    ASSERT_TRUE(writer.value()
                    .AppendEdge("x", "y", "op",
                                ProvRcCompress(IdentityRelation(8)))
                    .ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  {
    auto writer = LogStoreWriter::OpenForAppend(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_TRUE(writer.value().HasEdge("x", "y"));
    ASSERT_TRUE(writer.value()
                    .AppendEdge("x", "y", "op",
                                ProvRcCompress(ShiftRelation(8)))
                    .ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto store = LogStore::Open(path);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(store.value()->segment_count(), 1u);
  auto table = store.value()->Table(0);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table.value()->Decompress().EqualAsSet(ShiftRelation(8)));
  EXPECT_FALSE(store.value()->Table(7).ok());  // out of range
}

// -------------------------------------------------------------- corruption --

/// File offset of segment `id`'s footer record within `bytes`, the whole
/// store file at `path`. Records are the fixed 88-byte layout documented in
/// logstore.cc; the record is located by its (offset, length, checksum)
/// prefix. npos when not found.
size_t RecordPos(const std::string& path, const std::string& bytes,
                 size_t id) {
  auto store = LogStore::Open(path);
  if (!store.ok()) return std::string::npos;
  const LogStore::SegmentInfo seg = store.value()->segment_info(id);
  size_t pos = bytes.size() - 20;
  uint64_t footer_offset = 0;
  if (!GetFixed64(bytes, &pos, &footer_offset)) return std::string::npos;
  std::string prefix;
  PutFixed64(&prefix, seg.offset);
  PutFixed64(&prefix, seg.length);
  PutFixed64(&prefix, seg.checksum);
  return bytes.find(prefix, footer_offset);
}

/// Overwrites the 8-byte (`width` = 8) or 4-byte field at `field_offset` of
/// segment `id`'s footer record in the store at `path`, then re-seals the
/// footer checksum so the open succeeds and only the record's own checks
/// stand between the patched value and the reader.
void PatchRecordField(const std::string& path, size_t id, size_t field_offset,
                      uint64_t value, size_t width) {
  std::string bytes = ReadFileToString(path).ValueOrDie();
  const size_t rec = RecordPos(path, bytes, id);
  ASSERT_NE(rec, std::string::npos);
  size_t pos = bytes.size() - 20;
  uint64_t footer_offset = 0;
  ASSERT_TRUE(GetFixed64(bytes, &pos, &footer_offset));
  std::memcpy(&bytes[rec + field_offset], &value, width);
  const std::string_view footer(bytes.data() + footer_offset,
                                bytes.size() - 20 - footer_offset);
  const uint64_t hash = Hash64Wide(footer);
  std::memcpy(&bytes[bytes.size() - 12], &hash, 8);
  ASSERT_TRUE(WriteFile(path, bytes).ok());
}

/// Re-seals the checksum in segment `id`'s footer record over the
/// segment's current bytes, so a mutated segment gets past the checksum
/// to its own structural checks.
void ResealSegmentChecksum(const std::string& path, size_t id) {
  const LogStore::SegmentInfo seg =
      LogStore::Open(path).ValueOrDie()->segment_info(id);
  const std::string bytes = ReadFileToString(path).ValueOrDie();
  constexpr size_t kChecksum = 16;
  PatchRecordField(path, id, kChecksum,
                   Hash64(std::string_view(bytes).substr(seg.offset,
                                                         seg.length)),
                   8);
}


TEST(LogStoreCorruptionTest, FlippedSegmentByteIsDetectedAtDecode) {
  DSLog log;
  BuildChain(&log, 0, 6, 32);
  const std::string path = TestPath("corrupt_segment.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  // Locate segment a2 -> a3 through a clean open, then flip one byte.
  const LogStore::SegmentInfo seg = SegmentOf(path, "a2", "a3");
  const uint64_t offset = seg.offset, length = seg.length;
  ASSERT_GT(length, 0u);
  std::string bytes = ReadFileToString(path).ValueOrDie();
  bytes[offset + length / 2] = static_cast<char>(
      static_cast<uint8_t>(bytes[offset + length / 2]) ^ 0xFF);
  ASSERT_TRUE(WriteFile(path, bytes).ok());

  // The open itself succeeds (footer intact); only touching the corrupt
  // segment fails, and with Corruption, not UB.
  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto clean = opened.value().ProvQuery(ChainPath(0, 2),
                                        BoxTable::FromCells(1, {1}));
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  auto corrupt = opened.value().ProvQuery(ChainPath(0, 6),
                                          BoxTable::FromCells(1, {1}));
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kCorruption)
      << corrupt.status().ToString();
}

TEST(LogStoreCorruptionTest, ColumnarRefOutOfRangeIsCorruption) {
  // Structural validation must hold even when the checksum vouches for the
  // bytes: a corrupt relative ref in a borrowed columnar segment would
  // index out of the join kernels' scratch, so the borrow itself has to
  // reject it.
  DSLog log;
  BuildChain(&log, 0, 2, 8);
  const std::string path = TestPath("corrupt_ref.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  // The footer stores the segment records in PHF-position order, so locate
  // the a0->a1 edge (the one the query below touches) by name, not by index.
  const LogStore::SegmentInfo seg = SegmentOf(path, "a0", "a1");
  ASSERT_EQ(seg.layout, SegmentLayout::kColumnar);
  const uint64_t offset = seg.offset, length = seg.length;
  ASSERT_GT(length, 0u);
  // The int32 ref array is the (8-padded) tail of a columnar image; force
  // its low byte to a huge attribute index.
  std::string bytes = ReadFileToString(path).ValueOrDie();
  bytes[offset + length - 8] = 0x7F;
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  ResealSegmentChecksum(path, SegmentId(path, "a0", "a1"));

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto got = opened.value().ProvQuery({"a1", "a0"}, BoxTable::FromCells(1, {0}));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << got.status().ToString();
}

TEST(LogStoreCorruptionTest, ColumnarTruncatedSegmentIsCorruption) {
  // A columnar segment whose bytes cannot hold the advertised row count
  // (image-size mismatch) must fail closed at first touch.
  DSLog log;
  BuildChain(&log, 0, 2, 8);
  const std::string path = TestPath("corrupt_truncated_v2.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  const uint64_t offset = SegmentOf(path, "a0", "a1").offset;
  ASSERT_GT(offset, 0u);
  // Inflate the claimed row count inside the segment header (offset 16).
  std::string bytes = ReadFileToString(path).ValueOrDie();
  bytes[offset + 16] = 0x40;
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  // Reach the structural check.
  ResealSegmentChecksum(path, SegmentId(path, "a0", "a1"));
  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto got = opened.value().ProvQuery({"a1", "a0"}, BoxTable::FromCells(1, {0}));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << got.status().ToString();
}

TEST(LogStoreCorruptionTest, MisalignedColumnarImageIsCorruption) {
  // Writers 8-align columnar segments and every LogStore backing is
  // 8-aligned, so only a forged record can present a misaligned image:
  // the borrow rejects it as Corruption instead of reading unaligned.
  const std::string image =
      SerializeCompressedTableColumnar(ProvRcCompress(IdentityRelation(16)));
  auto words = std::make_unique<uint64_t[]>(image.size() / 8 + 1);
  char* aligned = reinterpret_cast<char*>(words.get());
  std::memcpy(aligned, image.data(), image.size());
  ASSERT_TRUE(BorrowColumnarTable({aligned, image.size()}).ok());
  std::memmove(aligned + 1, aligned, image.size());
  auto misaligned = BorrowColumnarTable({aligned + 1, image.size()});
  ASSERT_FALSE(misaligned.ok());
  EXPECT_EQ(misaligned.status().code(), StatusCode::kCorruption)
      << misaligned.status().ToString();
}

TEST(LogStoreCorruptionTest, TruncationsAndGarbageAreCorruption) {
  DSLog log;
  BuildChain(&log, 0, 3, 16);
  const std::string path = TestPath("corrupt_footer.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  const std::string intact = ReadFileToString(path).ValueOrDie();

  auto expect_corruption = [&](std::string mutated, const char* label) {
    const std::string mutated_path = TestPath("corrupt_variant.dsl");
    ASSERT_TRUE(WriteFile(mutated_path, std::move(mutated)).ok());
    auto opened = DSLog::OpenInSitu(mutated_path);
    ASSERT_FALSE(opened.ok()) << label;
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
        << label << ": " << opened.status().ToString();
  };

  // Truncated footer/trailer (the torn-append signature).
  expect_corruption(intact.substr(0, intact.size() - 10), "truncated trailer");
  expect_corruption(intact.substr(0, intact.size() / 2), "truncated footer");
  expect_corruption(intact.substr(0, 4), "shorter than header");
  expect_corruption("", "empty file");
  // Bad header magic.
  {
    std::string bad = intact;
    bad[0] = 'X';
    expect_corruption(std::move(bad), "bad header magic");
  }
  // Flipped byte inside the footer (checksum mismatch).
  {
    std::string bad = intact;
    bad[bad.size() - 30] = static_cast<char>(
        static_cast<uint8_t>(bad[bad.size() - 30]) ^ 0xFF);
    expect_corruption(std::move(bad), "footer byte flip");
  }
  // The original still opens.
  EXPECT_TRUE(DSLog::OpenInSitu(path).ok());
}

/// A store file around a hand-built footer: header, footer at offset 8
/// (8-aligned, as the reader requires), trailer sealed with `footer_hash`.
std::string SealedFile(const std::string& footer, uint64_t footer_hash) {
  std::string file("DSLSTOR1");
  const uint64_t footer_offset = file.size();
  file += footer;
  PutFixed64(&file, footer_offset);
  PutFixed64(&file, footer_hash);
  file += "DSLF";
  return file;
}

TEST(LogStoreCorruptionTest, OverflowingFooterVarintIsCorruption) {
  // Hand-crafted version-4 file whose footer *checksum is valid* but whose
  // array-count varint is a ten-byte encoding overflowing uint64. The old
  // decoder silently wrapped it to 0 and then "successfully" parsed the
  // rest, opening an empty store from a corrupt footer; the decoder must
  // reject the overflow as Corruption instead.
  std::string footer;
  PutVarint64(&footer, 4);     // format version
  footer.append(9, '\x80');    // continuation bytes up to shift 63
  footer.push_back('\x02');    // 10th byte: bit 64 set -> overflow -> "0"
  PutVarint64(&footer, 0);     // predictor-state length
  footer.resize(16, '\0');     // pad the prelude to 8
  footer.append(24, '\0');     // 0 segments, empty name heap, empty PHF
  // The checksum must NOT mask the varint: after a wrap to 0 every field
  // that follows parses.
  const std::string path = TestPath("overflow_varint.dsl");
  ASSERT_TRUE(WriteFile(path, SealedFile(footer, Hash64Wide(footer))).ok());
  auto opened = LogStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
}

TEST(LogStoreCorruptionTest, Version3FooterIsUnsupported) {
  // A well-formed version-3 footer (varint segment index, byte-wise FNV
  // checksum, as older writers sealed it) is refused by version, not
  // misread as a version-4 index.
  std::string footer;
  PutVarint64(&footer, 3);  // format version
  PutVarint64(&footer, 0);  // arrays
  PutVarint64(&footer, 0);  // segments
  PutVarint64(&footer, 0);  // predictor-state length
  const std::string path = TestPath("version3.dsl");
  ASSERT_TRUE(WriteFile(path, SealedFile(footer, Hash64(footer))).ok());
  auto opened = LogStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().ToString().find("unsupported format version"),
            std::string::npos)
      << opened.status().ToString();
  EXPECT_FALSE(LogStoreWriter::OpenForAppend(path).ok());
}

TEST(LogStoreCorruptionTest, UntrustedRecordFieldsAreChecked) {
  DSLog log;
  BuildChain(&log, 0, 2, 16);
  const std::string path = TestPath("patched_record.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  size_t id = 0;
  {
    auto store = LogStore::Open(path);
    ASSERT_TRUE(store.ok());
    id = static_cast<size_t>(store.value()->FindSegmentId("a0", "a1").value());
  }
  constexpr size_t kOffset = 0, kLayout = 84;

  // A segment extent past the end of the file: Corruption at resolve and
  // when an in-situ catalog shuttles the segment into a new file, never a
  // read outside the file.
  const std::string moved = TestPath("patched_offset.dsl");
  ASSERT_TRUE(log.SaveLogStore(moved).ok());
  PatchRecordField(moved, id, kOffset, uint64_t{1} << 40, 8);
  {
    auto insitu = DSLog::OpenInSitu(moved);
    ASSERT_TRUE(insitu.ok()) << insitu.status().ToString();
    EXPECT_EQ(insitu.value().log_store()->SegmentView(id).status().code(),
              StatusCode::kCorruption);
    auto got = insitu.value().ProvQuery({"a1", "a0"},
                                        BoxTable::FromCells(1, {5}));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
    const Status resaved =
        insitu.value().SaveLogStore(TestPath("patched_offset_resaved.dsl"));
    EXPECT_EQ(resaved.code(), StatusCode::kCorruption) << resaved.ToString();
  }

  // An unknown layout is Corruption at resolve, not a gzip decode.
  PatchRecordField(path, id, kLayout, 7, 4);
  auto insitu = DSLog::OpenInSitu(path);
  ASSERT_TRUE(insitu.ok()) << insitu.status().ToString();
  auto got = insitu.value().ProvQuery({"a1", "a0"},
                                      BoxTable::FromCells(1, {5}));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << got.status().ToString();
  EXPECT_NE(got.status().ToString().find("layout"), std::string::npos)
      << got.status().ToString();
}

// Bytes 40..71 of a footer record are four reserved slots. Older writers
// stored output-attribute-0 stats there; this writer always fills them
// with the encoding those writers used for "unknown", and no reader looks
// at them: a record patched with real or garbage values opens with the
// same metadata and answers, and re-saving it writes the reserved encoding
// back.
TEST(LogStoreTest, ReservedRecordSlotsAreIgnored) {
  DSLog log;
  BuildChain(&log, 0, 3, 32);
  const std::string path = TestPath("reserved_slots.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  constexpr size_t kSlots = 40;
  constexpr int64_t kUnknown[4] = {-1, 0, 0, -1};
  size_t id = 0;
  {
    auto store = LogStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    id = static_cast<size_t>(store.value()->FindSegmentId("a0", "a1").value());
    const std::string bytes = ReadFileToString(path).ValueOrDie();
    for (size_t seg = 0; seg < store.value()->segment_count(); ++seg) {
      const size_t rec = RecordPos(path, bytes, seg);
      ASSERT_NE(rec, std::string::npos);
      for (size_t k = 0; k < 4; ++k) {
        int64_t slot;
        std::memcpy(&slot, bytes.data() + rec + kSlots + 8 * k, 8);
        EXPECT_EQ(slot, kUnknown[k]) << "segment " << seg << " slot " << k;
      }
    }
  }

  // Each variant: sum_width, min_lo, max_lo, max_hi as an older writer
  // stored them for this identity edge, and values no writer produces.
  const int64_t variants[2][4] = {
      {32, 0, 0, 31},
      {-7, INT64_MAX, INT64_MIN, 12345},
  };
  auto reference = DSLog::OpenInSitu(path);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string resaved_reference = TestPath("reserved_slots_ref.dsl");
  ASSERT_TRUE(reference.value().SaveLogStore(resaved_reference).ok());
  for (size_t v = 0; v < 2; ++v) {
    const std::string patched =
        TestPath("reserved_slots_" + std::to_string(v) + ".dsl");
    ASSERT_TRUE(WriteFile(patched, ReadFileToString(path).ValueOrDie()).ok());
    for (size_t k = 0; k < 4; ++k)
      PatchRecordField(patched, id, kSlots + 8 * k,
                       static_cast<uint64_t>(variants[v][k]), 8);
    ASSERT_NE(ReadFileToString(patched).ValueOrDie(),
              ReadFileToString(path).ValueOrDie());

    auto store = LogStore::Open(patched);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const LogStore::SegmentInfo got = store.value()->segment_info(id);
    const LogStore::SegmentInfo want = SegmentOf(path, "a0", "a1");
    EXPECT_EQ(got.in_arr, want.in_arr);
    EXPECT_EQ(got.out_arr, want.out_arr);
    EXPECT_EQ(got.op_name, want.op_name);
    EXPECT_EQ(got.offset, want.offset);
    EXPECT_EQ(got.length, want.length);
    EXPECT_EQ(got.checksum, want.checksum);
    EXPECT_EQ(got.layout, want.layout);
    EXPECT_EQ(got.row_count, want.row_count);

    auto insitu = DSLog::OpenInSitu(patched);
    ASSERT_TRUE(insitu.ok()) << insitu.status().ToString();
    for (bool backward : {true, false}) {
      const auto chain = backward ? ChainPath(3, 0) : ChainPath(0, 3);
      for (int64_t cell : {0, 5, 31}) {
        const BoxTable query = BoxTable::FromCells(1, {cell});
        auto a = insitu.value().ProvQuery(chain, query);
        auto b = reference.value().ProvQuery(chain, query);
        ASSERT_TRUE(a.ok() && b.ok())
            << a.status().ToString() << " / " << b.status().ToString();
        EXPECT_EQ(a.value().ExpandToCells(), b.value().ExpandToCells())
            << "variant " << v << " backward=" << backward << " cell=" << cell;
      }
    }
    const std::string resaved = TestPath("reserved_slots_resaved.dsl");
    ASSERT_TRUE(insitu.value().SaveLogStore(resaved).ok());
    EXPECT_EQ(ReadFileToString(resaved).ValueOrDie(),
              ReadFileToString(resaved_reference).ValueOrDie())
        << "variant " << v;
  }
}

// --------------------------------------------------------- v4 perfect hash --

TEST(LogStoreV4Test, RoundTripBindsPerfectHashIndex) {
  DSLog log;
  BuildChain(&log, 0, 6, 16);
  const std::string path = TestPath("phf_roundtrip.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  auto store = LogStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->edge_index_kind(), LogStore::EdgeIndexKind::kPhf);
  EXPECT_GT(store.value()->index_bits_per_key(), 0.0);
  EXPECT_EQ(store.value()->index_fingerprint_bits(), 8u);

  // Every stored edge resolves to the segment carrying its names; absent
  // edges resolve to -1. Neither direction builds the fallback name map or
  // touches segment bytes.
  for (size_t id = 0; id < store.value()->segment_count(); ++id) {
    const LogStore::SegmentInfo seg = store.value()->segment_info(id);
    auto found = store.value()->FindSegmentId(seg.in_arr, seg.out_arr);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found.value(), static_cast<int64_t>(id));
    auto missing = store.value()->FindSegmentId(seg.out_arr, seg.in_arr);
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(missing.value(), -1);
  }
  EXPECT_FALSE(store.value()->name_index_built());
  EXPECT_EQ(store.value()->stats().decode_count, 0);
}

TEST(LogStoreV4Test, PhfDisabledReaderServesIdenticalResults) {
  DSLog log;
  BuildChain(&log, 0, 5, 16);
  const std::string path = TestPath("phf_written.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  auto phf = LogStore::Open(path);
  ASSERT_TRUE(phf.ok()) << phf.status().ToString();

  // The same catalog written without the index (segments shuttled raw):
  // the reader falls back to the lazy name map, with the same answers.
  const std::string bare = TestPath("phf_not_written.dsl");
  {
    LogStoreWriterOptions no_phf;
    no_phf.build_phf = false;
    auto writer = LogStoreWriter::Create(bare, no_phf);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const auto& [name, shape] : phf.value()->arrays())
      writer.value().PutArray(name, shape);
    for (size_t id = 0; id < phf.value()->segment_count(); ++id) {
      const LogStore::SegmentInfo seg = phf.value()->segment_info(id);
      ASSERT_TRUE(writer.value()
                      .AppendRawSegment(seg.in_arr, seg.out_arr, seg.op_name,
                                        phf.value()->SegmentView(id).value(),
                                        seg.layout, seg.row_count)
                      .ok());
    }
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto fallback = LogStore::Open(bare);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback.value()->edge_index_kind(),
            LogStore::EdgeIndexKind::kLazyMap);
  EXPECT_EQ(fallback.value()->index_bits_per_key(), 0.0);
  EXPECT_FALSE(fallback.value()->name_index_built());
  for (size_t id = 0; id < phf.value()->segment_count(); ++id) {
    const LogStore::SegmentInfo seg = phf.value()->segment_info(id);
    auto b = fallback.value()->FindSegmentId(seg.in_arr, seg.out_arr);
    ASSERT_TRUE(b.ok() && b.value() >= 0)
        << seg.in_arr << " -> " << seg.out_arr;
    const LogStore::SegmentInfo other =
        fallback.value()->segment_info(static_cast<size_t>(b.value()));
    EXPECT_EQ(other.in_arr, seg.in_arr);
    EXPECT_EQ(other.out_arr, seg.out_arr);
    EXPECT_EQ(other.checksum, seg.checksum);
    auto missing = fallback.value()->FindSegmentId(seg.out_arr, seg.in_arr);
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(missing.value(), -1);
  }
  EXPECT_TRUE(fallback.value()->name_index_built());

  auto a = DSLog::OpenInSitu(path);
  auto b = DSLog::OpenInSitu(bare);
  ASSERT_TRUE(a.ok() && b.ok());
  for (bool backward : {true, false}) {
    const auto chain = backward ? ChainPath(5, 0) : ChainPath(0, 5);
    auto ra = a.value().ProvQuery(chain, BoxTable::FromCells(1, {3}));
    auto rb = b.value().ProvQuery(chain, BoxTable::FromCells(1, {3}));
    ASSERT_TRUE(ra.ok() && rb.ok())
        << ra.status().ToString() << " / " << rb.status().ToString();
    EXPECT_EQ(ToTupleSet(ra.value().ExpandToCells(), 1),
              ToTupleSet(rb.value().ExpandToCells(), 1));
  }
}

TEST(LogStoreV4Test, IndexStaysUnder16BitsPerKeyAtScale) {
  // The 48-byte PHF header amortizes away by a few hundred keys; the
  // steady-state cost is ~4 bits of displacement + 8 bits of fingerprint
  // per key plus the <= 25% empty-slot overhead of m = ceil(n/4) buckets.
  const std::string path = TestPath("phf_bits_per_key.dsl");
  CompressedTable table = ProvRcCompress(IdentityRelation(4));
  const std::string bytes = SerializeCompressedTableColumnar(table);
  auto writer = LogStoreWriter::Create(path, {});
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  constexpr int kEdges = 2048;
  writer.value().PutArray("hub", {4});
  for (int i = 0; i < kEdges; ++i)
    writer.value().PutArray("leaf" + std::to_string(i), {4});
  for (int i = 0; i < kEdges; ++i) {
    ASSERT_TRUE(writer.value()
                    .AppendRawSegment("hub", "leaf" + std::to_string(i), "op",
                                      bytes, SegmentLayout::kColumnar,
                                      table.num_rows())
                    .ok());
  }
  ASSERT_TRUE(writer.value().Finish().ok());

  auto store = LogStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->edge_index_kind(), LogStore::EdgeIndexKind::kPhf);
  EXPECT_LE(store.value()->index_bits_per_key(), 16.0);
  // The footer stores segments in PHF-position order, so the id is
  // arbitrary; it must resolve to the segment carrying the probed names.
  auto hit = store.value()->FindSegmentId("hub", "leaf2047");
  ASSERT_TRUE(hit.ok());
  ASSERT_GE(hit.value(), 0);
  const LogStore::SegmentInfo seg =
      store.value()->segment_info(static_cast<size_t>(hit.value()));
  EXPECT_EQ(seg.in_arr, "hub");
  EXPECT_EQ(seg.out_arr, "leaf2047");
  auto miss = store.value()->FindSegmentId("hub", "leaf2048");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss.value(), -1);
}

TEST(LogStoreV4Test, NegativeProbesTouchNoSegmentBytes) {
  DSLog log;
  BuildChain(&log, 0, 4, 16);
  const std::string path = TestPath("phf_negative.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok());
  for (int i = 0; i < 32; ++i) {
    auto r = opened.value().ProvQuery({"a0", "absent" + std::to_string(i)},
                                      BoxTable::FromCells(1, {0}));
    EXPECT_FALSE(r.ok());
  }
  std::shared_ptr<const LogStore> store = opened.value().log_store();
  EXPECT_EQ(store->stats().decode_count, 0);
  EXPECT_FALSE(store->name_index_built());
}

TEST(LogStoreCorruptionTest, FlippedPhfIndexByteIsCorruptionAtOpen) {
  DSLog log;
  BuildChain(&log, 0, 4, 16);
  const std::string path = TestPath("phf_corrupt.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  auto file = ReadFileToString(path);
  ASSERT_TRUE(file.ok());
  std::string bytes = std::move(file).ValueOrDie();
  // The PHF block sits at the end of the footer, just before the 20-byte
  // trailer; the footer checksum covers it, so a flipped displacement or
  // fingerprint byte must fail verification at Open (never a wrong or
  // missing lookup later).
  bytes[bytes.size() - 25] ^= 0x40;
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  auto opened = LogStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
}

// ------------------------------------------------------------- concurrency --

TEST(LogStoreConcurrencyTest, ParallelInSituReadersWithEvictionChurn) {
  DSLog log;
  BuildChain(&log, 0, 32, 32);
  const std::string path = TestPath("concurrent.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  LogStoreOptions options;
  options.cache_capacity_bytes = 4096;  // force eviction under load
  auto opened = DSLog::OpenInSitu(path, options);
  ASSERT_TRUE(opened.ok());
  const DSLog& insitu = opened.value();

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 40;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kQueriesPerThread; ++i) {
        int from = static_cast<int>(rng.Uniform(33));
        int to = static_cast<int>(rng.Uniform(33));
        if (from == to) to = (to + 1) % 33;
        const int64_t cell = static_cast<int64_t>(rng.Uniform(32));
        auto got = insitu.ProvQuery(ChainPath(from, to),
                                    BoxTable::FromCells(1, {cell}));
        if (!got.ok() ||
            got.value().ExpandToCells() != std::vector<int64_t>{cell})
          ++failures[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  EXPECT_EQ(insitu.log_store()->stats().segments_touched, 32);
}

TEST(LogStoreConcurrencyTest, ShardedLruChurnOnSharedEdges) {
  // Eviction-churn stress for the striped cache: a per-stripe budget small
  // enough that almost every resolve evicts, 8 threads hammering the SAME
  // few edges. 12 segments over the 8 stripes put two segments in each of
  // stripes 0-3, so same-stripe evictions and resolve races interleave.
  constexpr int kEdges = 12;
  static_assert(kEdges > static_cast<int>(LogStore::kCacheShards));
  DSLog log;
  BuildChain(&log, 0, kEdges, 32);
  const std::string path = TestPath("sharded_churn.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  LogStoreOptions options;
  // 1 byte per stripe: every entry exceeds its stripe's budget, so each
  // insert evicts the stripe's previous resident immediately.
  options.cache_capacity_bytes = static_cast<int64_t>(LogStore::kCacheShards);
  auto opened = DSLog::OpenInSitu(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const DSLog& insitu = opened.value();

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 30;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(2000 + LogStore::kCacheShards * 100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // Few arrays: every thread keeps re-touching the same edges, so
        // hits, misses, evictions, and resolve races all interleave.
        int from = static_cast<int>(rng.Uniform(kEdges + 1));
        int to = static_cast<int>(rng.Uniform(kEdges + 1));
        if (from == to) to = (to + 1) % (kEdges + 1);
        const int64_t cell = static_cast<int64_t>(rng.Uniform(32));
        auto got = insitu.ProvQuery(ChainPath(from, to),
                                    BoxTable::FromCells(1, {cell}));
        if (!got.ok() ||
            got.value().ExpandToCells() != std::vector<int64_t>{cell})
          ++failures[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;

  LogStoreStats stats = insitu.log_store()->stats();
  EXPECT_EQ(stats.segments_touched, kEdges);
  // The tiny budget must actually have churned the shared stripes, and the
  // aggregate counters must balance across stripes: every query is at
  // least one lookup (hit or miss), and every miss resolved — racing
  // resolvers may each count a decode, so decode_count can exceed the
  // number of cache insertions but never undershoot distinct segments.
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GE(stats.cache_hits + stats.cache_misses,
            static_cast<int64_t>(kThreads) * kQueriesPerThread);
  EXPECT_GE(stats.decode_count, stats.segments_touched);
}

TEST(LogStoreConcurrencyTest, StatsSnapshotsAreConsistentUnderLoad) {
  // The LogStoreStats satellite: a stats() reader racing 8 View() writer
  // threads must never observe a torn snapshot. The live counters are
  // per-shard relaxed atomics written only under the shard mutex, and
  // stats() sums per-shard cuts taken under each mutex — so the invariants
  // documented on LogStoreStats must hold in EVERY intermediate snapshot,
  // not just at quiescence. Mixed-layout store so both fill kinds
  // (materialized gzip decode, zero-copy columnar borrow) are in play.
  DSLog log;
  BuildChain(&log, 0, 4, 32);
  const std::string path = TestPath("stats_consistency.dsl");
  ASSERT_TRUE(log.SaveLogStore(path, SegmentLayout::kProvRcGzip).ok());
  BuildChain(&log, 4, 4, 32);
  ASSERT_TRUE(log.AppendLogStore(path).ok());

  auto opened = LogStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const LogStore& store = *opened.value();
  const int64_t num_segments = static_cast<int64_t>(store.segment_count());
  ASSERT_EQ(num_segments, 8);

  constexpr int kThreads = 8;
  constexpr int kViewsPerThread = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> view_failures{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const LogStoreStats s = store.stats();
      EXPECT_EQ(s.segment_count, num_segments);
      EXPECT_LE(s.segments_touched, num_segments);
      EXPECT_LE(s.segments_touched, s.decode_count);
      EXPECT_LE(s.decode_count, s.cache_misses);
      EXPECT_EQ(s.tables_materialized + s.segments_borrowed, s.decode_count);
      EXPECT_GE(s.cache_hits, 0);
      EXPECT_GE(s.bytes_decompressed, 0);
      EXPECT_GE(s.rows_materialized, 0);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(3000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kViewsPerThread; ++i) {
        const size_t id = static_cast<size_t>(rng.Uniform(
            static_cast<uint64_t>(num_segments)));
        if (!store.View(id).ok()) ++view_failures;
      }
    });
  }
  for (auto& thread : writers) thread.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(view_failures.load(), 0);

  // At quiescence the totals are exact: every View() was a hit or a miss,
  // all 8 segments were touched, gzip fills materialized rows while
  // columnar fills borrowed.
  const LogStoreStats s = store.stats();
  EXPECT_EQ(s.cache_hits + s.cache_misses,
            static_cast<int64_t>(kThreads) * kViewsPerThread);
  EXPECT_EQ(s.segments_touched, num_segments);
  EXPECT_EQ(s.tables_materialized + s.segments_borrowed, s.decode_count);
  EXPECT_GT(s.tables_materialized, 0);  // the 4 gzip segments
  EXPECT_GT(s.segments_borrowed, 0);    // the 4 columnar segments
  EXPECT_GT(s.bytes_decompressed, 0);
  EXPECT_GT(s.rows_materialized, 0);
}

}  // namespace
}  // namespace dslog
