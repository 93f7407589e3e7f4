// LogStore: the single-file, segmented on-disk catalog format behind
// DSLog::OpenInSitu. Layout:
//
//   +------------------+ offset 0
//   | header  "DSLSTOR1"|  8 bytes
//   +------------------+ offset 8
//   | segment 0        |  one serialized CompressedTable per stored edge,
//   | segment 1        |  back to back; two layouts coexist in one file:
//   | ...              |    kProvRcGzip = ProvRC-GZip (compact,
//   |                  |                  decode-to-owned)
//   |                  |    kColumnar   = PRC2 columnar (8-aligned; the
//   |                  |                  on-disk bytes are the kernels'
//   |                  |                  scan format)
//   +------------------+ footer_offset
//   | footer           |  footer version 4 (8-aligned in the file): the
//   |                  |  varint prelude (version, array catalog, predictor
//   |                  |  blob), zero-padding to 8, then a flat index read
//   |                  |  in place with zero deserialization —
//   |                  |    u64 num_segments | u64 name_heap_size
//   |                  |    | u64 phf_size
//   |                  |    | fixed 88-byte segment records x num_segments
//   |                  |    | name heap | pad to 8 | PHF block (common/phf)
//   |                  |  Records sit in minimal-perfect-hash position
//   |                  |  order: the PHF position of an edge key IS its
//   |                  |  segment id, so an edge probe is hash -> PHF ->
//   |                  |  one name memcmp, with no map ever materialized.
//   +------------------+ file_size - 20
//   | trailer          |  fixed64 footer_offset | fixed64 footer checksum
//   |                  |  | magic "DSLF"
//   +------------------+ file_size
//
// A reader maps the file once (mmap, with a whole-file read fallback into
// an 8-aligned buffer) and parses only the footer; segments resolve lazily
// on first touch through a size-bounded LRU cache. A kProvRcGzip segment
// decompresses into an owned table; a kColumnar segment is always
// *borrowed*: the cache entry holds a CompressedTableView aliasing the
// mapped bytes plus the backward-join interval index — zero bytes
// decompressed, zero rows materialized (LogStoreStats counts both). A
// columnar record whose offset is not 8-aligned is Corruption (writers
// always align them).
// The forward-join index is built on the entry's first forward hop only,
// never at resolve, and is never persisted; its bytes are charged to the
// entry's cache shard when it is built.
// Segment checksums are always verified at first touch (and the footer
// checksum at open), turning any flipped byte or truncation into
// Status::Corruption instead of UB. The footer checksums with the wide 8-byte-lane hash
// (hash.h Hash64Wide) so open stays fast on million-edge catalogs. A
// footer of any version other than 4 is rejected as Corruption.
//
// Edge lookup: the reader binds a PhfView over the footer's PHF block —
// O(1) per probe, the per-key fingerprint rejects absent edges before any
// record or segment byte is read, and a candidate hit is confirmed against
// the name heap so a false fingerprint match can never serve a wrong
// segment. A file whose PHF block is empty (written with build_phf=false,
// or after a failed PHF build) falls back to an edge-name map built lazily
// on the first name lookup, so stats()-only and id-addressed opens never
// pay for it.
//
// Thread-safety: LogStore is safe for concurrent readers. The decode cache
// is lock-striped: segments map to kCacheShards = 8 shards (id mod 8),
// each with its own mutex, LRU list, and byte budget, so readers
// resolving different segments never contend on one cache lock.
// Decompression/index builds run outside every lock (two threads racing on
// the same cold segment may both resolve it — both results are valid and
// one wins the cache slot).
//
// Writing goes through LogStoreWriter: Create() builds a fresh file and
// commits it atomically (temp file + rename) in Finish(); OpenForAppend()
// extends an existing file in place by overwriting its footer with new
// segments and writing a fresh footer/trailer — a crash mid-append leaves
// an invalid trailer, which Open() reports as Corruption (detected, never
// silently torn), while all previously committed segment bytes remain
// intact in the file.

#ifndef DSLOG_STORAGE_LOGSTORE_H_
#define DSLOG_STORAGE_LOGSTORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/mmap_file.h"
#include "common/phf.h"
#include "common/result.h"
#include "common/status.h"
#include "provrc/compressed_table.h"
#include "provrc/interval_index.h"

namespace dslog {

/// Canonical map key for an edge in_arr -> out_arr, shared by the DSLog
/// catalog and the LogStoreWriter index — one scheme, so dedup/replace
/// decisions always agree.
inline std::string EdgeStoreKey(std::string_view in_arr,
                                std::string_view out_arr) {
  std::string key;
  key.reserve(in_arr.size() + 1 + out_arr.size());
  key.append(in_arr);
  key.push_back('\x1f');
  key.append(out_arr);
  return key;
}

/// FNV-64 of EdgeStoreKey(in_arr, out_arr) computed piecewise — no key
/// string is ever materialized. This is the key hash the PHF index is
/// built over; writer and reader must agree on it byte for byte.
inline uint64_t EdgeKeyHash(std::string_view in_arr,
                            std::string_view out_arr) {
  uint64_t h = Hash64(in_arr);
  h = Hash64("\x1f", 1, h);
  return Hash64(out_arr, h);
}

/// On-disk encoding of one segment's table bytes.
enum class SegmentLayout : uint32_t {
  /// ProvRC-GZip (the paper's storage default): smallest bytes, decoded
  /// into an owned table on first touch.
  kProvRcGzip = 1,
  /// PRC2 flat columnar: the scan format itself — queried zero-copy from
  /// the mapping. Larger on disk; no decode latency or allocation.
  kColumnar = 2,
};

struct LogStoreOptions {
  /// Budget for resolved segments kept resident (approximate bytes: decoded
  /// gzip tables, and interval indexes — backward, and forward once built).
  /// Least-recently-used segments are evicted past it; in-flight queries
  /// keep their pinned entries alive regardless.
  /// The budget is split in equal slices over the decode cache's
  /// LogStore::kCacheShards lock stripes (never below 1 byte per stripe,
  /// so eviction still engages on tiny budgets).
  int64_t cache_capacity_bytes = 64ll << 20;
};

/// Decode/cache counters (test + bench observability), returned by
/// LogStore::stats(). Each cache shard keeps one of these, read and written
/// only under the shard's mutex, so every shard's counters are a
/// consistent cut (its invariants hold: decode_count <= cache_misses,
/// tables_materialized + segments_borrowed == decode_count,
/// segments_touched <= decode_count). Cross-shard skew is bounded to
/// events that complete while stats() walks the shards — every event is
/// counted in exactly one shard, so totals are exact once readers quiesce.
/// These counters have no registry mirror: a server reports each mounted
/// store's stats() under "stores" in its kStats JSON.
struct LogStoreStats {
  int64_t segment_count = 0;
  /// Distinct segments resolved at least once since open.
  int64_t segments_touched = 0;
  /// Total cache-fill events (>= segments_touched when eviction re-fills).
  int64_t decode_count = 0;
  /// Compressed bytes consumed by gzip decodes (0 on a pure-columnar store).
  int64_t bytes_decompressed = 0;
  /// Cache fills that built an owned CompressedTable (gzip decodes).
  int64_t tables_materialized = 0;
  /// Rows copied into owned arenas by those fills. A zero-copy columnar path
  /// query keeps this at 0 — the acceptance signal that no per-row data
  /// was allocated in the decode path.
  int64_t rows_materialized = 0;
  /// Cache fills that borrowed a columnar view straight from the mapping.
  int64_t segments_borrowed = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t evictions = 0;
};

/// Read side: a mapped log file serving lazily-resolved edge tables.
class LogStore {
 public:
  /// Lock stripes of the decode cache: segment `id` lives in stripe
  /// id % kCacheShards, with its own mutex, LRU list and budget slice.
  static constexpr size_t kCacheShards = 8;

  struct SegmentInfo {
    std::string in_arr;
    std::string out_arr;
    std::string op_name;
    uint64_t offset = 0;  // absolute file offset of the segment bytes
    uint64_t length = 0;
    uint64_t checksum = 0;  // FNV-64 over the segment bytes
    SegmentLayout layout = SegmentLayout::kProvRcGzip;
    int64_t row_count = -1;  // -1 = unknown
  };

  /// A resolved segment: the scan view, the join index for the requested
  /// hop direction, and a pin keeping both (and any owned arena behind the
  /// view) alive across cache evictions for as long as the caller holds it.
  struct PinnedTable {
    CompressedTableView view;
    const IntervalIndex* index = nullptr;
    std::shared_ptr<const void> pin;
  };

  /// Maps `path`, validates header/trailer/footer (footer checksum
  /// included), and indexes the segments. No segment is resolved.
  static Result<std::unique_ptr<LogStore>> Open(
      const std::string& path, const LogStoreOptions& options = {});

  const std::map<std::string, std::vector<int64_t>>& arrays() const {
    return arrays_;
  }

  /// Number of indexed segments. O(1).
  size_t segment_count() const { return num_segments_; }

  /// Metadata of segment `id` by value, decoded on the fly from the
  /// footer's flat record (three short string copies) — use the
  /// field-level accessors below on hot paths.
  SegmentInfo segment_info(size_t id) const;

  /// On-disk byte length of segment `id` without materializing names.
  int64_t segment_length(size_t id) const;

  /// Segment id of edge in_arr -> out_arr, or -1 when the store holds no
  /// such edge. With a PHF: one hash, one O(1) PHF probe, one name memcmp
  /// — the fingerprint rejects absent edges before any record bytes are
  /// touched, and the name check means a fingerprint false positive can
  /// never return a wrong segment. Fallback (empty PHF block): an owned
  /// edge-name map built lazily on the first call.
  Result<int64_t> FindSegmentId(std::string_view in_arr,
                                std::string_view out_arr) const;

  /// How edge lookups resolve on this store (observability: inspect tool,
  /// benches).
  enum class EdgeIndexKind { kPhf, kLazyMap };
  EdgeIndexKind edge_index_kind() const {
    return phf_enabled_ ? EdgeIndexKind::kPhf : EdgeIndexKind::kLazyMap;
  }
  /// Index size accounting; 0 bits/key on the map path (nothing on disk).
  double index_bits_per_key() const {
    return phf_enabled_ ? phf_.bits_per_key() : 0.0;
  }
  uint32_t index_fingerprint_bits() const {
    return phf_enabled_ ? phf_.fingerprint_bits() : 0;
  }
  /// True once the lazy fallback name map exists (test hook: proves that
  /// stats()-only and id-addressed opens never built it).
  bool name_index_built() const {
    return name_map_built_.load(std::memory_order_acquire);
  }

  /// Serialized ReusePredictor state ("" when the file carries none).
  const std::string& predictor_state() const { return predictor_state_; }

  /// Per-call observability record of one View() resolution (profiling).
  /// Costs nothing beyond two clock reads on the cold-resolve path; the
  /// cache-hit path fills only the booleans/bytes.
  struct ViewEvent {
    bool cache_hit = false;
    bool borrowed = false;             // columnar zero-copy borrow
    int64_t segment_bytes = 0;         // on-disk segment length
    int64_t bytes_decompressed = 0;    // gzip input consumed (0 on hit/borrow)
    int64_t rows_materialized = 0;     // rows copied into owned arenas
    int64_t resolve_us = 0;            // checksum + decode + index build
  };

  /// The scan view of segment `id`, resolving on first touch (gzip decode,
  /// or a zero-copy borrow for a columnar segment) and serving repeats
  /// from the LRU cache. This is the query path. `forward` selects the
  /// index handed out: the backward-join index (built at resolve) or the
  /// forward-join index (built once per resolution, on the first forward
  /// request, and charged to the cache budget). `ev`, when non-null,
  /// receives how this call resolved (profiled queries thread it into
  /// their HopProfile).
  Result<PinnedTable> View(size_t id, bool forward = false,
                           ViewEvent* ev = nullptr) const;

  /// The segment as an owned CompressedTable (bench/test hook). A gzip
  /// segment serves the cached decode; a columnar one materializes a fresh
  /// owned copy per call — query code should use View().
  Result<std::shared_ptr<const CompressedTable>> Table(size_t id) const;

  /// Raw (still-serialized) bytes of segment `id` — zero-copy view into
  /// the mapping. Lets savers/appenders shuttle segments without a
  /// decode/re-encode round trip. Corruption when the record's extent
  /// lies outside the file (the footer checksum cannot vouch for it).
  Result<std::string_view> SegmentView(size_t id) const;

  LogStoreStats stats() const;

  const std::string& path() const { return path_; }
  int64_t file_size() const { return static_cast<int64_t>(file_.size()); }
  bool mapped() const { return file_.mapped(); }

 private:
  LogStore() = default;

  /// One cached resolution: `table` owns the arenas for gzip decodes
  /// (null for columnar borrows, whose view aliases the mapping), `index`
  /// is always built. `forward_index` is built at most once, on the first
  /// forward View() of this resolution (an evicted and re-resolved segment
  /// builds a fresh one). Handed out via shared_ptr so pins survive eviction.
  struct ResolvedSegment {
    std::shared_ptr<const CompressedTable> table;
    CompressedTableView view;
    IntervalIndex index;
    mutable std::once_flag forward_once;
    mutable IntervalIndex forward_index;  // written only under forward_once
  };

  struct CacheEntry {
    std::shared_ptr<const ResolvedSegment> segment;
    int64_t charge = 0;
    std::list<size_t>::iterator lru_it;
  };

  /// Checksum-verifies and resolves segment bytes into a ResolvedSegment.
  /// Runs outside the cache lock.
  Result<std::shared_ptr<const ResolvedSegment>> ResolveSegment(
      size_t id, int64_t* charge, int64_t* decompressed, bool* borrowed,
      int64_t* rows_copied) const;

  /// One lock stripe of the decode cache: segments with
  /// id % kCacheShards == this shard's index. Stats are kept per shard and
  /// summed in stats() so the hot path never touches a shared counter.
  struct CacheShard {
    std::mutex mu;  // guards everything below
    std::unordered_map<size_t, CacheEntry> cache;
    std::list<size_t> lru;  // front = most recent
    int64_t bytes = 0;
    LogStoreStats stats;  // segment_count unused per shard
  };

  CacheShard& ShardFor(size_t id) const {
    return cache_stripes_[id % kCacheShards];
  }

  /// Builds `seg`'s forward index on first call (outside every lock), then
  /// charges its bytes to segment `id`'s cache entry if `seg` is still the
  /// cached resolution. Returns the index.
  const IntervalIndex* ForwardIndexOf(size_t id,
                                      const ResolvedSegment& seg) const;

  /// Evicts least-recently-used entries past the shard's budget slice,
  /// never the most recent one. Caller holds shard.mu.
  void EvictOverBudget(CacheShard& shard) const;

  /// First byte of segment `id`'s flat footer record.
  const char* Rec(size_t id) const;
  /// Builds the lazy fallback name map (first name lookup only).
  void BuildNameMap() const;

  std::string path_;
  MmapFile file_;
  std::map<std::string, std::vector<int64_t>> arrays_;
  size_t num_segments_ = 0;
  /// Footer views into the mapped file.
  std::string_view seg_records_;
  std::string_view name_heap_;
  /// Bound PHF edge index (empty block -> disabled).
  PhfView phf_;
  bool phf_enabled_ = false;
  /// Lazy fallback edge-name map: EdgeStoreKey -> segment id. Built at
  /// most once, on the first name lookup that cannot go through the PHF.
  mutable std::once_flag name_map_once_;
  mutable std::unordered_map<std::string, size_t> name_map_;
  mutable std::atomic<bool> name_map_built_{false};
  mutable bool name_map_corrupt_ = false;  // set during BuildNameMap only
  std::string predictor_state_;

  /// Striped cache state. A LogStore is only handed out behind
  /// unique_ptr/shared_ptr, so the non-movable shard array is fine.
  /// Per-shard byte budget: see LogStoreOptions::cache_capacity_bytes.
  int64_t shard_capacity_bytes_ = 0;
  mutable std::array<CacheShard, kCacheShards> cache_stripes_;
  /// Per-segment resolved-once flag. Entry `id` is only read/written under
  /// its owning shard's mutex — distinct ids are distinct memory locations,
  /// so cross-shard access is race-free without a global lock.
  mutable std::vector<uint8_t> touched_;
};

struct LogStoreWriterOptions {
  /// Build the minimal-perfect-hash edge index into the footer. When off
  /// (or if construction fails, e.g. a 64-bit key-hash collision) the
  /// footer carries an empty PHF block and readers use the lazy map.
  bool build_phf = true;
};

/// Write side: builds or extends a LogStore file.
class LogStoreWriter {
 public:
  /// Starts a fresh store. Nothing exists at `path` until Finish(), which
  /// commits the whole file atomically (temp + rename).
  static Result<LogStoreWriter> Create(std::string path,
                                       const LogStoreWriterOptions& options = {});

  /// Opens an existing store for incremental append: prior arrays, edges,
  /// and predictor state are retained; new segments are written over the
  /// old footer and a fresh footer/trailer seals the file in Finish().
  static Result<LogStoreWriter> OpenForAppend(
      std::string path, const LogStoreWriterOptions& options = {});

  /// Registers (or re-registers, idempotently) an array.
  void PutArray(const std::string& name, std::vector<int64_t> shape);

  /// True when an edge in_arr -> out_arr is already indexed (so appenders
  /// can skip segments that are already on disk).
  bool HasEdge(const std::string& in_arr, const std::string& out_arr) const;

  /// The indexed segment for an edge, or nullptr. Appenders compare its
  /// checksum/length against the candidate bytes to detect (and persist)
  /// re-registered edges whose lineage changed.
  const LogStore::SegmentInfo* FindSegment(const std::string& in_arr,
                                           const std::string& out_arr) const;

  /// Serializes `table` in `layout` and appends it as the segment for edge
  /// in_arr -> out_arr, replacing any previous index entry for the same
  /// edge (the older segment's bytes become dead space). Columnar segments
  /// are 8-aligned in the file so readers can borrow them zero-copy.
  Status AppendEdge(const std::string& in_arr, const std::string& out_arr,
                    const std::string& op_name, const CompressedTable& table,
                    SegmentLayout layout = SegmentLayout::kColumnar);

  /// Same, but with pre-serialized segment bytes in `layout` (e.g. another
  /// store's SegmentView) — no decode/re-encode.
  /// `row_count` is carried into the footer (-1 = unknown).
  Status AppendRawSegment(const std::string& in_arr,
                          const std::string& out_arr,
                          const std::string& op_name,
                          std::string_view bytes,
                          SegmentLayout layout = SegmentLayout::kProvRcGzip,
                          int64_t row_count = -1);

  /// Attaches the serialized reuse-predictor state ("" to clear).
  void SetPredictorState(std::string blob);

  /// Writes footer + trailer and commits. The writer is spent afterwards.
  Status Finish();

  int64_t segment_count() const {
    return static_cast<int64_t>(segments_.size());
  }

 private:
  LogStoreWriter() = default;

  LogStoreWriterOptions options_;
  bool appending_ = false;
  std::string path_;
  uint64_t base_offset_ = 0;   // file offset where new_bytes_ lands
  uint64_t old_file_size_ = 0; // append mode: size before reopening
  std::string new_bytes_;      // segments appended since open
  std::map<std::string, std::vector<int64_t>> arrays_;
  std::vector<LogStore::SegmentInfo> segments_;
  std::map<std::string, size_t> edge_index_;  // EdgeKey -> segments_ index
  std::string predictor_state_;
  bool finished_ = false;
};

}  // namespace dslog

#endif  // DSLOG_STORAGE_LOGSTORE_H_
