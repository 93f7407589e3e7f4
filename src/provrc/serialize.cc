#include "provrc/serialize.h"

#include <bit>
#include <cstring>
#include <string_view>

#include "compress/deflate.h"
#include "compress/varint.h"

namespace dslog {

namespace {
constexpr char kMagic[4] = {'P', 'R', 'C', '1'};

void PutInterval(std::string* dst, const Interval& iv, int64_t* prev_lo) {
  PutVarintSigned(dst, iv.lo - *prev_lo);
  PutVarint64(dst, static_cast<uint64_t>(iv.width() - 1));
  *prev_lo = iv.lo;
}

bool GetInterval(std::string_view src, size_t* pos, Interval* iv,
                 int64_t* prev_lo) {
  int64_t dlo;
  uint64_t w;
  if (!GetVarintSigned(src, pos, &dlo)) return false;
  if (!GetVarint64(src, pos, &w)) return false;
  iv->lo = *prev_lo + dlo;
  iv->hi = iv->lo + static_cast<int64_t>(w);
  *prev_lo = iv->lo;
  return true;
}

}  // namespace

std::string SerializeCompressedTable(const CompressedTable& table) {
  std::string out;
  out.append(kMagic, 4);
  const int l = table.out_ndim();
  const int m = table.in_ndim();
  PutVarint64(&out, static_cast<uint64_t>(l));
  PutVarint64(&out, static_cast<uint64_t>(m));
  for (int64_t d : table.out_shape()) PutVarint64(&out, static_cast<uint64_t>(d));
  for (int64_t d : table.in_shape()) PutVarint64(&out, static_cast<uint64_t>(d));
  PutVarint64(&out, static_cast<uint64_t>(table.num_rows()));

  // Per-attribute cross-row delta state.
  std::vector<int64_t> prev_out(static_cast<size_t>(l), 0);
  std::vector<int64_t> prev_in(static_cast<size_t>(m), 0);
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int k = 0; k < l; ++k)
      PutInterval(&out, table.out_iv(r, k), &prev_out[static_cast<size_t>(k)]);
    for (int i = 0; i < m; ++i) {
      const int32_t ref = table.in_ref(r, i);
      // Tag byte: bit 0 = relative, bits 1.. = ref.
      uint8_t tag =
          ref >= 0 ? static_cast<uint8_t>(1u | (static_cast<uint32_t>(ref) << 1))
                   : 0;
      out.push_back(static_cast<char>(tag));
      PutInterval(&out, table.in_iv(r, i), &prev_in[static_cast<size_t>(i)]);
    }
  }
  return out;
}

Result<CompressedTable> DeserializeCompressedTable(std::string_view data) {
  if (data.size() < 4 || std::memcmp(data.data(), kMagic, 4) != 0)
    return Status::Corruption("PRC1: bad magic");
  size_t pos = 4;
  uint64_t l, m;
  if (!GetVarint64(data, &pos, &l) || !GetVarint64(data, &pos, &m))
    return Status::Corruption("PRC1: bad arity");
  // ProvRC tables always have at least one attribute per side; zero arity
  // would also make the row loop consume no bytes (and divide by zero in
  // the reserve bound below), so it is rejected as corruption.
  if (l == 0 || l > 64 || m == 0 || m > 64)
    return Status::Corruption("PRC1: absurd arity");
  std::vector<int64_t> out_shape(l), in_shape(m);
  for (auto& d : out_shape) {
    uint64_t v;
    if (!GetVarint64(data, &pos, &v)) return Status::Corruption("PRC1: shape");
    d = static_cast<int64_t>(v);
  }
  for (auto& d : in_shape) {
    uint64_t v;
    if (!GetVarint64(data, &pos, &v)) return Status::Corruption("PRC1: shape");
    d = static_cast<int64_t>(v);
  }
  uint64_t nrows;
  if (!GetVarint64(data, &pos, &nrows))
    return Status::Corruption("PRC1: row count");

  CompressedTable table(out_shape, in_shape);
  // Reserve from the claimed row count, bounded by what the remaining bytes
  // could possibly encode (>= 2 bytes per interval cell), so a corrupt count
  // cannot trigger an absurd allocation.
  const uint64_t plausible =
      std::min<uint64_t>(nrows, data.size() / (2 * (l + m)) + 1);
  table.Reserve(static_cast<int64_t>(plausible));
  std::vector<Interval> row_out(l);
  std::vector<Interval> row_in(m);
  std::vector<int32_t> row_ref(m);
  std::vector<int64_t> prev_out(l, 0), prev_in(m, 0);
  for (uint64_t r = 0; r < nrows; ++r) {
    for (size_t k = 0; k < l; ++k)
      if (!GetInterval(data, &pos, &row_out[k], &prev_out[k]))
        return Status::Corruption("PRC1: truncated out interval");
    for (size_t k = 0; k < m; ++k) {
      if (pos >= data.size()) return Status::Corruption("PRC1: truncated tag");
      uint8_t tag = static_cast<uint8_t>(data[pos++]);
      if (tag & 1u) {
        row_ref[k] = static_cast<int32_t>(tag >> 1);
        if (row_ref[k] >= static_cast<int32_t>(l))
          return Status::Corruption("PRC1: bad relative ref");
      } else {
        row_ref[k] = -1;
      }
      if (!GetInterval(data, &pos, &row_in[k], &prev_in[k]))
        return Status::Corruption("PRC1: truncated in interval");
    }
    table.AppendRowRaw(row_out.data(), row_in.data(), row_ref.data());
  }
  return table;
}

std::string SerializeCompressedTableGzip(const CompressedTable& table) {
  return DeflateCompress(SerializeCompressedTable(table));
}

Result<CompressedTable> DeserializeCompressedTableGzip(std::string_view data) {
  DSLOG_ASSIGN_OR_RETURN(std::string raw, DeflateDecompress(data));
  return DeserializeCompressedTable(raw);
}

// ------------------------------------------------------- columnar (PRC2) --

// Layout (all little-endian, every array 8-byte aligned relative to the
// image start; the LogStore writer 8-aligns segment offsets so an aligned
// mapping yields aligned columns):
//
//   0   magic "PRCCOLV2"                      8 bytes
//   8   uint32 out_ndim | uint32 in_ndim      8 bytes
//   16  uint64 num_rows                       8 bytes
//   24  int64 out_shape[l], int64 in_shape[m]
//       int64 lo[num_rows * (l + m)]
//       int64 hi[num_rows * (l + m)]
//       int32 ref[num_rows * m], zero-padded to a multiple of 8
//
// The arena layout is exactly CompressedTableView's, so borrowing is a
// pointer fixup, not a decode.

static_assert(std::endian::native == std::endian::little,
              "PRC2 columnar images are little-endian; big-endian hosts "
              "need byte-swapping decode support");

namespace {

constexpr char kColumnarMagic[8] = {'P', 'R', 'C', 'C', 'O', 'L', 'V', '2'};
constexpr size_t kColumnarHeaderBytes = 24;

size_t PadTo8(size_t n) { return (n + 7) & ~size_t{7}; }

struct ColumnarExtents {
  size_t shape_bytes;
  size_t arena_cells;  // num_rows * (l + m)
  size_t ref_cells;    // num_rows * m
  size_t total_bytes;
};

ColumnarExtents ExtentsFor(uint64_t l, uint64_t m, uint64_t rows) {
  ColumnarExtents e;
  e.shape_bytes = static_cast<size_t>(l + m) * 8;
  e.arena_cells = static_cast<size_t>(rows * (l + m));
  e.ref_cells = static_cast<size_t>(rows * m);
  e.total_bytes = kColumnarHeaderBytes + e.shape_bytes + 2 * e.arena_cells * 8 +
                  PadTo8(e.ref_cells * 4);
  return e;
}

void AppendRaw(std::string* dst, const void* src, size_t bytes) {
  dst->append(reinterpret_cast<const char*>(src), bytes);
}

/// Header + structural validation shared by borrow and owned decode.
/// On success fills l/m/rows and the extents.
Status ParseColumnarHeader(std::string_view data, uint64_t* l, uint64_t* m,
                           uint64_t* rows, ColumnarExtents* extents) {
  if (data.size() < kColumnarHeaderBytes ||
      std::memcmp(data.data(), kColumnarMagic, sizeof(kColumnarMagic)) != 0)
    return Status::Corruption("PRC2: bad magic");
  uint32_t l32, m32;
  uint64_t rows64;
  std::memcpy(&l32, data.data() + 8, 4);
  std::memcpy(&m32, data.data() + 12, 4);
  std::memcpy(&rows64, data.data() + 16, 8);
  if (l32 == 0 || l32 > 64 || m32 == 0 || m32 > 64)
    return Status::Corruption("PRC2: absurd arity");
  // Row count must be consistent with the image size before any multiply
  // can overflow: the arenas alone need 16 bytes per row-cell.
  if (rows64 > data.size() / (16 * (l32 + m32)) + 1)
    return Status::Corruption("PRC2: absurd row count");
  *l = l32;
  *m = m32;
  *rows = rows64;
  *extents = ExtentsFor(l32, m32, rows64);
  if (data.size() != extents->total_bytes)
    return Status::Corruption("PRC2: image size mismatch");
  return Status::OK();
}

/// Refs must stay in [-1, l): a corrupt ref would index out of the t[]
/// scratch inside the join kernels.
Status ValidateRefs(const int32_t* ref, size_t count, uint64_t l) {
  for (size_t i = 0; i < count; ++i)
    if (ref[i] < -1 || ref[i] >= static_cast<int32_t>(l))
      return Status::Corruption("PRC2: relative ref out of range");
  return Status::OK();
}

}  // namespace

std::string SerializeCompressedTableColumnar(const CompressedTable& table) {
  const uint32_t l = static_cast<uint32_t>(table.out_ndim());
  const uint32_t m = static_cast<uint32_t>(table.in_ndim());
  const uint64_t rows = static_cast<uint64_t>(table.num_rows());
  const ColumnarExtents e = ExtentsFor(l, m, rows);
  std::string out;
  out.reserve(e.total_bytes);
  out.append(kColumnarMagic, sizeof(kColumnarMagic));
  AppendRaw(&out, &l, 4);
  AppendRaw(&out, &m, 4);
  AppendRaw(&out, &rows, 8);
  AppendRaw(&out, table.out_shape().data(), l * 8);
  AppendRaw(&out, table.in_shape().data(), m * 8);
  AppendRaw(&out, table.lo_data(), e.arena_cells * 8);
  AppendRaw(&out, table.hi_data(), e.arena_cells * 8);
  AppendRaw(&out, table.ref_data(), e.ref_cells * 4);
  out.resize(e.total_bytes, '\0');  // zero pad to 8
  return out;
}

Result<CompressedTableView> BorrowColumnarTable(std::string_view data) {
  uint64_t l, m, rows;
  ColumnarExtents e;
  DSLOG_RETURN_IF_ERROR(ParseColumnarHeader(data, &l, &m, &rows, &e));
  if (reinterpret_cast<uintptr_t>(data.data()) % 8 != 0)
    return Status::Corruption("PRC2: image not 8-byte aligned");
  const char* base = data.data() + kColumnarHeaderBytes;
  CompressedTableView v;
  v.out_shape = reinterpret_cast<const int64_t*>(base);
  v.in_shape = v.out_shape + l;
  v.lo = reinterpret_cast<const int64_t*>(base + e.shape_bytes);
  v.hi = v.lo + e.arena_cells;
  v.ref = reinterpret_cast<const int32_t*>(base + e.shape_bytes +
                                           2 * e.arena_cells * 8);
  v.out_ndim = static_cast<int32_t>(l);
  v.in_ndim = static_cast<int32_t>(m);
  v.num_rows = static_cast<int64_t>(rows);
  DSLOG_RETURN_IF_ERROR(ValidateRefs(v.ref, e.ref_cells, l));
  return v;
}

Result<CompressedTable> DeserializeCompressedTableColumnar(
    std::string_view data) {
  uint64_t l, m, rows;
  ColumnarExtents e;
  DSLOG_RETURN_IF_ERROR(ParseColumnarHeader(data, &l, &m, &rows, &e));
  const char* base = data.data() + kColumnarHeaderBytes;
  std::vector<int64_t> out_shape(l), in_shape(m);
  std::memcpy(out_shape.data(), base, l * 8);
  std::memcpy(in_shape.data(), base + l * 8, m * 8);
  CompressedTable table(std::move(out_shape), std::move(in_shape));
  table.Reserve(static_cast<int64_t>(rows));
  const char* lo_base = base + e.shape_bytes;
  const char* hi_base = lo_base + e.arena_cells * 8;
  const char* ref_base = hi_base + e.arena_cells * 8;
  // Copy the ref arena once (memcpy is alignment-agnostic) and validate it
  // with the same helper the borrow path uses.
  std::vector<int32_t> refs(e.ref_cells);
  std::memcpy(refs.data(), ref_base, e.ref_cells * 4);
  DSLOG_RETURN_IF_ERROR(ValidateRefs(refs.data(), e.ref_cells, l));
  const size_t w = static_cast<size_t>(l + m);
  std::vector<Interval> row_out(l), row_in(m);
  for (uint64_t r = 0; r < rows; ++r) {
    for (size_t k = 0; k < w; ++k) {
      int64_t lo, hi;
      std::memcpy(&lo, lo_base + (r * w + k) * 8, 8);
      std::memcpy(&hi, hi_base + (r * w + k) * 8, 8);
      if (k < l)
        row_out[k] = {lo, hi};
      else
        row_in[k - l] = {lo, hi};
    }
    table.AppendRowRaw(row_out.data(), row_in.data(), refs.data() + r * m);
  }
  return table;
}

}  // namespace dslog
