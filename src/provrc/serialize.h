// On-disk serialization of compressed lineage tables.
//
// Two codecs:
//  - PRC1 (varint): the compact encoding of Table VII — zigzag varint
//    interval cells with per-attribute cross-row delta coding. The plain
//    form is the paper's "ProvRC"; Deflate-wrapped it is "ProvRC-GZip"
//    (the kProvRcGzip LogStore segment). Always decodes to an owned table.
//  - PRC2 (columnar): a flat little-endian image of the SoA arenas — the
//    exact in-memory scan format of the θ-join kernels. A kColumnar
//    LogStore segment is queried zero-copy: BorrowColumnarTable
//    returns a CompressedTableView aliasing the mapped bytes, no decode,
//    no per-row allocation. Bigger on disk than PRC1; that trade (bytes
//    for scan latency) is the point.

#ifndef DSLOG_PROVRC_SERIALIZE_H_
#define DSLOG_PROVRC_SERIALIZE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "provrc/compressed_table.h"

namespace dslog {

/// Compact binary encoding: varint/zigzag interval cells with per-attribute
/// cross-row delta coding (so even incompressible tables like Sort stay
/// close to entropy).
std::string SerializeCompressedTable(const CompressedTable& table);

/// Inverse of SerializeCompressedTable. Takes any contiguous byte view
/// (std::string converts implicitly), so segments of a memory-mapped
/// LogStore file decode without an intermediate copy.
Result<CompressedTable> DeserializeCompressedTable(std::string_view data);

/// Deflate-wrapped serialization (ProvRC-GZip).
std::string SerializeCompressedTableGzip(const CompressedTable& table);

/// Inverse of SerializeCompressedTableGzip.
Result<CompressedTable> DeserializeCompressedTableGzip(std::string_view data);

// ------------------------------------------------------- columnar (PRC2) --

/// Flat columnar image of the table: 8-byte-aligned header (magic, arity,
/// row count), shape dims, then the lo/hi/ref arenas verbatim. The bytes
/// are the scan format — a reader with an aligned mapping borrows them
/// in place. Deterministic (byte-identical for equal tables).
std::string SerializeCompressedTableColumnar(const CompressedTable& table);

/// Zero-copy borrow: validates the image (structure, sizes, ref bounds)
/// and returns a view aliasing `data`. The caller must keep `data` alive
/// for the view's lifetime. Fails with kCorruption on malformed bytes and
/// when `data` is not 8-byte aligned: LogStore writers 8-align columnar
/// segments and every LogStore backing is 8-aligned, so a misaligned image
/// can only come from a forged record.
Result<CompressedTableView> BorrowColumnarTable(std::string_view data);

/// Owned decode of a columnar image (alignment-agnostic; the path for
/// callers that need a CompressedTable rather than a view).
Result<CompressedTable> DeserializeCompressedTableColumnar(
    std::string_view data);


}  // namespace dslog

#endif  // DSLOG_PROVRC_SERIALIZE_H_
