// Read-only memory-mapped file with RAII unmapping and a heap read
// fallback. The LogStore maps a whole log file once and serves segment
// byte ranges as zero-copy views; platforms (or filesystems) where mmap
// fails fall back to reading the file into an owned buffer, with the same
// view() interface either way. Both backings start 8-byte aligned and keep
// their address across a move, so an 8-aligned file offset is an 8-aligned
// pointer whichever backing serves it.

#ifndef DSLOG_COMMON_MMAP_FILE_H_
#define DSLOG_COMMON_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace dslog {

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;

  /// Opens `path` read-only and maps it. When `allow_mmap` is false — or
  /// the mapping fails — the file is read into an owned 8-aligned heap
  /// buffer instead; callers cannot tell the difference except via
  /// mapped().
  static Result<MmapFile> Open(const std::string& path, bool allow_mmap = true);

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  std::string_view view() const { return {data_, size_}; }
  /// Byte range [offset, offset + length); caller checks bounds.
  std::string_view view(size_t offset, size_t length) const {
    return {data_ + offset, length};
  }

  /// True when backed by an actual mapping (false: heap fallback or empty).
  bool mapped() const { return addr_ != nullptr; }

 private:
  void Reset() noexcept;

  void* addr_ = nullptr;  // mmap base, nullptr when not mapped
  const char* data_ = nullptr;
  size_t size_ = 0;
  /// Owns the bytes when not mapped. Whole words keep the buffer 8-aligned.
  std::unique_ptr<uint64_t[]> fallback_;
};

}  // namespace dslog

#endif  // DSLOG_COMMON_MMAP_FILE_H_
