#include "common/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dslog {

MmapFile::~MmapFile() { Reset(); }

void MmapFile::Reset() noexcept {
  if (addr_ != nullptr) ::munmap(addr_, size_);
  addr_ = nullptr;
  data_ = nullptr;
  size_ = 0;
  fallback_.reset();
}

MmapFile::MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this == &other) return *this;
  Reset();
  addr_ = std::exchange(other.addr_, nullptr);
  data_ = std::exchange(other.data_, nullptr);
  size_ = std::exchange(other.size_, 0);
  fallback_ = std::move(other.fallback_);
  return *this;
}

Result<MmapFile> MmapFile::Open(const std::string& path, bool allow_mmap) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    return Status::IOError("open failed: " + path + ": " +
                           std::strerror(errno));
  // The mapping (or the heap copy) outlives the descriptor.
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  struct stat st;
  if (::fstat(fd, &st) != 0) return Status::IOError("fstat failed: " + path);
  MmapFile file;
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) return file;
  if (allow_mmap) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr != MAP_FAILED) {
      file.addr_ = addr;
      file.data_ = static_cast<const char*>(addr);
      file.size_ = size;
      return file;
    }
    // Fall through to the read path (e.g. filesystems without mmap).
  }
  file.fallback_ = std::make_unique_for_overwrite<uint64_t[]>((size + 7) / 8);
  char* buf = reinterpret_cast<char*>(file.fallback_.get());
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, buf + done, size - done,
                              static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError("read failed: " + path);
    done += static_cast<size_t>(n);
  }
  file.data_ = buf;
  file.size_ = size;
  return file;
}

}  // namespace dslog
