// Shared plumbing for the binary index formats (graph/serialize.cc,
// shard/serialize.cc, filter/serialize.cc): exact-size write helpers and
// the atomic-save protocol on the write side, and one bounds-checked
// cursor over a mapped artifact on the read side. All formats are
// little-endian POD layouts; the helpers return false on short IO or an
// out-of-bounds read so callers can surface a Status instead of asserting.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "util/status.h"

namespace blink {
namespace binio {

struct FileCloser {
  void operator()(FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<FILE, FileCloser>;

inline bool WriteAll(FILE* f, const void* p, size_t bytes) {
  return bytes == 0 || std::fwrite(p, 1, bytes, f) == bytes;
}

template <typename T>
bool WritePod(FILE* f, const T& v) {
  return WriteAll(f, &v, sizeof(T));
}

/// Bounds-checked cursor over an artifact's bytes (in practice a read-only
/// mapping): every parser reads its headers through one, and takes its
/// payload sections as in-place pointers the caller then views or copies.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* v) {
    return ReadBytes(v, sizeof(T));
  }

  bool ReadBytes(void* out, size_t bytes) {
    const uint8_t* p = Take(bytes);
    if (p == nullptr) return false;
    if (bytes > 0) std::memcpy(out, p, bytes);
    return true;
  }

  /// Advances to the next multiple of `alignment` bytes from the start.
  bool Align(size_t alignment) {
    const size_t rem = off_ % alignment;
    return rem == 0 || Take(alignment - rem) != nullptr;
  }

  /// Consumes `bytes` and returns where they start, or nullptr (consuming
  /// nothing) when fewer remain.
  const uint8_t* Take(size_t bytes) {
    if (bytes > size_ - off_) return nullptr;
    const uint8_t* p = data_ + off_;
    off_ += bytes;
    return p;
  }

  size_t remaining() const { return size_ - off_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t off_ = 0;
};

/// Atomic save protocol: every artifact streams to `<path>.tmp.<pid>` and
/// replaces the destination via rename(2) only after Commit() fsyncs the
/// temp — so a crash mid-save (or a failed write) can never leave a torn
/// file where Open()'s sniffing finds one, and readers of the old artifact
/// (including live mappings) keep a consistent view. Destruction without
/// Commit() discards the temp file.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path)
      : path_(std::move(path)),
        tmp_(path_ + ".tmp." + std::to_string(::getpid())) {
    file_.reset(std::fopen(tmp_.c_str(), "wb"));
  }

  ~AtomicFile() {
    if (file_ != nullptr) {
      file_.reset();
      std::remove(tmp_.c_str());
    }
  }

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// False when the temp file could not be opened.
  bool ok() const { return file_ != nullptr; }
  FILE* get() { return file_.get(); }

  /// Flushes, fsyncs and renames the temp over the destination. After a
  /// successful Commit the handle is closed; on any failure the temp is
  /// removed and the original destination file is left untouched.
  Status Commit() {
    if (file_ == nullptr) {
      return Status::IOError("cannot open " + tmp_ + " for writing");
    }
    const bool flushed =
        std::fflush(file_.get()) == 0 && ::fsync(::fileno(file_.get())) == 0;
    file_.reset();
    if (!flushed) {
      std::remove(tmp_.c_str());
      return Status::IOError(path_ + ": flush failed during save");
    }
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
      std::remove(tmp_.c_str());
      return Status::IOError(path_ + ": atomic rename failed");
    }
    return Status::OK();
  }

 private:
  std::string path_;
  std::string tmp_;
  File file_;
};

}  // namespace binio
}  // namespace blink
