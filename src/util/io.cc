#include "util/io.h"

#include <cstdio>
#include <cstring>
#include <memory>

namespace blink {

namespace {

constexpr uint32_t kNativeMagic = 0x4B4E4C42u;  // "BLNK" little-endian
constexpr uint32_t kNativeVersion = 1;

struct FileCloser {
  void operator()(FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<FILE, FileCloser>;

File OpenFile(const std::string& path, const char* mode) {
  return File(std::fopen(path.c_str(), mode));
}

/// Bytes from the stream position to end-of-file (0 on a non-seekable
/// stream). Readers check header-implied payload sizes against this so a
/// forged header fails with a Status instead of sizing an allocation.
uint64_t RemainingBytes(FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0) return 0;
  if (std::fseek(f, 0, SEEK_END) != 0) return 0;
  const long end = std::ftell(f);
  std::fseek(f, pos, SEEK_SET);
  return end > pos ? static_cast<uint64_t>(end - pos) : 0;
}

template <typename T>
Result<Matrix<T>> ReadXvecs(const std::string& path) {
  File f = OpenFile(path, "rb");
  if (!f) return Status::IOError("cannot open " + path);

  std::fseek(f.get(), 0, SEEK_END);
  const long fsize = std::ftell(f.get());
  std::fseek(f.get(), 0, SEEK_SET);
  if (fsize < 4) return Status::IOError(path + ": truncated xvecs file");

  int32_t d = 0;
  if (std::fread(&d, sizeof(d), 1, f.get()) != 1 || d <= 0) {
    return Status::IOError(path + ": bad dimension header");
  }
  // d is bounded before it sizes row_bytes (and, via rows * d, the Matrix
  // allocation): INT32_MAX * sizeof(T) would already overflow row_bytes'
  // arithmetic on 32-bit size_t, and no real dataset is 2^20-dimensional.
  if (static_cast<uint64_t>(d) > (1u << 20)) {
    return Status::IOError(path + ": implausible dimension header");
  }
  const size_t row_bytes = sizeof(int32_t) + static_cast<size_t>(d) * sizeof(T);
  if (static_cast<size_t>(fsize) % row_bytes != 0) {
    return Status::IOError(path + ": size is not a multiple of the row size");
  }
  const size_t rows = static_cast<size_t>(fsize) / row_bytes;

  Matrix<T> m(rows, static_cast<size_t>(d));
  std::fseek(f.get(), 0, SEEK_SET);
  for (size_t i = 0; i < rows; ++i) {
    int32_t di = 0;
    if (std::fread(&di, sizeof(di), 1, f.get()) != 1 || di != d) {
      return Status::IOError(path + ": inconsistent per-row dimension");
    }
    if (std::fread(m.row(i), sizeof(T), static_cast<size_t>(d), f.get()) !=
        static_cast<size_t>(d)) {
      return Status::IOError(path + ": short read");
    }
  }
  return m;
}

template <typename T>
Status WriteXvecs(const std::string& path, const Matrix<T>& m) {
  File f = OpenFile(path, "wb");
  if (!f) return Status::IOError("cannot open " + path + " for writing");
  const int32_t d = static_cast<int32_t>(m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    if (std::fwrite(&d, sizeof(d), 1, f.get()) != 1 ||
        std::fwrite(m.row(i), sizeof(T), m.cols(), f.get()) != m.cols()) {
      return Status::IOError(path + ": short write");
    }
  }
  return Status::OK();
}

template <typename T>
Status WriteNativeImpl(const std::string& path, const Matrix<T>& m,
                       uint32_t dtype) {
  File f = OpenFile(path, "wb");
  if (!f) return Status::IOError("cannot open " + path + " for writing");
  const uint64_t rows = m.rows(), cols = m.cols();
  if (std::fwrite(&kNativeMagic, 4, 1, f.get()) != 1 ||
      std::fwrite(&kNativeVersion, 4, 1, f.get()) != 1 ||
      std::fwrite(&rows, 8, 1, f.get()) != 1 ||
      std::fwrite(&cols, 8, 1, f.get()) != 1 ||
      std::fwrite(&dtype, 4, 1, f.get()) != 1) {
    return Status::IOError(path + ": header write failed");
  }
  const size_t n = m.size();
  if (n > 0 && std::fwrite(m.data(), sizeof(T), n, f.get()) != n) {
    return Status::IOError(path + ": payload write failed");
  }
  return Status::OK();
}

template <typename T>
Result<Matrix<T>> ReadNativeImpl(const std::string& path, uint32_t want_dtype) {
  File f = OpenFile(path, "rb");
  if (!f) return Status::IOError("cannot open " + path);
  uint32_t magic = 0, version = 0, dtype = 0;
  uint64_t rows = 0, cols = 0;
  if (std::fread(&magic, 4, 1, f.get()) != 1 || magic != kNativeMagic) {
    return Status::IOError(path + ": bad magic");
  }
  if (std::fread(&version, 4, 1, f.get()) != 1 || version != kNativeVersion) {
    return Status::IOError(path + ": unsupported version");
  }
  if (std::fread(&rows, 8, 1, f.get()) != 1 ||
      std::fread(&cols, 8, 1, f.get()) != 1 ||
      std::fread(&dtype, 4, 1, f.get()) != 1) {
    return Status::IOError(path + ": truncated header");
  }
  if (dtype != want_dtype) {
    return Status::InvalidArgument(path + ": dtype mismatch");
  }
  // Validate the header-implied payload against the actual file size
  // before rows * cols sizes the Matrix allocation: a forged or corrupt
  // header must produce a Status, not an OOM — and rows * cols itself must
  // not overflow on the way to that check.
  const uint64_t remaining = RemainingBytes(f.get());
  if (cols > (1u << 20) ||
      (cols > 0 && rows > remaining / (cols * sizeof(T))) ||
      (cols == 0 && rows > remaining)) {
    return Status::IOError(path + ": header disagrees with file size");
  }
  Matrix<T> m(rows, cols);
  if (m.size() > 0 &&
      std::fread(m.data(), sizeof(T), m.size(), f.get()) != m.size()) {
    return Status::IOError(path + ": truncated payload");
  }
  return m;
}

/// A float dataset read from `path`, or InvalidArgument naming its first
/// NaN or infinite entry: one such coordinate would poison every index
/// built from the file.
Result<MatrixF> RequireFinite(Result<MatrixF> m, const std::string& path) {
  if (!m.ok()) return m;
  const auto bad = FirstNonFinite(m.value());
  if (!bad) return m;
  return Status::InvalidArgument(
      path + ": vector data must be finite: row " +
      std::to_string(bad->first) + ", column " + std::to_string(bad->second) +
      " is " + std::to_string(m.value().row(bad->first)[bad->second]));
}

}  // namespace

Result<MatrixF> ReadFvecs(const std::string& path) {
  return RequireFinite(ReadXvecs<float>(path), path);
}

Result<Matrix<int32_t>> ReadIvecs(const std::string& path) {
  return ReadXvecs<int32_t>(path);
}

Status WriteFvecs(const std::string& path, const MatrixF& m) {
  return WriteXvecs(path, m);
}

Status WriteIvecs(const std::string& path, const Matrix<int32_t>& m) {
  return WriteXvecs(path, m);
}

Status WriteNative(const std::string& path, const MatrixF& m) {
  return WriteNativeImpl(path, m, 0);
}

Status WriteNative(const std::string& path, const Matrix<uint32_t>& m) {
  return WriteNativeImpl(path, m, 2);
}

Result<MatrixF> ReadNativeF32(const std::string& path) {
  return RequireFinite(ReadNativeImpl<float>(path, 0), path);
}

Result<Matrix<uint32_t>> ReadNativeU32(const std::string& path) {
  return ReadNativeImpl<uint32_t>(path, 2);
}

Result<std::string> ReadTextFile(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string text;
  char buf[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    text.append(buf, got);
  }
  if (std::ferror(f.get())) return Status::IOError("read error on " + path);
  return text;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  File f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return Status::IOError("cannot open " + path);
  if (std::fwrite(text.data(), 1, text.size(), f.get()) != text.size()) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace blink
