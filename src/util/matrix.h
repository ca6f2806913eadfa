// Row-major dense matrix used for datasets and query batches.
//
// Rows are vectors; the storage is one contiguous aligned block (no
// per-row indirection), matching the paper's "flat memory layout" design.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/memory.h"

namespace blink {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols) {
    data_ = MakeAligned<T>(rows * cols);
    std::memset(data_.get(), 0, rows * cols * sizeof(T));
  }

  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;
  Matrix(const Matrix&) = delete;
  Matrix& operator=(const Matrix&) = delete;

  /// Deep copy, for call sites that explicitly need one.
  Matrix Clone() const {
    Matrix m(rows_, cols_);
    std::memcpy(m.data(), data(), rows_ * cols_ * sizeof(T));
    return m;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0; }

  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }

  T* row(size_t i) {
    assert(i < rows_);
    return data_.get() + i * cols_;
  }
  const T* row(size_t i) const {
    assert(i < rows_);
    return data_.get() + i * cols_;
  }

  std::span<T> row_span(size_t i) { return {row(i), cols_}; }
  std::span<const T> row_span(size_t i) const { return {row(i), cols_}; }

  T& operator()(size_t i, size_t j) {
    assert(i < rows_ && j < cols_);
    return data_.get()[i * cols_ + j];
  }
  const T& operator()(size_t i, size_t j) const {
    assert(i < rows_ && j < cols_);
    return data_.get()[i * cols_ + j];
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  AlignedPtr<T> data_;
};

using MatrixF = Matrix<float>;

/// Non-owning read-only view of a row-major matrix.
template <typename T>
struct MatrixView {
  const T* data = nullptr;
  size_t rows = 0;
  size_t cols = 0;

  MatrixView() = default;
  MatrixView(const T* d, size_t r, size_t c) : data(d), rows(r), cols(c) {}
  MatrixView(const Matrix<T>& m) : data(m.data()), rows(m.rows()), cols(m.cols()) {}  // NOLINT

  const T* row(size_t i) const {
    assert(i < rows);
    return data + i * cols;
  }
};

using MatrixViewF = MatrixView<float>;

/// (row, column) of the first NaN or infinite entry of `m`, if any. One
/// non-finite coordinate would otherwise poison a whole LVQ index (it
/// enters the dataset mean every row is encoded against), so vectors are
/// checked once where they enter an index.
inline std::optional<std::pair<size_t, size_t>> FirstNonFinite(MatrixViewF m) {
  for (size_t i = 0; i < m.rows; ++i) {
    const float* row = m.row(i);
    for (size_t j = 0; j < m.cols; ++j) {
      if (!std::isfinite(row[j])) return std::pair{i, j};
    }
  }
  return std::nullopt;
}

}  // namespace blink
