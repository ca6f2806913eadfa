#include "quant/lvq.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace blink {

std::vector<float> ComputeMean(MatrixViewF data, size_t max_rows) {
  const size_t n = std::min(data.rows, max_rows), d = data.cols;
  std::vector<float> mean(d, 0.0f);
  if (n == 0) return mean;
  // Accumulate in double to keep precision over large n.
  std::vector<double> acc(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const float* row = data.row(i);
    for (size_t j = 0; j < d; ++j) acc[j] += row[j];
  }
  for (size_t j = 0; j < d; ++j) {
    mean[j] = static_cast<float>(acc[j] / static_cast<double>(n));
  }
  return mean;
}

LvqDataset::LvqDataset(std::vector<float> mean, const Options& opts)
    : bits_(opts.bits),
      bits2_(opts.bits2),
      padding_(opts.padding),
      stride_(LvqPaddedStride(
          kHeaderBytes + PackedBytes(mean.size(), opts.bits), opts.padding)),
      residual_stride_(opts.bits2 > 0 ? PackedBytes(mean.size(), opts.bits2)
                                      : 0),
      mean_(std::move(mean)) {
  assert(bits_ >= 1 && bits_ <= 16);
  assert(bits2_ >= 0 && bits2_ <= 16);
}

LvqDataset LvqDataset::Encode(MatrixViewF data, const Options& opts,
                              ThreadPool* pool) {
  return EncodeWithMean(data, ComputeMean(data), opts, pool);
}

LvqDataset LvqDataset::EncodeWithMean(MatrixViewF data,
                                      std::vector<float> mean,
                                      const Options& opts, ThreadPool* pool) {
  assert(mean.size() == data.cols);
  LvqDataset ds(std::move(mean), opts);
  ds.Allocate(data.rows, opts.use_huge_pages);
  auto encode_row = [&](size_t i) { ds.EncodeInto(i, data.row(i)); };
  if (pool != nullptr) {
    pool->ParallelFor(ds.n_, encode_row);
  } else {
    for (size_t i = 0; i < ds.n_; ++i) encode_row(i);
  }
  return ds;
}

LvqDataset LvqDataset::FromRaw(size_t n, std::vector<float> mean,
                               const Options& opts, const uint8_t* blob,
                               const uint8_t* residuals, bool view) {
  LvqDataset ds(std::move(mean), opts);
  if (view) {
    ds.n_ = n;
    ds.blob_base_ = blob;
    ds.residual_base_ = residuals;
    return ds;
  }
  ds.Allocate(n, opts.use_huge_pages);
  ds.RestoreRows(blob, residuals, n);
  return ds;
}

void LvqDataset::Allocate(size_t rows, bool use_huge_pages) {
  Arena blob(rows * stride_, use_huge_pages);
  Arena residuals(rows * residual_stride_, use_huge_pages);
  const size_t keep = std::min(rows, n_);
  if (keep > 0) {
    std::memcpy(blob.data(), blob_base_, keep * stride_);
    if (residual_stride_ > 0) {
      std::memcpy(residuals.data(), residual_base_, keep * residual_stride_);
    }
  }
  blob_ = std::move(blob);
  residuals_ = std::move(residuals);
  blob_base_ = blob_.data();
  residual_base_ = residuals_.data();
  n_ = rows;
}

void LvqDataset::Grow(size_t rows) {
  assert(!mapped());
  if (rows > n_) Allocate(rows, /*use_huge_pages=*/false);
}

void LvqDataset::RestoreRows(const uint8_t* blob, const uint8_t* residuals,
                             size_t n) {
  assert(n <= n_ && !mapped());
  if (n == 0) return;
  std::memcpy(blob_.data(), blob, n * stride_);
  if (residual_stride_ > 0) {
    std::memcpy(residuals_.data(), residuals, n * residual_stride_);
  }
}

void LvqDataset::EncodeInto(size_t slot, const float* vec) {
  assert(slot < n_ && !mapped());
  const size_t d = dim();
  uint8_t* out = blob_.data() + slot * stride_;
  // Per-vector bounds over the centered components (Eq. 3).
  float lo = std::numeric_limits<float>::infinity();
  float hi = -std::numeric_limits<float>::infinity();
  for (size_t j = 0; j < d; ++j) {
    const float v = vec[j] - mean_[j];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Constants are stored in float16 (B_const = 16, Eq. 4); encoding must
  // use the *stored* (rounded) bounds so codes and decoder agree. Widen
  // the rounded bounds to cover the true range so the min/max components
  // stay in range and reconstruct with zero error (paper Fig. 16).
  Float16 l16(lo), u16(hi);
  if (static_cast<float>(l16) > lo) l16 = NextFloat16Down(l16);
  if (static_cast<float>(u16) < hi) u16 = NextFloat16Up(u16);
  std::memcpy(out, &l16, 2);
  std::memcpy(out + 2, &u16, 2);
  const ScalarQuantizer q(bits_, l16, u16);
  uint8_t* codes = out + kHeaderBytes;
  // A recycled slot holds stale codes and PackCode ORs into its buffer,
  // so clear the code region (and its padding) first.
  std::memset(codes, 0, stride_ - kHeaderBytes);
  for (size_t j = 0; j < d; ++j) {
    PackCode(codes, j, bits_, q.Encode(vec[j] - mean_[j]));
  }
  if (residual_stride_ == 0) return;

  // Level-2 residual r = x - mu - Q(x), quantized over the deduced range
  // [-Delta/2, Delta/2) (Eq. 6).
  const LvqConstants c = constants(slot);
  const ScalarQuantizer rq = ResidualQuantizer(c.delta, bits2_);
  uint8_t* rout = residuals_.data() + slot * residual_stride_;
  std::memset(rout, 0, residual_stride_);
  for (size_t j = 0; j < d; ++j) {
    const float level1 =
        c.delta * static_cast<float>(UnpackCode(codes, j, bits_)) + c.lower;
    PackCode(rout, j, bits2_, rq.Encode((vec[j] - mean_[j]) - level1));
  }
}

void LvqDataset::DecodeCentered(size_t i, float* out) const {
  const size_t d = dim();
  const LvqConstants c = constants(i);
  const uint8_t* cs = codes(i);
  for (size_t j = 0; j < d; ++j) {
    out[j] = c.delta * static_cast<float>(UnpackCode(cs, j, bits_)) + c.lower;
  }
  if (residual_stride_ == 0) return;
  const ScalarQuantizer rq = ResidualQuantizer(c.delta, bits2_);
  const uint8_t* rc = residual_codes(i);
  for (size_t j = 0; j < d; ++j) {
    out[j] += rq.Decode(UnpackCode(rc, j, bits2_));
  }
}

void LvqDataset::Decode(size_t i, float* out) const {
  DecodeCentered(i, out);
  const size_t d = dim();
  for (size_t j = 0; j < d; ++j) out[j] += mean_[j];
}

}  // namespace blink
