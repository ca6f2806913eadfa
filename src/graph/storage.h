// Vector storage codecs for graph indices.
//
// A Storage binds together (a) how vectors are laid out in memory, (b) the
// fused distance kernel for that encoding, and (c) the per-query
// preparation (LVQ compares in mean-centered space, so queries are centered
// once per query, not once per distance). Graph search and construction are
// templated on Storage, so the hot loop is monomorphic and kernel dispatch
// happens once per index — one of the paper's implementation tenets.
//
// Storage concept:
//   size(), dim(), memory_bytes()
//   struct Query;                       // reusable per-query state
//   PrepareQuery(const float* q, Query*) const
//   float Distance(const Query&, size_t i) const      // traversal distance
//   bool has_second_level() const
//   float FullDistance(const Query&, size_t i, float* scratch) const
//   void DecodeVector(size_t i, float* out) const     // original space
//   void Prefetch(size_t i) const
//   std::string encoding_name() const
//
// Growth (FloatStorage and LvqStorage): the dynamic index (graph/dynamic.h)
// keeps its vectors in the same storage classes as the static one and
// uses three more operations, all writer-side:
//   capacity()           — rows held (== size()); liveness is the index's
//                          concern, not the storage's,
//   Grow(new_capacity)   — enlarge the arena (under the index's exclusive
//                          lock; the old arena is freed on return),
//   Set(slot, vec)       — write/encode one vector into an unpublished
//                          slot (fresh, or recycled after a quiesce).
// The static index never calls them. Insert-time pruning measures
// stored-to-stored distances by DecodeVector and the same asymmetric
// kernels the read path uses.
//
// Distances are "lower is better": squared L2, or negated inner product.
// Cosine similarity follows the paper: vectors are normalized upstream and
// searched with L2.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <vector>

#include "quant/global.h"
#include "quant/lvq.h"
#include "simd/distance.h"
#include "util/float16.h"
#include "util/matrix.h"
#include "util/memory.h"

namespace blink {

enum class Metric {
  kL2,            ///< squared Euclidean distance
  kInnerProduct,  ///< negated inner product (maximum IP search)
};

inline const char* MetricName(Metric m) {
  return m == Metric::kL2 ? "L2" : "IP";
}

// ---------------------------------------------------------------------------
// Full-precision float32 storage (the paper's baseline encoding).
// ---------------------------------------------------------------------------
class FloatStorage {
 public:
  struct Query {
    std::vector<float> q;
  };

  FloatStorage() = default;
  FloatStorage(MatrixViewF data, Metric metric, bool use_huge_pages = true)
      : FloatStorage(data.cols, metric) {
    Allocate(data.rows, use_huge_pages);
    for (size_t i = 0; i < n_; ++i) Set(i, data.row(i));
  }

  /// An empty storage of `dim`-float rows that grows by Grow().
  FloatStorage(size_t dim, Metric metric)
      : d_(dim),
        metric_(metric),
        l2_(simd::GetL2F32(dim)),
        ip_(simd::GetIpF32(dim)) {}

  /// Non-owning view over externally owned rows (the mmap-serving path:
  /// a v3 "BLAF" payload is exactly this layout). The caller keeps `rows`
  /// alive and 4-byte aligned for the storage's lifetime.
  static FloatStorage FromExternal(const float* rows, size_t n, size_t d,
                                   Metric metric) {
    FloatStorage s(d, metric);
    s.n_ = n;
    s.rows_ = rows;
    return s;
  }

  size_t size() const { return n_; }
  size_t capacity() const { return n_; }
  size_t dim() const { return d_; }
  Metric metric() const { return metric_; }
  size_t memory_bytes() const { return n_ * d_ * sizeof(float); }
  std::string encoding_name() const { return "float32"; }

  const float* row(size_t i) const { return rows_ + i * d_; }

  /// Grows the owned rows to `new_capacity`, copying the existing ones.
  void Grow(size_t new_capacity) {
    if (new_capacity > n_) Allocate(new_capacity, /*use_huge_pages=*/false);
  }

  void Set(size_t slot, const float* vec) {
    assert(slot < n_ && rows_ == reinterpret_cast<const float*>(blob_.data()));
    std::memcpy(blob_.data() + slot * d_ * sizeof(float), vec,
                d_ * sizeof(float));
  }

  void PrepareQuery(const float* q, Query* out) const {
    out->q.assign(q, q + d_);
  }

  float Distance(const Query& q, size_t i) const {
    return metric_ == Metric::kL2 ? l2_(q.q.data(), row(i), d_)
                                  : ip_(q.q.data(), row(i), d_);
  }

  bool has_second_level() const { return false; }
  float FullDistance(const Query& q, size_t i, float* /*scratch*/) const {
    return Distance(q, i);
  }
  void PrefetchSecondLevel(size_t /*i*/) const {}

  void DecodeVector(size_t i, float* out) const {
    std::memcpy(out, row(i), d_ * sizeof(float));
  }

  void Prefetch(size_t i) const {
    simd::PrefetchBytes(row(i), d_ * sizeof(float));
  }

 private:
  /// Replaces the rows with an owned arena of `rows` rows, keeping the
  /// first min(rows, size()) rows.
  void Allocate(size_t rows, bool use_huge_pages) {
    Arena bigger(rows * d_ * sizeof(float), use_huge_pages);
    const size_t keep = std::min(rows, n_);
    if (keep > 0) std::memcpy(bigger.data(), rows_, keep * d_ * sizeof(float));
    blob_ = std::move(bigger);
    rows_ = reinterpret_cast<const float*>(blob_.data());
    n_ = rows;
  }

  size_t n_ = 0;
  size_t d_ = 0;
  Metric metric_ = Metric::kL2;
  Arena blob_;                   ///< owned rows (empty for a view)
  const float* rows_ = nullptr;  ///< blob_ or the external rows
  simd::DistF32Fn l2_ = nullptr;
  simd::DistF32Fn ip_ = nullptr;
};

// ---------------------------------------------------------------------------
// float16 storage (bandwidth baseline; Figs. 7, 8, Table 4).
// ---------------------------------------------------------------------------
class F16Storage {
 public:
  struct Query {
    std::vector<float> q;
  };

  F16Storage() = default;
  F16Storage(MatrixViewF data, Metric metric, bool use_huge_pages = true)
      : n_(data.rows), d_(data.cols), metric_(metric) {
    blob_ = Arena(n_ * d_ * sizeof(Float16), use_huge_pages);
    for (size_t i = 0; i < n_; ++i) {
      Float16* dst = row_mut(i);
      const float* src = data.row(i);
      for (size_t j = 0; j < d_; ++j) dst[j] = Float16(src[j]);
    }
    Init();
  }

  /// Adopts already-encoded half rows (the deserialization path — avoids
  /// a full-size float32 intermediary).
  F16Storage(const Float16* rows, size_t n, size_t d, Metric metric,
             bool use_huge_pages = true)
      : n_(n), d_(d), metric_(metric) {
    blob_ = Arena(n_ * d_ * sizeof(Float16), use_huge_pages);
    std::memcpy(blob_.data(), rows, n_ * d_ * sizeof(Float16));
    Init();
  }

  /// Non-owning view over externally owned half rows (map-mode "BLAH"
  /// payload). The caller keeps `rows` alive for the storage's lifetime.
  static F16Storage FromExternal(const Float16* rows, size_t n, size_t d,
                                 Metric metric) {
    F16Storage s;
    s.n_ = n;
    s.d_ = d;
    s.metric_ = metric;
    s.ext_rows_ = rows;
    s.Init();
    return s;
  }

  size_t size() const { return n_; }
  size_t dim() const { return d_; }
  Metric metric() const { return metric_; }
  size_t memory_bytes() const { return n_ * d_ * sizeof(Float16); }
  std::string encoding_name() const { return "float16"; }

  const Float16* row(size_t i) const {
    return (ext_rows_ != nullptr
                ? ext_rows_
                : reinterpret_cast<const Float16*>(blob_.data())) +
           i * d_;
  }

  void PrepareQuery(const float* q, Query* out) const {
    out->q.assign(q, q + d_);
  }

  float Distance(const Query& q, size_t i) const {
    return metric_ == Metric::kL2 ? l2_(q.q.data(), row(i), d_)
                                  : ip_(q.q.data(), row(i), d_);
  }

  bool has_second_level() const { return false; }
  float FullDistance(const Query& q, size_t i, float* /*scratch*/) const {
    return Distance(q, i);
  }
  void PrefetchSecondLevel(size_t /*i*/) const {}

  void DecodeVector(size_t i, float* out) const {
    const Float16* r = row(i);
    for (size_t j = 0; j < d_; ++j) out[j] = static_cast<float>(r[j]);
  }

  void Prefetch(size_t i) const {
    simd::PrefetchBytes(row(i), d_ * sizeof(Float16));
  }

 private:
  void Init() {
    l2_ = simd::GetL2F16(d_);
    ip_ = simd::GetIpF16(d_);
  }

  Float16* row_mut(size_t i) {
    return reinterpret_cast<Float16*>(blob_.data()) + i * d_;
  }

  size_t n_ = 0;
  size_t d_ = 0;
  Metric metric_ = Metric::kL2;
  Arena blob_;
  const Float16* ext_rows_ = nullptr;
  simd::DistF16Fn l2_ = nullptr;
  simd::DistF16Fn ip_ = nullptr;
};

// ---------------------------------------------------------------------------
// One- or two-level LVQ storage (LVQ-B and LVQ-B1xB2, paper Sec. 3).
// ---------------------------------------------------------------------------
class LvqStorage {
 public:
  struct Query {
    std::vector<float> q;  ///< centered query (L2) or raw query (IP)
    float bias = 0.0f;     ///< IP correction: -<q, mu>
  };

  LvqStorage() = default;

  /// One-level LVQ-B.
  LvqStorage(MatrixViewF data, Metric metric, int bits, size_t padding = 32,
             ThreadPool* pool = nullptr)
      : LvqStorage(data, metric, bits, /*bits2=*/0, padding, pool) {}

  /// Two-level LVQ-B1xB2 (one-level when bits2 == 0).
  LvqStorage(MatrixViewF data, Metric metric, int bits1, int bits2,
             size_t padding, ThreadPool* pool = nullptr)
      : LvqStorage(LvqDataset::Encode(data,
                                      {.bits = bits1,
                                       .bits2 = bits2,
                                       .padding = padding},
                                      pool),
                   metric) {}

  /// Wraps an already-encoded (or empty, growable) dataset.
  LvqStorage(LvqDataset ds, Metric metric)
      : ds_(std::move(ds)),
        metric_(metric),
        l2u8_(simd::GetL2U8(ds_.dim())),
        ipu8_(simd::GetIpU8(ds_.dim())),
        l2u4_(simd::GetL2U4(ds_.dim())),
        ipu4_(simd::GetIpU4(ds_.dim())) {}

  size_t size() const { return ds_.size(); }
  size_t capacity() const { return ds_.size(); }
  size_t dim() const { return ds_.dim(); }
  Metric metric() const { return metric_; }
  int bits1() const { return ds_.bits(); }
  int bits2() const { return ds_.bits2(); }
  size_t memory_bytes() const { return ds_.memory_bytes(); }
  std::string encoding_name() const {
    std::string s = "LVQ-";
    s += std::to_string(bits1());
    if (has_second_level()) {
      s += "x";
      s += std::to_string(bits2());
    }
    return s;
  }

  const LvqDataset& dataset() const { return ds_; }

  void Grow(size_t new_capacity) { ds_.Grow(new_capacity); }
  void Set(size_t slot, const float* vec) { ds_.EncodeInto(slot, vec); }

  void PrepareQuery(const float* q, Query* out) const {
    const auto& mean = ds_.mean();
    const size_t d = dim();
    out->q.resize(d);
    if (metric_ == Metric::kL2) {
      for (size_t j = 0; j < d; ++j) out->q[j] = q[j] - mean[j];
      out->bias = 0.0f;
    } else {
      std::memcpy(out->q.data(), q, d * sizeof(float));
      float dot = 0.0f;
      for (size_t j = 0; j < d; ++j) dot += q[j] * mean[j];
      out->bias = -dot;
    }
  }

  float Distance(const Query& q, size_t i) const {
    const LvqConstants c = ds_.constants(i);
    const uint8_t* codes = ds_.codes(i);
    const size_t d = dim();
    float dist;
    const int b = ds_.bits();
    if (b == 8) {
      dist = metric_ == Metric::kL2 ? l2u8_(q.q.data(), codes, c.delta, c.lower, d)
                                    : ipu8_(q.q.data(), codes, c.delta, c.lower, d);
    } else if (b == 4) {
      dist = metric_ == Metric::kL2 ? l2u4_(q.q.data(), codes, c.delta, c.lower, d)
                                    : ipu4_(q.q.data(), codes, c.delta, c.lower, d);
    } else {
      // Arbitrary-B fallback for the bit-sweep analysis experiments.
      dist = metric_ == Metric::kL2 ? LvqGenericL2(q.q.data(), codes, c, b, d)
                                    : LvqGenericIp(q.q.data(), codes, c, b, d);
    }
    return dist + q.bias;
  }

  bool has_second_level() const { return ds_.bits2() > 0; }

  /// Two-level distance for the final re-ranking gather (Sec. 3.2).
  float FullDistance(const Query& q, size_t i, float* scratch) const {
    if (!has_second_level()) return Distance(q, i);
    ds_.DecodeCentered(i, scratch);
    const size_t d = dim();
    if (metric_ == Metric::kL2) return simd::L2Sqr(q.q.data(), scratch, d);
    return simd::IpDist(q.q.data(), scratch, d) + q.bias;
  }

  void DecodeVector(size_t i, float* out) const { ds_.Decode(i, out); }

  void Prefetch(size_t i) const { ds_.PrefetchVector(i); }
  void PrefetchSecondLevel(size_t i) const {
    if (has_second_level()) ds_.PrefetchResidual(i);
  }

 private:
  LvqDataset ds_;
  Metric metric_ = Metric::kL2;
  simd::DistU8Fn l2u8_ = nullptr;
  simd::DistU8Fn ipu8_ = nullptr;
  simd::DistU4Fn l2u4_ = nullptr;
  simd::DistU4Fn ipu4_ = nullptr;
};

// ---------------------------------------------------------------------------
// Global / per-dimension scalar quantization storage (ablation baseline).
// ---------------------------------------------------------------------------
class GlobalQuantStorage {
 public:
  struct Query {
    std::vector<float> q;
    float bias = 0.0f;
  };

  GlobalQuantStorage() = default;
  GlobalQuantStorage(MatrixViewF data, Metric metric, int bits, int bits2 = 0,
                     GlobalMode mode = GlobalMode::kGlobal,
                     ThreadPool* pool = nullptr) {
    GlobalDataset::Options o;
    o.bits = bits;
    o.bits2 = bits2;
    o.mode = mode;
    ds_ = GlobalDataset::Encode(data, o, pool);
    metric_ = metric;
    const size_t d = ds_.dim();
    l2u8_ = simd::GetL2U8(d);
    ipu8_ = simd::GetIpU8(d);
    l2u4_ = simd::GetL2U4(d);
    ipu4_ = simd::GetIpU4(d);
  }

  size_t size() const { return ds_.size(); }
  size_t dim() const { return ds_.dim(); }
  Metric metric() const { return metric_; }
  size_t memory_bytes() const { return ds_.memory_bytes(); }
  std::string encoding_name() const {
    // Built with += (not operator+ chains): GCC 12's -Wrestrict trips a
    // false positive on `const char* + std::string&&` at -O2.
    std::string s = "global-";
    s += std::to_string(ds_.bits());
    if (ds_.bits2() > 0) {
      s += "x";
      s += std::to_string(ds_.bits2());
    }
    return s;
  }
  const GlobalDataset& dataset() const { return ds_; }

  void PrepareQuery(const float* q, Query* out) const {
    const auto& mean = ds_.mean();
    const size_t d = dim();
    out->q.resize(d);
    if (metric_ == Metric::kL2) {
      for (size_t j = 0; j < d; ++j) out->q[j] = q[j] - mean[j];
      out->bias = 0.0f;
    } else {
      std::memcpy(out->q.data(), q, d * sizeof(float));
      float dot = 0.0f;
      for (size_t j = 0; j < d; ++j) dot += q[j] * mean[j];
      out->bias = -dot;
    }
  }

  float Distance(const Query& q, size_t i) const {
    const size_t d = dim();
    const uint8_t* codes = ds_.codes(i);
    const int b = ds_.bits();
    float dist;
    if (ds_.mode() == GlobalMode::kGlobal && b == 8) {
      const ScalarQuantizer& sq = ds_.quantizers()[0];
      dist = metric_ == Metric::kL2
                 ? l2u8_(q.q.data(), codes, sq.delta(), sq.lower(), d)
                 : ipu8_(q.q.data(), codes, sq.delta(), sq.lower(), d);
    } else if (ds_.mode() == GlobalMode::kGlobal && b == 4) {
      const ScalarQuantizer& sq = ds_.quantizers()[0];
      dist = metric_ == Metric::kL2
                 ? l2u4_(q.q.data(), codes, sq.delta(), sq.lower(), d)
                 : ipu4_(q.q.data(), codes, sq.delta(), sq.lower(), d);
    } else {
      dist = GenericDistance(q, i);
    }
    return dist + q.bias;
  }

  bool has_second_level() const { return ds_.bits2() > 0; }

  float FullDistance(const Query& q, size_t i, float* scratch) const {
    if (!has_second_level()) return Distance(q, i);
    ds_.DecodeCenteredFull(i, scratch);
    const size_t d = dim();
    if (metric_ == Metric::kL2) return simd::L2Sqr(q.q.data(), scratch, d);
    return simd::IpDist(q.q.data(), scratch, d) + q.bias;
  }

  void DecodeVector(size_t i, float* out) const { ds_.Decode(i, out); }
  void Prefetch(size_t i) const { ds_.PrefetchVector(i); }
  void PrefetchSecondLevel(size_t i) const {
    if (has_second_level()) {
      simd::PrefetchBytes(ds_.residual_codes(i), PackedBytes(dim(), ds_.bits2()));
    }
  }

 private:
  float GenericDistance(const Query& q, size_t i) const {
    const size_t d = dim();
    const uint8_t* codes = ds_.codes(i);
    const int b = ds_.bits();
    float acc = 0.0f;
    if (metric_ == Metric::kL2) {
      for (size_t j = 0; j < d; ++j) {
        const float v = ds_.quantizer(j).Decode(UnpackCode(codes, j, b));
        const float diff = q.q[j] - v;
        acc += diff * diff;
      }
      return acc;
    }
    for (size_t j = 0; j < d; ++j) {
      const float v = ds_.quantizer(j).Decode(UnpackCode(codes, j, b));
      acc += q.q[j] * v;
    }
    return -acc;
  }

  GlobalDataset ds_;
  Metric metric_ = Metric::kL2;
  simd::DistU8Fn l2u8_ = nullptr;
  simd::DistU8Fn ipu8_ = nullptr;
  simd::DistU4Fn l2u4_ = nullptr;
  simd::DistU4Fn ipu4_ = nullptr;
};

}  // namespace blink
