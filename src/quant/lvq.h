// Locally-adaptive Vector Quantization (LVQ) — the paper's primary
// contribution (Sec. 3).
//
// LVQ-B (Definition 1): vectors are mean-centered, then each vector is
// scalar-quantized with *its own* bounds
//     u = max_j (x_j - mu_j),   l = min_j (x_j - mu_j),
// so every vector uses the full 2^B code range (paper Fig. 2). The two
// constants are stored inline with the codes in float16 (B_const = 16).
//
// LVQ-B1xB2 (Definition 2): the level-1 quantization residual
// r = x - mu - Q(x), which is uniform in [-Delta/2, Delta/2), is quantized
// with B2 bits and no additional constants (Eq. 6). The second level is
// fetched only for the final re-ranking step (Sec. 3.2).
//
// Memory layout per vector (one cache-line-friendly contiguous blob,
// padded to `padding` bytes, Eq. 4):
//     [ l : float16 ][ u : float16 ][ codes : ceil(d*B1/8) bytes ][ pad ]
// and, for LVQ-B1xB2, a row of ceil(d*B2/8) residual code bytes in a
// parallel arena. LvqDataset is the one implementation of this layout and
// its encoder, for the static index (encoded at once against the dataset
// mean), the dynamic index (encoded at insert time against a sample mean,
// growing in place) and mapped artifacts (a read-only view).
//
// Mean drift (DESIGN.md D9): LVQ's per-vector bounds absorb a stale mean —
// each vector still uses its full code range, only centered suboptimally —
// so a dynamic index's recall degrades gracefully as its stream drifts
// away from the sample it was centered on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "quant/packing.h"
#include "quant/scalar.h"
#include "util/float16.h"
#include "util/matrix.h"
#include "util/memory.h"
#include "util/thread_pool.h"

namespace blink {

/// Per-vector decoding constants: reconstruction is delta * code + lower
/// (in centered space).
struct LvqConstants {
  float delta;
  float lower;
};

/// Bytes per vector blob after padding to a multiple of `padding` (Eq. 4;
/// 0 disables padding). Shared by the static and dynamic encoders and the
/// serializers so the stride can never diverge between them.
constexpr size_t LvqPaddedStride(size_t raw_bytes, size_t padding) {
  if (padding == 0) return raw_bytes;
  return (raw_bytes + padding - 1) / padding * padding;
}

/// Reference asymmetric L2 over packed B-bit LVQ codes — the arbitrary-B
/// fallback for widths without a fused SIMD kernel (the Figs. 5/6/11 bit
/// sweeps). `q` must already be centered.
inline float LvqGenericL2(const float* q, const uint8_t* codes,
                          const LvqConstants& c, int bits, size_t d) {
  float acc = 0.0f;
  for (size_t j = 0; j < d; ++j) {
    const float v =
        c.delta * static_cast<float>(UnpackCode(codes, j, bits)) + c.lower;
    const float diff = q[j] - v;
    acc += diff * diff;
  }
  return acc;
}

/// Reference asymmetric negated inner product over packed B-bit LVQ codes
/// (`q` raw; the caller adds the -<q, mu> bias).
inline float LvqGenericIp(const float* q, const uint8_t* codes,
                          const LvqConstants& c, int bits, size_t d) {
  float acc = 0.0f;
  for (size_t j = 0; j < d; ++j) {
    const float v =
        c.delta * static_cast<float>(UnpackCode(codes, j, bits)) + c.lower;
    acc += q[j] * v;
  }
  return -acc;
}

/// Mean of the first `max_rows` rows of `data` (all rows by default),
/// accumulated in double: the centering mean LVQ encodes against.
std::vector<float> ComputeMean(MatrixViewF data, size_t max_rows = SIZE_MAX);

/// The one LVQ code arena: level-1 blobs (constants then B1-bit codes,
/// padded) and, for LVQ-B1xB2, a parallel arena of packed B2-bit residual
/// codes whose quantizer is deduced from the level-1 constants (Eq. 6), so
/// no extra constants are stored.
///
/// The rows are either owned or an external view (a section of a mapped
/// artifact), and every accessor reads them through one base pointer per
/// level. Owned rows can grow: the dynamic index encodes each vector at
/// insert time into a slot (EncodeInto) and grows the arena under its
/// exclusive lock (Grow). The static encoder is the same EncodeInto run
/// over every row. The centering mean is fixed at construction: the whole
/// dataset's mean for a static index, a sample's mean for a dynamic one.
class LvqDataset {
 public:
  struct Options {
    int bits = 8;         ///< B1, the level-1 code width (1..16).
    int bits2 = 0;        ///< B2, the residual code width; 0 = one-level.
    size_t padding = 32;  ///< Pad each level-1 blob to a multiple of this
                          ///< many bytes (32 = half cache line, as in the
                          ///< paper); 0 disables padding.
    /// For arenas allocated once (Encode, FromRaw). Grow() never asks for
    /// huge pages: a growing arena is reallocated and copied, and huge
    /// pages would make that stop-the-world copy more expensive.
    bool use_huge_pages = true;
  };

  LvqDataset() = default;
  /// An empty dataset of dim = mean.size() that grows by Grow().
  LvqDataset(std::vector<float> mean, const Options& opts);

  /// Compresses `data` against its own mean.
  static LvqDataset Encode(MatrixViewF data, const Options& opts,
                           ThreadPool* pool = nullptr);

  /// Compresses `data` against a caller-provided mean. Used when re-encoding
  /// after a data-distribution shift (Sec. 3.2) and for encoding query-side
  /// structures consistently with an existing index.
  static LvqDataset EncodeWithMean(MatrixViewF data, std::vector<float> mean,
                                   const Options& opts,
                                   ThreadPool* pool = nullptr);

  /// Reassembles `n` serialized rows: `blob` holds n * stride() level-1
  /// bytes and, when opts.bits2 > 0, `residuals` n * residual_stride()
  /// bytes. With `view` the dataset reads both in place (e.g. sections of a
  /// mapped v3 artifact, which the caller keeps alive; pages fault in as
  /// searches visit them); otherwise they are copied into owned arenas.
  static LvqDataset FromRaw(size_t n, std::vector<float> mean,
                            const Options& opts, const uint8_t* blob,
                            const uint8_t* residuals, bool view);

  size_t size() const { return n_; }
  size_t dim() const { return mean_.size(); }
  int bits() const { return bits_; }
  int bits2() const { return bits2_; }
  size_t padding() const { return padding_; }
  const std::vector<float>& mean() const { return mean_; }

  /// Level-1 bytes per vector: inline constants, codes and padding (Eq. 4).
  size_t stride() const { return stride_; }
  /// Residual bytes per vector (0 for one-level LVQ).
  size_t residual_stride() const { return residual_stride_; }
  /// Bytes per vector across both levels (Eq. 7).
  size_t vector_footprint() const { return stride_ + residual_stride_; }

  /// Compression ratio vs float32 storage (Eq. 5).
  double compression_ratio() const {
    return static_cast<double>(dim()) * 32.0 /
           (8.0 * static_cast<double>(vector_footprint()));
  }

  /// Total bytes of both arenas (excluding the d-float mean).
  size_t memory_bytes() const { return n_ * vector_footprint(); }

  /// Bases of the contiguous level-1 (n * stride) and residual
  /// (n * residual_stride) regions.
  const uint8_t* raw_blob() const { return blob_base_; }
  const uint8_t* raw_residuals() const { return residual_base_; }

  /// Start of the i-th vector's blob (constants then codes).
  const uint8_t* blob(size_t i) const { return blob_base_ + i * stride_; }
  /// Start of the i-th vector's packed level-1 codes.
  const uint8_t* codes(size_t i) const { return blob(i) + kHeaderBytes; }
  /// Start of the i-th vector's packed residual codes.
  const uint8_t* residual_codes(size_t i) const {
    return residual_base_ + i * residual_stride_;
  }

  /// Decoded per-vector constants.
  LvqConstants constants(size_t i) const {
    const uint8_t* b = blob(i);
    Float16 l16, u16;
    __builtin_memcpy(&l16, b, 2);
    __builtin_memcpy(&u16, b + 2, 2);
    const float l = l16, u = u16;
    const float range = u - l;
    const float delta =
        range > 0.0f ? range / static_cast<float>(MaxCode(bits_)) : 0.0f;
    return {delta, l};
  }

  /// Integer level-1 code of component j of vector i.
  uint32_t code(size_t i, size_t j) const { return UnpackCode(codes(i), j, bits_); }

  /// Reconstructs vector i in centered space: out_j = Delta*c_j + l, plus
  /// the residual (Delta2*c2_j - Delta/2) when two-level.
  void DecodeCentered(size_t i, float* out) const;

  /// Reconstructs vector i in the original space (adds the mean back).
  void Decode(size_t i, float* out) const;

  /// Prefetches the i-th blob into cache (Sec. 5, "Advanced prefetching").
  void PrefetchVector(size_t i) const {
    const uint8_t* p = blob(i);
    for (size_t off = 0; off < stride_; off += 64) {
      __builtin_prefetch(p + off, 0, 3);
    }
  }

  void PrefetchResidual(size_t i) const {
    const uint8_t* p = residual_codes(i);
    for (size_t off = 0; off < residual_stride_; off += 64) {
      __builtin_prefetch(p + off, 0, 2);
    }
  }

  /// Grows owned arenas to `rows` rows, copying the existing ones; the
  /// old arenas are freed on return. Writer-only: the dynamic index calls
  /// it under its exclusive lock.
  void Grow(size_t rows);

  /// Encodes `vec` (original space, dim floats) into row `slot`: bounds,
  /// level-1 codes and, when two-level, residual codes. Writer-only; the
  /// slot must be unpublished (fresh, or recycled after the owning index's
  /// quiesce grace period).
  void EncodeInto(size_t slot, const float* vec);

  /// Copies `n` serialized rows (level-1 blobs and, when two-level,
  /// residual codes) into the first rows of the owned arenas.
  void RestoreRows(const uint8_t* blob, const uint8_t* residuals, size_t n);

  static constexpr size_t kHeaderBytes = 4;  // l:f16 + u:f16

  /// True when the rows are an external (e.g. mapped) view.
  bool mapped() const { return n_ > 0 && blob_.empty(); }

 private:
  /// Replaces the arenas with owned ones of `rows` rows, keeping the
  /// first min(rows, size()) rows.
  void Allocate(size_t rows, bool use_huge_pages);

  size_t n_ = 0;
  int bits_ = 8;
  int bits2_ = 0;
  size_t padding_ = 32;
  size_t stride_ = 0;
  size_t residual_stride_ = 0;
  std::vector<float> mean_;
  Arena blob_;       ///< owned level-1 rows (empty for a view)
  Arena residuals_;  ///< owned residual rows (empty for a view / one-level)
  const uint8_t* blob_base_ = nullptr;
  const uint8_t* residual_base_ = nullptr;
};

}  // namespace blink
