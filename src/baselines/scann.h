// ScaNN-like baseline (Guo et al. [21]): k-means partitioning, 4-bit
// product codes over residuals with *anisotropic* (score-aware) code
// assignment, and full-precision reordering (Figs. 1, 9, 10, 21).
//
// ScaNN's score-aware loss weights quantization error parallel to the
// datapoint direction more heavily than orthogonal error, with the ratio
// eta = (d-1) T^2 / (1 - T^2) derived from the threshold T
// (avq_threshold, the paper sweeps the authors' recommended T = 0.2).
//
// Substitution note (DESIGN.md §2): codebooks are trained with standard
// k-means and only the *assignment* uses the anisotropic loss, a common
// simplification of ScaNN's coordinate-descent trainer; and scoring uses
// plain ADC rather than the AVX shuffle-based 4-bit fast-scan. Both keep
// the baseline's QPS/recall *shape* (partition-probe cost structure,
// recall gated by reordering).
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/pq.h"
#include "cluster/kmeans.h"
#include "util/matrix.h"

namespace blink {

struct ScannParams {
  size_t n_leaves = 0;         ///< 0 = sqrt(n), the authors' recommendation
  float avq_threshold = 0.2f;  ///< anisotropic threshold T
  size_t dims_per_block = 2;   ///< PQ segment width (4-bit codes)
  size_t train_sample = 50000;
  uint64_t seed = 21;
};

/// SearchOptions::nprobe = leaves_to_search, reorder_k = reorder depth.
class ScannIndex : public PartitionedPqIndex {
 public:
  ScannIndex(MatrixViewF data, Metric metric, const ScannParams& params,
             ThreadPool* pool = nullptr);

  std::string name() const override {
    return "ScaNN-leaves" + std::to_string(n_leaves());
  }

  size_t n_leaves() const { return num_lists(); }
  double anisotropic_eta() const { return eta_; }

 private:
  /// Anisotropic encode of one residual (direction = the original vector).
  void EncodeAnisotropic(const float* residual, const float* direction,
                         uint8_t* codes) const;

  ScannParams params_;
  double eta_ = 1.0;
};

}  // namespace blink
