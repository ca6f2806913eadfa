#include "baselines/scann.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "simd/distance.h"
#include "util/prng.h"

namespace blink {

ScannIndex::ScannIndex(MatrixViewF data, Metric metric,
                       const ScannParams& params, ThreadPool* pool)
    : PartitionedPqIndex(data, metric), params_(params) {
  const size_t n_leaves = std::min(
      n_, params.n_leaves > 0
              ? params.n_leaves
              : static_cast<size_t>(std::sqrt(static_cast<double>(n_))) + 1);

  // Score-aware weighting: eta = (d-1) T^2 / (1 - T^2).
  const double t2 = static_cast<double>(params.avq_threshold) *
                    static_cast<double>(params.avq_threshold);
  eta_ = t2 < 1.0 ? static_cast<double>(d_ - 1) * t2 / (1.0 - t2) : 1.0;

  // 1. Partition.
  const size_t n_train = std::min(n_, params.train_sample);
  MatrixF train(n_train, d_);
  {
    Rng rng(params.seed);
    for (size_t i = 0; i < n_train; ++i) {
      const size_t src =
          n_train == n_ ? i : static_cast<size_t>(rng.Bounded(n_));
      std::memcpy(train.row(i), data.row(src), d_ * sizeof(float));
    }
  }
  KMeansParams kp;
  kp.k = n_leaves;
  kp.seed = params.seed;
  kp.max_iters = 20;
  centroids_ = KMeans(train, kp, pool).centroids;

  // 2. Residual 4-bit PQ codebooks (standard k-means training).
  std::vector<uint32_t> assign(n_);
  AssignToCentroids(data, centroids_, assign.data(), nullptr, pool);
  MatrixF residuals(n_, d_);
  for (size_t i = 0; i < n_; ++i) {
    const float* x = data.row(i);
    const float* c = centroids_.row(assign[i]);
    float* r = residuals.row(i);
    for (size_t j = 0; j < d_; ++j) r[j] = x[j] - c[j];
  }
  PqParams pq;
  pq.num_segments = std::max<size_t>(1, d_ / params.dims_per_block);
  pq.bits_per_segment = 4;
  pq.train_sample = params.train_sample;
  pq.kmeans.seed = params.seed + 1;
  codec_ = PqCodec::Train(residuals, pq, pool);

  // 3. Anisotropic encoding into leaves.
  list_ids_.resize(n_leaves);
  list_codes_.resize(n_leaves);
  std::vector<uint8_t> code(codec_.code_bytes());
  for (size_t i = 0; i < n_; ++i) {
    EncodeAnisotropic(residuals.row(i), data.row(i), code.data());
    const uint32_t leaf = assign[i];
    list_ids_[leaf].push_back(static_cast<uint32_t>(i));
    list_codes_[leaf].insert(list_codes_[leaf].end(), code.begin(), code.end());
  }

  // 4. Full-precision vectors for reordering.
  full_vectors_ = MatrixF(n_, d_);
  for (size_t i = 0; i < n_; ++i) {
    std::memcpy(full_vectors_.row(i), data.row(i), d_ * sizeof(float));
  }
}

void ScannIndex::EncodeAnisotropic(const float* residual,
                                   const float* direction,
                                   uint8_t* codes) const {
  // Per-segment score-aware assignment: error parallel to the datapoint
  // direction is weighted by eta (> 1 for T > 0).
  const size_t m = codec_.num_segments();
  const size_t ksub = codec_.ksub();
  const float eta = static_cast<float>(eta_);
  for (size_t s = 0; s < m; ++s) {
    const size_t off = codec_.offset(s);
    const size_t dsub = codec_.segment_dim(s);
    const float* rs = residual + off;
    const float* us = direction + off;
    float u_norm2 = 0.0f;
    for (size_t j = 0; j < dsub; ++j) u_norm2 += us[j] * us[j];
    uint32_t best = 0;
    float best_loss = 3.4e38f;
    for (size_t cc = 0; cc < ksub; ++cc) {
      const float* cent = codec_.centroid(s, cc);
      float err2 = 0.0f, par = 0.0f;
      for (size_t j = 0; j < dsub; ++j) {
        const float e = rs[j] - cent[j];
        err2 += e * e;
        par += e * us[j];
      }
      float loss = err2;
      if (u_norm2 > 1e-12f) {
        const float par2 = par * par / u_norm2;  // ||projection on u_s||^2
        loss = err2 + (eta - 1.0f) * par2;
      }
      if (loss < best_loss) {
        best_loss = loss;
        best = static_cast<uint32_t>(cc);
      }
    }
    codes[s] = static_cast<uint8_t>(best);
  }
}

}  // namespace blink
