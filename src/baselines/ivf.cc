#include "baselines/ivf.h"

#include <algorithm>
#include <cstring>

#include "simd/distance.h"
#include "util/prng.h"

namespace blink {

IvfPqIndex::IvfPqIndex(MatrixViewF data, Metric metric,
                       const IvfPqParams& params, ThreadPool* pool)
    : PartitionedPqIndex(data, metric), params_(params) {
  // 1. Coarse quantizer: k-means over a training sample.
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
  kp.k = std::min(params.nlist, n_);
  kp.seed = params.seed;
  kp.max_iters = 20;
  KMeansResult coarse = KMeans(train, kp, pool);
  centroids_ = std::move(coarse.centroids);

  // 2. Assign all points; compute residuals; train the residual PQ.
  std::vector<uint32_t> assign(n_);
  AssignToCentroids(data, centroids_, assign.data(), nullptr, pool);
  MatrixF residuals(n_, d_);
  for (size_t i = 0; i < n_; ++i) {
    const float* x = data.row(i);
    const float* c = centroids_.row(assign[i]);
    float* r = residuals.row(i);
    for (size_t j = 0; j < d_; ++j) r[j] = x[j] - c[j];
  }
  codec_ = PqCodec::Train(residuals, params.pq, pool);

  // 3. Populate inverted lists.
  const size_t nlist = centroids_.rows();
  list_ids_.resize(nlist);
  list_codes_.resize(nlist);
  std::vector<uint8_t> code(codec_.code_bytes());
  for (size_t i = 0; i < n_; ++i) {
    const uint32_t c = assign[i];
    codec_.Encode(residuals.row(i), code.data());
    list_ids_[c].push_back(static_cast<uint32_t>(i));
    list_codes_[c].insert(list_codes_[c].end(), code.begin(), code.end());
  }

  // 4. Full-precision vectors for the refine stage.
  if (params.keep_full_vectors) {
    full_vectors_ = MatrixF(n_, d_);
    for (size_t i = 0; i < n_; ++i) {
      std::memcpy(full_vectors_.row(i), data.row(i), d_ * sizeof(float));
    }
  }
}

std::string IvfPqIndex::name() const {
  return "IVFPQ-nlist" + std::to_string(nlist()) + "-M" +
         std::to_string(codec_.num_segments()) +
         (params_.keep_full_vectors ? "+refine" : "");
}

}  // namespace blink
