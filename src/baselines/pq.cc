#include "baselines/pq.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "simd/distance.h"
#include "util/prng.h"

namespace blink {

PqCodec PqCodec::Train(MatrixViewF data, const PqParams& params,
                       ThreadPool* pool) {
  PqCodec c;
  c.d_ = data.cols;
  c.m_ = std::min(params.num_segments, c.d_);
  assert(params.bits_per_segment >= 1 && params.bits_per_segment <= 8);
  c.ksub_ = 1ull << params.bits_per_segment;

  // Segment boundaries: spread the remainder over the first segments.
  c.offsets_.resize(c.m_ + 1);
  const size_t base = c.d_ / c.m_, rem = c.d_ % c.m_;
  c.offsets_[0] = 0;
  for (size_t s = 0; s < c.m_; ++s) {
    c.offsets_[s + 1] = c.offsets_[s] + base + (s < rem ? 1 : 0);
  }
  c.max_dsub_ = base + (rem > 0 ? 1 : 0);
  c.codebooks_.assign(c.m_ * c.ksub_ * c.max_dsub_, 0.0f);

  // Training sample (deterministic subsample when data is large).
  const size_t n_train = std::min(data.rows, params.train_sample);
  std::vector<uint32_t> sample(n_train);
  if (n_train == data.rows) {
    for (size_t i = 0; i < n_train; ++i) sample[i] = static_cast<uint32_t>(i);
  } else {
    Rng rng(params.kmeans.seed ^ 0xC0DEBAull);
    for (size_t i = 0; i < n_train; ++i) {
      sample[i] = static_cast<uint32_t>(rng.Bounded(data.rows));
    }
  }

  // One k-means per segment.
  for (size_t s = 0; s < c.m_; ++s) {
    const size_t dsub = c.segment_dim(s);
    MatrixF seg(n_train, dsub);
    for (size_t i = 0; i < n_train; ++i) {
      std::memcpy(seg.row(i), data.row(sample[i]) + c.offsets_[s],
                  dsub * sizeof(float));
    }
    KMeansParams kp = params.kmeans;
    kp.k = c.ksub_;
    kp.seed = params.kmeans.seed + s;
    KMeansResult km = KMeans(seg, kp, pool);
    for (size_t cc = 0; cc < std::min(c.ksub_, km.centroids.rows()); ++cc) {
      std::memcpy(&c.codebooks_[(s * c.ksub_ + cc) * c.max_dsub_],
                  km.centroids.row(cc), dsub * sizeof(float));
    }
  }
  return c;
}

void PqCodec::Encode(const float* x, uint8_t* codes) const {
  for (size_t s = 0; s < m_; ++s) {
    const size_t dsub = segment_dim(s);
    const float* xs = x + offsets_[s];
    uint32_t best = 0;
    float best_dist = 3.4e38f;
    for (size_t cc = 0; cc < ksub_; ++cc) {
      const float dist = simd::L2Sqr(xs, centroid(s, cc), dsub);
      if (dist < best_dist) {
        best_dist = dist;
        best = static_cast<uint32_t>(cc);
      }
    }
    codes[s] = static_cast<uint8_t>(best);
  }
}

void PqCodec::Decode(const uint8_t* codes, float* out) const {
  for (size_t s = 0; s < m_; ++s) {
    std::memcpy(out + offsets_[s], centroid(s, codes[s]),
                segment_dim(s) * sizeof(float));
  }
}

void PqCodec::BuildLut(const float* q, Metric metric, float* lut) const {
  for (size_t s = 0; s < m_; ++s) {
    const size_t dsub = segment_dim(s);
    const float* qs = q + offsets_[s];
    float* row = lut + s * ksub_;
    if (metric == Metric::kL2) {
      for (size_t cc = 0; cc < ksub_; ++cc) {
        row[cc] = simd::L2Sqr(qs, centroid(s, cc), dsub);
      }
    } else {
      for (size_t cc = 0; cc < ksub_; ++cc) {
        row[cc] = simd::IpDist(qs, centroid(s, cc), dsub);
      }
    }
  }
}

PqDataset::PqDataset(PqCodec codec, MatrixViewF data, ThreadPool* pool)
    : codec_(std::move(codec)), codes_(data.rows, codec_.code_bytes()) {
  auto one = [&](size_t i) { codec_.Encode(data.row(i), codes_.row(i)); };
  if (pool != nullptr) {
    pool->ParallelFor(data.rows, one);
  } else {
    for (size_t i = 0; i < data.rows; ++i) one(i);
  }
}

Matrix<uint32_t> PqDataset::ExhaustiveSearch(MatrixViewF queries, size_t k,
                                             Metric metric,
                                             ThreadPool* pool) const {
  const size_t nq = queries.rows, n = size();
  Matrix<uint32_t> out(nq, k);
  auto one = [&](size_t qi) {
    std::vector<float> lut(codec_.num_segments() * codec_.ksub());
    codec_.BuildLut(queries.row(qi), metric, lut.data());
    std::vector<std::pair<float, uint32_t>> top;
    top.reserve(k + 1);
    for (size_t i = 0; i < n; ++i) {
      const float dist = codec_.AdcDistance(lut.data(), codes(i));
      if (top.size() < k) {
        top.push_back({dist, static_cast<uint32_t>(i)});
        std::push_heap(top.begin(), top.end());
      } else if (dist < top.front().first) {
        std::pop_heap(top.begin(), top.end());
        top.back() = {dist, static_cast<uint32_t>(i)};
        std::push_heap(top.begin(), top.end());
      }
    }
    std::sort(top.begin(), top.end());
    uint32_t* row = out.row(qi);
    for (size_t j = 0; j < k; ++j) {
      row[j] = j < top.size() ? top[j].second : UINT32_MAX;
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(nq, one);
  } else {
    for (size_t qi = 0; qi < nq; ++qi) one(qi);
  }
  return out;
}

// ---------------------------------------------------------------------------
// PartitionedPqIndex.
// ---------------------------------------------------------------------------

size_t PartitionedPqIndex::memory_bytes() const {
  size_t bytes = centroids_.size() * sizeof(float);
  for (size_t l = 0; l < list_ids_.size(); ++l) {
    bytes += list_ids_[l].size() * sizeof(uint32_t) + list_codes_[l].size();
  }
  bytes += full_vectors_.size() * sizeof(float);
  return bytes;
}

/// Probe, ADC scan and re-rank for one query; the LUT, residual and
/// candidate buffers survive across queries.
class PartitionedPqIndex::ListSearcher : public Searcher {
 public:
  explicit ListSearcher(const PartitionedPqIndex* index)
      : Searcher(index->d_),
        x_(*index),
        lut_(x_.codec_.num_segments() * x_.codec_.ksub()),
        qres_(x_.d_) {}

 private:
  void SearchFinite(const float* q, size_t k, const SearchOptions& params,
                    uint32_t* ids, float* dists, BatchStats* stats) override {
    const size_t d = x_.d_;
    const size_t probes = std::min<size_t>(
        std::max<uint32_t>(params.nprobe, 1), x_.num_lists());
    const std::vector<uint32_t> lists =
        NearestCentroids(q, x_.centroids_, probes);
    uint64_t computed = x_.num_lists();

    // ADC scan of the probed lists. With residual encoding the table
    // depends on (q - centroid), so it is rebuilt per probed list (classic
    // IVFADC).
    const size_t cand_target = std::max<size_t>(k, params.reorder_k);
    top_.clear();
    top_.reserve(cand_target + 1);
    const size_t m = x_.codec_.code_bytes();
    for (uint32_t l : lists) {
      const float* c = x_.centroids_.row(l);
      float bias = 0.0f;
      if (x_.metric_ == Metric::kL2) {
        for (size_t j = 0; j < d; ++j) qres_[j] = q[j] - c[j];
      } else {
        // -<q, c + r> = -<q, c> - <q, r>: table over residuals + constant.
        std::memcpy(qres_.data(), q, d * sizeof(float));
        bias = simd::IpDist(q, c, d);
      }
      x_.codec_.BuildLut(qres_.data(), x_.metric_, lut_.data());
      const auto& list_ids = x_.list_ids_[l];
      const auto& codes = x_.list_codes_[l];
      computed += list_ids.size();
      for (size_t e = 0; e < list_ids.size(); ++e) {
        const float dist =
            x_.codec_.AdcDistance(lut_.data(), &codes[e * m]) + bias;
        if (top_.size() < cand_target) {
          top_.push_back({dist, list_ids[e]});
          std::push_heap(top_.begin(), top_.end());
        } else if (dist < top_.front().first) {
          std::pop_heap(top_.begin(), top_.end());
          top_.back() = {dist, list_ids[e]};
          std::push_heap(top_.begin(), top_.end());
        }
      }
    }
    std::sort(top_.begin(), top_.end());

    // Re-rank: recompute the best reorder_k with full-precision vectors.
    if (params.reorder_k > 0 && x_.full_vectors_.rows() == x_.n_) {
      const size_t rr = std::min<size_t>(params.reorder_k, top_.size());
      for (size_t e = 0; e < rr; ++e) {
        const float* v = x_.full_vectors_.row(top_[e].second);
        top_[e].first = x_.metric_ == Metric::kL2 ? simd::L2Sqr(q, v, d)
                                                  : simd::IpDist(q, v, d);
      }
      computed += rr;
      std::sort(top_.begin(), top_.begin() + rr);
    }

    const size_t count = std::min(k, top_.size());
    row_ids_.resize(count);
    row_dists_.resize(count);
    for (size_t j = 0; j < count; ++j) {
      row_dists_[j] = top_[j].first;
      row_ids_[j] = top_[j].second;
    }
    WritePaddedRow(row_ids_.data(), row_dists_.data(), count, k, ids, dists);
    if (stats != nullptr) stats->distance_computations += computed;
  }

  const PartitionedPqIndex& x_;  ///< the index searched
  std::vector<float> lut_;
  std::vector<float> qres_;
  std::vector<std::pair<float, uint32_t>> top_;
  std::vector<uint32_t> row_ids_;
  std::vector<float> row_dists_;
};

std::unique_ptr<Searcher> PartitionedPqIndex::MakeSearcher() const {
  return std::make_unique<ListSearcher>(this);
}

}  // namespace blink
