#include "cluster/kmeans.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "simd/distance.h"
#include "util/prng.h"

namespace blink {

// Every loop below resolves its L2 kernel once per call (GetL2F32, with the
// static-dimension specialization when d has one) instead of paying the
// per-call dispatch of simd::L2Sqr for each of its n * k distances. Both
// run the same kernel body, so assignments and centroids are unchanged.

namespace {

/// k-means++ seeding: iteratively sample points proportional to their
/// squared distance to the nearest chosen center.
MatrixF SeedPlusPlus(MatrixViewF data, size_t k, Rng& rng) {
  const size_t n = data.rows, d = data.cols;
  MatrixF centroids(k, d);
  std::vector<float> min_dist(n, std::numeric_limits<float>::max());
  const simd::DistF32Fn l2 = simd::GetL2F32(d);

  size_t first = static_cast<size_t>(rng.Bounded(n));
  std::copy(data.row(first), data.row(first) + d, centroids.row(0));

  for (size_t c = 1; c < k; ++c) {
    const float* prev = centroids.row(c - 1);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const float dist = l2(data.row(i), prev, d);
      min_dist[i] = std::min(min_dist[i], dist);
      total += min_dist[i];
    }
    // Sample proportional to min_dist.
    double r = rng.UniformDouble() * total;
    size_t chosen = n - 1;
    for (size_t i = 0; i < n; ++i) {
      r -= min_dist[i];
      if (r <= 0.0) {
        chosen = i;
        break;
      }
    }
    std::copy(data.row(chosen), data.row(chosen) + d, centroids.row(c));
  }
  return centroids;
}

}  // namespace

uint32_t NearestCentroid(const float* x, MatrixViewF centroids) {
  const size_t k = centroids.rows, d = centroids.cols;
  const simd::DistF32Fn l2 = simd::GetL2F32(d);
  uint32_t best = 0;
  float best_dist = std::numeric_limits<float>::max();
  for (size_t c = 0; c < k; ++c) {
    const float dist = l2(x, centroids.row(c), d);
    if (dist < best_dist) {
      best_dist = dist;
      best = static_cast<uint32_t>(c);
    }
  }
  return best;
}

std::vector<uint32_t> NearestCentroids(const float* x, MatrixViewF centroids,
                                       size_t m) {
  const size_t k = centroids.rows, d = centroids.cols;
  const simd::DistF32Fn l2 = simd::GetL2F32(d);
  std::vector<std::pair<float, uint32_t>> all(k);
  for (size_t c = 0; c < k; ++c) {
    all[c] = {l2(x, centroids.row(c), d), static_cast<uint32_t>(c)};
  }
  m = std::min(m, k);
  std::partial_sort(all.begin(), all.begin() + m, all.end());
  std::vector<uint32_t> out(m);
  for (size_t i = 0; i < m; ++i) out[i] = all[i].second;
  return out;
}

void AssignToCentroids(MatrixViewF data, MatrixViewF centroids,
                       uint32_t* assignment, float* distances,
                       ThreadPool* pool) {
  const size_t n = data.rows, d = data.cols, k = centroids.rows;
  const simd::DistF32Fn l2 = simd::GetL2F32(d);
  auto one = [&](size_t i) {
    uint32_t best = 0;
    float best_dist = std::numeric_limits<float>::max();
    for (size_t c = 0; c < k; ++c) {
      const float dist = l2(data.row(i), centroids.row(c), d);
      if (dist < best_dist) {
        best_dist = dist;
        best = static_cast<uint32_t>(c);
      }
    }
    assignment[i] = best;
    if (distances != nullptr) distances[i] = best_dist;
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, one);
  } else {
    for (size_t i = 0; i < n; ++i) one(i);
  }
}

KMeansResult KMeans(MatrixViewF data, const KMeansParams& params,
                    ThreadPool* pool) {
  const size_t n = data.rows, d = data.cols;
  const size_t k = std::min(params.k, n);
  assert(k > 0 && "k-means needs at least one cluster and one point");

  Rng rng(params.seed);
  KMeansResult res;
  res.centroids = SeedPlusPlus(data, k, rng);
  res.assignment.assign(n, 0);
  std::vector<float> dist(n, 0.0f);

  double prev_inertia = std::numeric_limits<double>::max();
  for (size_t it = 0; it < params.max_iters; ++it) {
    res.iterations = it + 1;
    AssignToCentroids(data, res.centroids, res.assignment.data(), dist.data(),
                      pool);
    double inertia = 0.0;
    for (size_t i = 0; i < n; ++i) inertia += dist[i];
    res.inertia = inertia;

    // Update step.
    std::vector<double> sums(k * d, 0.0);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = res.assignment[i];
      const float* row = data.row(i);
      double* s = &sums[c * d];
      for (size_t j = 0; j < d; ++j) s[j] += row[j];
      ++counts[c];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Reseed an empty cluster from the point farthest from its centroid.
        size_t far = 0;
        for (size_t i = 1; i < n; ++i) {
          if (dist[i] > dist[far]) far = i;
        }
        std::copy(data.row(far), data.row(far) + d, res.centroids.row(c));
        dist[far] = 0.0f;  // avoid picking the same point twice
        continue;
      }
      float* cr = res.centroids.row(c);
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t j = 0; j < d; ++j) {
        cr[j] = static_cast<float>(sums[c * d + j] * inv);
      }
    }

    if (prev_inertia < std::numeric_limits<double>::max()) {
      const double rel =
          prev_inertia > 0.0 ? (prev_inertia - inertia) / prev_inertia : 0.0;
      if (rel >= 0.0 && rel < params.tol) break;
    }
    prev_inertia = inertia;
  }
  return res;
}

}  // namespace blink
