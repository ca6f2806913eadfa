// Unit tests for k-means (substrate for PQ / OPQ / IVF / ScaNN).
#include "cluster/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "simd/distance.h"
#include "util/prng.h"

namespace blink {
namespace {

/// Three well-separated blobs in 2D.
MatrixF Blobs(size_t per_cluster, uint64_t seed) {
  const float centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  MatrixF m(per_cluster * 3, 2);
  Rng rng(seed);
  for (size_t c = 0; c < 3; ++c) {
    for (size_t i = 0; i < per_cluster; ++i) {
      float* row = m.row(c * per_cluster + i);
      row[0] = centers[c][0] + 0.3f * rng.Gaussian();
      row[1] = centers[c][1] + 0.3f * rng.Gaussian();
    }
  }
  return m;
}

TEST(KMeans, RecoversWellSeparatedClusters) {
  MatrixF data = Blobs(100, 1);
  KMeansParams p;
  p.k = 3;
  KMeansResult r = KMeans(data, p);
  // Every centroid must be close to one true center; all three distinct.
  std::set<int> matched;
  for (size_t c = 0; c < 3; ++c) {
    const float* cc = r.centroids.row(c);
    int best = -1;
    const float centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
    for (int t = 0; t < 3; ++t) {
      const float dx = cc[0] - centers[t][0], dy = cc[1] - centers[t][1];
      if (dx * dx + dy * dy < 1.0f) best = t;
    }
    ASSERT_GE(best, 0) << "centroid " << c << " far from every true center";
    matched.insert(best);
  }
  EXPECT_EQ(matched.size(), 3u);
}

TEST(KMeans, AssignmentIsNearestCentroid) {
  MatrixF data = Blobs(50, 2);
  KMeansParams p;
  p.k = 3;
  KMeansResult r = KMeans(data, p);
  for (size_t i = 0; i < data.rows(); ++i) {
    EXPECT_EQ(r.assignment[i], NearestCentroid(data.row(i), r.centroids));
  }
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  MatrixF data = Blobs(100, 3);
  KMeansParams p2, p8;
  p2.k = 2;
  p8.k = 8;
  EXPECT_GT(KMeans(data, p2).inertia, KMeans(data, p8).inertia);
}

TEST(KMeans, DeterministicGivenSeed) {
  MatrixF data = Blobs(60, 4);
  KMeansParams p;
  p.k = 4;
  KMeansResult a = KMeans(data, p);
  KMeansResult b = KMeans(data, p);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, KOneGivesGlobalMean) {
  MatrixF data = Blobs(30, 5);
  KMeansParams p;
  p.k = 1;
  KMeansResult r = KMeans(data, p);
  double mx = 0, my = 0;
  for (size_t i = 0; i < data.rows(); ++i) {
    mx += data(i, 0);
    my += data(i, 1);
  }
  mx /= data.rows();
  my /= data.rows();
  EXPECT_NEAR(r.centroids(0, 0), mx, 1e-3);
  EXPECT_NEAR(r.centroids(0, 1), my, 1e-3);
}

TEST(KMeans, KClampedToN) {
  MatrixF data = Blobs(1, 6);  // 3 points
  KMeansParams p;
  p.k = 100;
  KMeansResult r = KMeans(data, p);
  EXPECT_EQ(r.centroids.rows(), 3u);
  EXPECT_NEAR(r.inertia, 0.0, 1e-6);  // every point its own centroid
}

TEST(KMeans, EmptyClustersGetReseeded) {
  // Duplicate points + large k forces empty clusters during Lloyd steps.
  MatrixF data(40, 2);
  Rng rng(7);
  for (size_t i = 0; i < 20; ++i) {
    data(i, 0) = 0.0f;
    data(i, 1) = 0.0f;
    data(20 + i, 0) = 5.0f + 0.01f * rng.Gaussian();
    data(20 + i, 1) = 5.0f;
  }
  KMeansParams p;
  p.k = 8;
  KMeansResult r = KMeans(data, p);
  // Must terminate and produce a valid assignment.
  for (uint32_t a : r.assignment) EXPECT_LT(a, 8u);
}

TEST(KMeans, NearestCentroidsAscendingOrder) {
  MatrixF cents(5, 2);
  for (size_t c = 0; c < 5; ++c) {
    cents(c, 0) = static_cast<float>(c);
    cents(c, 1) = 0.0f;
  }
  const float q[2] = {2.2f, 0.0f};
  auto order = NearestCentroids(q, cents, 5);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 3u);  // |2.2-3| < |2.2-1|
  EXPECT_EQ(order[2], 1u);
  float prev = -1.0f;
  for (uint32_t c : order) {
    const float dist = simd::L2Sqr(q, cents.row(c), 2);
    EXPECT_GE(dist, prev);
    prev = dist;
  }
}

TEST(KMeans, ParallelAssignMatchesSerial) {
  MatrixF data = Blobs(200, 8);
  KMeansParams p;
  p.k = 6;
  KMeansResult r = KMeans(data, p);
  std::vector<uint32_t> serial(data.rows()), parallel(data.rows());
  AssignToCentroids(data, r.centroids, serial.data(), nullptr, nullptr);
  ThreadPool pool(4);
  AssignToCentroids(data, r.centroids, parallel.data(), nullptr, &pool);
  EXPECT_EQ(serial, parallel);
}

// --- pinned against the per-call-dispatched loops --------------------------

// Frozen copy of KMeans (with its k-means++ seeding) as it was when every
// distance went through the per-call-dispatched simd::L2Sqr. The library
// now resolves the kernel once per call; both must agree bit for bit.
MatrixF OldSeedPlusPlus(MatrixViewF data, size_t k, Rng& rng) {
  const size_t n = data.rows, d = data.cols;
  MatrixF centroids(k, d);
  std::vector<float> min_dist(n, std::numeric_limits<float>::max());
  size_t first = static_cast<size_t>(rng.Bounded(n));
  std::copy(data.row(first), data.row(first) + d, centroids.row(0));
  for (size_t c = 1; c < k; ++c) {
    const float* prev = centroids.row(c - 1);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const float dist = simd::L2Sqr(data.row(i), prev, d);
      min_dist[i] = std::min(min_dist[i], dist);
      total += min_dist[i];
    }
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

KMeansResult OldKMeans(MatrixViewF data, const KMeansParams& params) {
  const size_t n = data.rows, d = data.cols;
  const size_t k = std::min(params.k, n);
  Rng rng(params.seed);
  KMeansResult res;
  res.centroids = OldSeedPlusPlus(data, k, rng);
  res.assignment.assign(n, 0);
  std::vector<float> dist(n, 0.0f);
  double prev_inertia = std::numeric_limits<double>::max();
  for (size_t it = 0; it < params.max_iters; ++it) {
    res.iterations = it + 1;
    for (size_t i = 0; i < n; ++i) {
      uint32_t best = 0;
      float best_dist = std::numeric_limits<float>::max();
      for (size_t c = 0; c < k; ++c) {
        const float dd = simd::L2Sqr(data.row(i), res.centroids.row(c), d);
        if (dd < best_dist) {
          best_dist = dd;
          best = static_cast<uint32_t>(c);
        }
      }
      res.assignment[i] = best;
      dist[i] = best_dist;
    }
    double inertia = 0.0;
    for (size_t i = 0; i < n; ++i) inertia += dist[i];
    res.inertia = inertia;
    std::vector<double> sums(k * d, 0.0);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = res.assignment[i];
      const float* row = data.row(i);
      double* sum = &sums[c * d];
      for (size_t j = 0; j < d; ++j) sum[j] += row[j];
      ++counts[c];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        size_t far = 0;
        for (size_t i = 1; i < n; ++i) {
          if (dist[i] > dist[far]) far = i;
        }
        std::copy(data.row(far), data.row(far) + d, res.centroids.row(c));
        dist[far] = 0.0f;
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

MatrixF GaussianRows(size_t n, size_t d, uint64_t seed) {
  MatrixF m(n, d);
  Rng rng(seed);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

// d = 96 has a static-dimension kernel, d = 37 takes the generic one.
TEST(KMeans, ResolvedKernelMatchesPerCallDispatchBitForBit) {
  for (size_t d : {size_t{96}, size_t{37}}) {
    const MatrixF data = GaussianRows(1200, d, 40 + d);
    KMeansParams p;
    p.k = 24;
    p.max_iters = 6;
    const KMeansResult want = OldKMeans(data, p);
    ThreadPool pool(3);
    for (ThreadPool* tp : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const KMeansResult got = KMeans(data, p, tp);
      const std::string what = "d=" + std::to_string(d) +
                               (tp != nullptr ? " pooled" : " serial");
      EXPECT_EQ(got.assignment, want.assignment) << what;
      EXPECT_EQ(got.iterations, want.iterations) << what;
      EXPECT_EQ(got.inertia, want.inertia) << what;
      ASSERT_EQ(got.centroids.size(), want.centroids.size()) << what;
      EXPECT_EQ(std::memcmp(got.centroids.data(), want.centroids.data(),
                            want.centroids.size() * sizeof(float)),
                0)
          << what;
    }
    const MatrixF queries = GaussianRows(20, d, 90 + d);
    for (size_t qi = 0; qi < queries.rows(); ++qi) {
      std::vector<std::pair<float, uint32_t>> all;
      for (size_t c = 0; c < want.centroids.rows(); ++c) {
        all.push_back({simd::L2Sqr(queries.row(qi), want.centroids.row(c), d),
                       static_cast<uint32_t>(c)});
      }
      std::sort(all.begin(), all.end());
      const std::vector<uint32_t> order =
          NearestCentroids(queries.row(qi), want.centroids, 5);
      ASSERT_EQ(order.size(), 5u);
      for (size_t j = 0; j < 5; ++j) EXPECT_EQ(order[j], all[j].second);
      EXPECT_EQ(NearestCentroid(queries.row(qi), want.centroids),
                all[0].second);
    }
  }
}

}  // namespace
}  // namespace blink