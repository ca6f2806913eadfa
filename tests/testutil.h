// Shared test scaffolding (ISSUE 3 satellite): the dataset / ground-truth /
// build boilerplate that used to be re-declared in every test_*.cc, plus
// temp-file management for serialization tests.
//
// Everything is deterministic given the seed, and sized for unit tests
// (seconds, not minutes, even in Debug).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/groundtruth.h"
#include "data/synthetic.h"
#include "eval/interface.h"
#include "eval/metrics.h"
#include "graph/index.h"

namespace blink {
namespace testutil {

/// Seeded synthetic dataset + exact ground truth + small-graph build
/// params — the standard fixture of the index-level tests.
struct Fixture {
  Dataset data;
  Matrix<uint32_t> gt;
  VamanaBuildParams bp;
  size_t k;

  explicit Fixture(Dataset d, size_t k = 10, uint32_t R = 24, uint32_t W = 48)
      : data(std::move(d)), k(k) {
    gt = ComputeGroundTruth(data.base, data.queries, k, data.metric);
    bp.graph_max_degree = R;
    bp.window_size = W;
    bp.alpha = data.metric == Metric::kL2 ? 1.2f : 0.95f;
  }
};

/// The most common configuration: a deep-like dataset with k=10 ground
/// truth and an R=24 / W=48 build.
inline Fixture DeepFixture(size_t n, size_t nq, uint64_t seed, size_t k = 10,
                           uint32_t R = 24, uint32_t W = 48) {
  return Fixture(MakeDeepLike(n, nq, seed), k, R, W);
}

/// Mean recall@k of `idx` over the fixture's queries with explicit params.
inline double RecallOf(const SearchIndex& idx, const Fixture& f,
                       const SearchOptions& p) {
  Matrix<uint32_t> ids(f.data.queries.rows(), f.k);
  SearchBatch(idx, f.data.queries, f.k, p, ids.data());
  return MeanRecallAtK(ids, f.gt, f.k);
}

/// Window-sweep shorthand used by most graph-index tests.
inline double RecallAtWindow(const SearchIndex& idx, const Fixture& f,
                             uint32_t window, bool rerank = true,
                             bool use_visited_set = false) {
  SearchOptions p;
  p.window = window;
  p.rerank = rerank;
  p.use_visited_set = use_visited_set;
  return RecallOf(idx, f, p);
}

/// A corpus smaller than the typical k, with a built float32 index: the
/// padding-contract fixture (every path must pad to exactly k).
struct TinyWorld {
  Dataset data;
  std::unique_ptr<VamanaIndex<FloatStorage>> index;

  explicit TinyWorld(size_t corpus = 5, size_t nq = 4, uint64_t seed = 99)
      : data(MakeDeepLike(corpus, nq, seed)) {
    VamanaBuildParams bp;
    bp.graph_max_degree = 4;
    bp.window_size = 8;
    index = BuildVamanaF32(data.base, data.metric, bp);
  }
};

/// gtest fixture owning temp files/directories; everything registered via
/// Path()/DirPath() is removed in TearDown (files by remove, directories
/// recursively). Paths carry the process id: ctest runs a suite's
/// per-SIMD-backend reruns in parallel, and one process rewriting a file
/// another has mapped would kill the reader with SIGBUS.
class TempPathTest : public ::testing::Test {
 protected:
  /// A fresh temp file path (not created), removed on teardown.
  std::string Path(const std::string& name) {
    files_.push_back(TempName(name));
    return files_.back();
  }

  /// A fresh temp directory path (not created), removed recursively.
  std::string DirPath(const std::string& name) {
    dirs_.push_back(TempName(name));
    return dirs_.back();
  }

  void TearDown() override {
    for (const auto& p : files_) std::remove(p.c_str());
    std::error_code ec;
    for (const auto& p : dirs_) std::filesystem::remove_all(p, ec);
  }

 private:
  static std::string TempName(const std::string& name) {
    return testing::TempDir() + "blink_test_" + std::to_string(::getpid()) +
           "_" + name;
  }

  std::vector<std::string> files_;
  std::vector<std::string> dirs_;
};

/// Asserts the eval/interface.h padding contract on one result row: valid
/// entries (id < corpus, finite dist when given) form a prefix of exactly
/// `corpus` entries, and every slot after it holds kInvalidId / +inf.
inline void ExpectPaddedRow(const uint32_t* ids, const float* dists, size_t k,
                            size_t corpus) {
  size_t real = 0;
  for (size_t j = 0; j < k; ++j) {
    if (ids[j] != kInvalidId) {
      EXPECT_LT(ids[j], corpus);
      if (dists != nullptr) {
        EXPECT_TRUE(std::isfinite(dists[j])) << j;
      }
      EXPECT_EQ(real, j) << "padding must be a suffix";
      ++real;
    } else if (dists != nullptr) {
      EXPECT_TRUE(std::isinf(dists[j])) << "dist " << j;
    }
  }
  EXPECT_EQ(real, corpus) << "all reachable results present before padding";
}

/// Asserts two id matrices are element-wise identical (byte-identical
/// results, the serialization round-trip bar).
inline void ExpectSameIds(const Matrix<uint32_t>& a, const Matrix<uint32_t>& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " at flat index " << i;
  }
}

/// One batch search into a freshly allocated id matrix.
inline Matrix<uint32_t> SearchIds(const SearchIndex& idx, MatrixViewF queries,
                                  size_t k, const SearchOptions& p,
                                  ThreadPool* pool = nullptr) {
  Matrix<uint32_t> ids(queries.rows, k);
  SearchBatch(idx, queries, k, p, ids.data(), nullptr, nullptr, pool);
  return ids;
}

}  // namespace testutil
}  // namespace blink
