// Determinism contract of the search paths (ISSUE 2 satellite):
//
//   1. Thread-count invariance — batch search parallelism is across
//      queries and each query's search is sequential, so 1-thread and
//      N-thread SearchBatch (and the serving engine, pooled or async) must
//      produce byte-identical ids and dists.
//   2. Backend invariance, qualified — scalar and AVX2 kernels evaluate
//      the same sums in different orders (FMA + tree reduction), so
//      distances may differ in the last ulps. Permitted divergence, which
//      this test both documents and enforces: per-position distances agree
//      to 1e-3 relative, and result ids agree except where near-equal
//      distances legitimately swap ranks (>= 99% of positions identical).
//      Anything larger is a kernel bug, not float noise.
//
// The backend comparison re-executes this binary under BLINK_SIMD=scalar /
// avx2 (backend selection is per-process) and diffs the dumps; it skips on
// hosts (or sanitizer builds) where only one backend exists.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "eval/interface.h"
#include "graph/index.h"
#include "serve/engine.h"
#include "simd/distance.h"
#include "util/thread_pool.h"

namespace blink {
namespace {

constexpr size_t kN = 2000;
constexpr size_t kNq = 64;
constexpr size_t kK = 10;
constexpr uint64_t kSeed = 4242;

/// The shared fixture: float32 index built single-threaded from a fixed
/// seed, so every process (and backend) starts from the same graph.
std::unique_ptr<VamanaIndex<FloatStorage>> BuildFixedIndex(
    const Dataset& data) {
  VamanaBuildParams bp;
  bp.graph_max_degree = 24;
  bp.window_size = 48;
  bp.seed = kSeed;
  return BuildVamanaF32(data.base, data.metric, bp, /*pool=*/nullptr);
}

SearchOptions Params() {
  SearchOptions p;
  p.window = 32;
  return p;
}

TEST(Determinism, SingleVsMultiThreadByteIdentical) {
  Dataset data = MakeDeepLike(kN, kNq, kSeed);
  auto index = BuildFixedIndex(data);
  Matrix<uint32_t> ids1(kNq, kK), idsN(kNq, kK);
  MatrixF dists1(kNq, kK), distsN(kNq, kK);
  SearchBatch(*index, data.queries, kK, Params(), ids1.data(), dists1.data(),
              nullptr, /*pool=*/nullptr);
  ThreadPool pool(4);
  SearchBatch(*index, data.queries, kK, Params(), idsN.data(), distsN.data(),
              nullptr, &pool);
  EXPECT_EQ(std::memcmp(ids1.data(), idsN.data(),
                        ids1.size() * sizeof(uint32_t)),
            0);
  EXPECT_EQ(std::memcmp(dists1.data(), distsN.data(),
                        dists1.size() * sizeof(float)),
            0);
}

TEST(Determinism, EngineSyncAndAsyncMatchDirect) {
  Dataset data = MakeDeepLike(kN, kNq, kSeed);
  auto index = BuildFixedIndex(data);
  Matrix<uint32_t> direct(kNq, kK), pooled(kNq, kK);
  MatrixF direct_d(kNq, kK), pooled_d(kNq, kK);
  SearchBatch(*index, data.queries, kK, Params(), direct.data(),
              direct_d.data(), nullptr, nullptr);

  ServingOptions opts;
  opts.num_threads = 3;
  ServingEngine engine(index.get(), opts);
  engine.SearchBatch(data.queries, kK, Params(), pooled.data(),
                     pooled_d.data());
  EXPECT_EQ(std::memcmp(direct.data(), pooled.data(),
                        direct.size() * sizeof(uint32_t)),
            0);
  EXPECT_EQ(std::memcmp(direct_d.data(), pooled_d.data(),
                        direct_d.size() * sizeof(float)),
            0);

  for (size_t qi = 0; qi < kNq; ++qi) {
    SearchResult res = engine.Submit(data.queries.row(qi), kK, Params()).get();
    ASSERT_EQ(res.ids.size(), kK);
    for (size_t j = 0; j < kK; ++j) {
      ASSERT_EQ(res.ids[j], direct(qi, j)) << "query " << qi;
      ASSERT_EQ(res.dists[j], direct_d(qi, j)) << "query " << qi;
    }
  }
}

TEST(Determinism, RepeatedSearchesOnWarmSearcherIdentical) {
  // Pooled-searcher state reuse (visited epochs, buffers) must not leak
  // across queries: the same query must return the same answer every time.
  Dataset data = MakeDeepLike(kN, kNq, kSeed);
  auto index = BuildFixedIndex(data);
  auto searcher = index->MakeSearcher();
  std::vector<uint32_t> first(kK), again(kK);
  std::vector<float> first_d(kK), again_d(kK);
  for (size_t qi = 0; qi < 8; ++qi) {
    searcher->Search(data.queries.row(qi), kK, Params(), first.data(),
                     first_d.data(), nullptr);
    for (int rep = 0; rep < 3; ++rep) {
      // interleave another query to dirty the scratch
      searcher->Search(data.queries.row((qi + 5) % kNq), kK, Params(),
                       again.data(), again_d.data(), nullptr);
      searcher->Search(data.queries.row(qi), kK, Params(), again.data(),
                       again_d.data(), nullptr);
      ASSERT_EQ(first, again) << "query " << qi << " rep " << rep;
      ASSERT_EQ(first_d, again_d) << "query " << qi << " rep " << rep;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-backend comparison (subprocess per backend).
// ---------------------------------------------------------------------------

std::string DumpPath(const char* backend) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/blink_determinism_" +
         backend + "_" + std::to_string(getpid()) + ".bin";
}

/// Child mode: runs the fixed search and writes backend name + ids + dists.
TEST(Determinism, BackendDumpChild) {
  const char* path = std::getenv("BLINK_DETERMINISM_DUMP");
  if (path == nullptr) GTEST_SKIP() << "parent-driven child test";
  Dataset data = MakeDeepLike(kN, kNq, kSeed);
  auto index = BuildFixedIndex(data);
  Matrix<uint32_t> ids(kNq, kK);
  MatrixF dists(kNq, kK);
  SearchBatch(*index, data.queries, kK, Params(), ids.data(), dists.data(),
              nullptr, nullptr);
  std::FILE* f = std::fopen(path, "wb");
  ASSERT_NE(f, nullptr);
  char backend[16] = {0};
  std::snprintf(backend, sizeof(backend), "%s", simd::BackendName());
  std::fwrite(backend, 1, sizeof(backend), f);
  std::fwrite(ids.data(), sizeof(uint32_t), ids.size(), f);
  std::fwrite(dists.data(), sizeof(float), dists.size(), f);
  std::fclose(f);
}

struct Dump {
  std::string backend;
  std::vector<uint32_t> ids;
  std::vector<float> dists;
};

bool RunChildAndLoad(const std::string& exe, const char* backend, Dump* out) {
  const std::string path = DumpPath(backend);
  const std::string cmd = "BLINK_SIMD=" + std::string(backend) +
                          " BLINK_DETERMINISM_DUMP=" + path + " " + exe +
                          " --gtest_filter=Determinism.BackendDumpChild"
                          " > /dev/null 2>&1";
  if (std::system(cmd.c_str()) != 0) return false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char name[16] = {0};
  out->ids.resize(kNq * kK);
  out->dists.resize(kNq * kK);
  const bool ok =
      std::fread(name, 1, sizeof(name), f) == sizeof(name) &&
      std::fread(out->ids.data(), sizeof(uint32_t), out->ids.size(), f) ==
          out->ids.size() &&
      std::fread(out->dists.data(), sizeof(float), out->dists.size(), f) ==
          out->dists.size();
  std::fclose(f);
  std::remove(path.c_str());
  out->backend = name;
  return ok;
}

TEST(Determinism, ScalarVsAvx2WithinFloatTolerance) {
  if (std::getenv("BLINK_DETERMINISM_DUMP") != nullptr) {
    GTEST_SKIP() << "child process";
  }
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(len, 0);
  exe[len] = '\0';

  Dump scalar, avx2;
  ASSERT_TRUE(RunChildAndLoad(exe, "scalar", &scalar));
  ASSERT_TRUE(RunChildAndLoad(exe, "avx2", &avx2));
  if (scalar.backend == avx2.backend) {
    GTEST_SKIP() << "host/build has a single backend (" << scalar.backend
                 << "); nothing to compare";
  }

  // Permitted FP divergence (see file header): near-tie rank swaps only.
  size_t id_matches = 0;
  for (size_t i = 0; i < scalar.ids.size(); ++i) {
    if (scalar.ids[i] == avx2.ids[i]) ++id_matches;
    const float a = scalar.dists[i], b = avx2.dists[i];
    const float tol = 1e-3f * std::max(1.0f, std::max(std::fabs(a),
                                                      std::fabs(b)));
    EXPECT_NEAR(a, b, tol) << "position " << i;
  }
  EXPECT_GE(static_cast<double>(id_matches) /
                static_cast<double>(scalar.ids.size()),
            0.99);
}

}  // namespace
}  // namespace blink
