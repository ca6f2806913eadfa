// Unit tests for the storage codecs behind the graph engine (the Storage
// concept of graph/storage.h): query preparation, traversal vs full
// distances, prefetch hooks, naming and memory accounting.
#include "graph/storage.h"

#include <cmath>
#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/index.h"
#include "simd/distance.h"
#include "util/prng.h"

namespace blink {
namespace {

MatrixF SmallData(size_t n, size_t d, uint64_t seed) {
  MatrixF m(n, d);
  Rng rng(seed);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

TEST(FloatStorage, DistanceMatchesKernels) {
  MatrixF data = SmallData(50, 96, 1);
  FloatStorage s(data, Metric::kL2);
  FloatStorage::Query q;
  s.PrepareQuery(data.row(3), &q);
  EXPECT_FLOAT_EQ(s.Distance(q, 3), 0.0f);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(s.Distance(q, i), simd::ref::L2Sqr(data.row(3), data.row(i), 96),
                1e-3f * std::max(1.0f, s.Distance(q, i)));
  }
}

TEST(FloatStorage, FullDistanceEqualsDistance) {
  MatrixF data = SmallData(20, 32, 2);
  FloatStorage s(data, Metric::kL2);
  FloatStorage::Query q;
  s.PrepareQuery(data.row(0), &q);
  float scratch[32];
  EXPECT_FALSE(s.has_second_level());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_FLOAT_EQ(s.Distance(q, i), s.FullDistance(q, i, scratch));
  }
}

TEST(F16Storage, DecodeIsFloat16Rounding) {
  MatrixF data = SmallData(30, 24, 3);
  F16Storage s(data, Metric::kL2);
  std::vector<float> dec(24);
  s.DecodeVector(7, dec.data());
  for (size_t j = 0; j < 24; ++j) {
    EXPECT_EQ(dec[j], static_cast<float>(Float16(data(7, j))));
  }
}

TEST(F16Storage, IpMetricAgreesWithReference) {
  MatrixF data = SmallData(30, 40, 4);
  F16Storage s(data, Metric::kInnerProduct);
  F16Storage::Query q;
  std::vector<float> query(40);
  Rng rng(5);
  for (auto& v : query) v = rng.Gaussian();
  s.PrepareQuery(query.data(), &q);
  std::vector<float> dec(40);
  for (size_t i = 0; i < 30; ++i) {
    s.DecodeVector(i, dec.data());
    EXPECT_NEAR(s.Distance(q, i), simd::ref::IpDist(query.data(), dec.data(), 40),
                1e-3f);
  }
}

TEST(LvqStorage, EncodingNamesIdentifyConfig) {
  MatrixF data = SmallData(10, 16, 6);
  LvqStorage one(data, Metric::kL2, 8);
  LvqStorage two(data, Metric::kL2, 4, 8, 32);
  EXPECT_EQ(one.encoding_name(), "LVQ-8");
  EXPECT_EQ(two.encoding_name(), "LVQ-4x8");
  EXPECT_FALSE(one.has_second_level());
  EXPECT_TRUE(two.has_second_level());
}

TEST(LvqStorage, Lvq8x8ConfigurationWorks) {
  // The paper's LVQ-8x8 small-scale setting: 8-bit traversal + 8-bit
  // residual re-rank.
  MatrixF data = SmallData(60, 48, 7);
  LvqStorage s(data, Metric::kL2, 8, 8, 32);
  EXPECT_EQ(s.encoding_name(), "LVQ-8x8");
  LvqStorage::Query q;
  std::vector<float> query(48);
  Rng rng(8);
  for (auto& v : query) v = rng.Gaussian();
  s.PrepareQuery(query.data(), &q);
  std::vector<float> scratch(48), dec(48);
  for (size_t i = 0; i < 60; ++i) {
    // FullDistance must be strictly more accurate than the traversal
    // distance relative to the true distance.
    s.DecodeVector(i, dec.data());  // two-level reconstruction
    const float full = s.FullDistance(q, i, scratch.data());
    const float truth = simd::ref::L2Sqr(query.data(), dec.data(), 48);
    EXPECT_NEAR(full, truth, 1e-2f * std::max(1.0f, truth));
  }
}

TEST(LvqStorage, IpBiasCorrectionIsExact) {
  // IP distances must match -<q, decode(i)> including the mean term.
  MatrixF data = SmallData(40, 32, 9);
  LvqStorage s(data, Metric::kInnerProduct, 8);
  std::vector<float> query(32);
  Rng rng(10);
  for (auto& v : query) v = rng.Gaussian();
  LvqStorage::Query q;
  s.PrepareQuery(query.data(), &q);
  std::vector<float> dec(32);
  for (size_t i = 0; i < 40; ++i) {
    s.DecodeVector(i, dec.data());
    EXPECT_NEAR(s.Distance(q, i), simd::ref::IpDist(query.data(), dec.data(), 32),
                5e-3f);
  }
}

TEST(LvqStorage, TwoLevelMemoryExceedsOneLevel) {
  MatrixF data = SmallData(100, 96, 11);
  LvqStorage one(data, Metric::kL2, 4);
  LvqStorage two(data, Metric::kL2, 4, 8, 32);
  EXPECT_GT(two.memory_bytes(), one.memory_bytes());
  EXPECT_EQ(two.memory_bytes() - one.memory_bytes(), 100u * 96u);  // 8b codes
}

TEST(GlobalQuantStorage, DistanceMatchesDecoded) {
  MatrixF data = SmallData(40, 64, 12);
  for (int bits : {4, 8}) {
    GlobalQuantStorage s(data, Metric::kL2, bits, 0);
    GlobalQuantStorage::Query q;
    std::vector<float> query(64);
    Rng rng(13 + bits);
    for (auto& v : query) v = rng.Gaussian();
    s.PrepareQuery(query.data(), &q);
    std::vector<float> dec(64);
    for (size_t i = 0; i < 40; ++i) {
      s.DecodeVector(i, dec.data());
      const float truth = simd::ref::L2Sqr(query.data(), dec.data(), 64);
      EXPECT_NEAR(s.Distance(q, i), truth, 2e-3f * std::max(1.0f, truth))
          << "bits=" << bits;
    }
  }
}

TEST(GlobalQuantStorage, TwoLevelFullDistanceMoreAccurate) {
  MatrixF data = SmallData(60, 32, 14);
  GlobalQuantStorage s(data, Metric::kL2, 4, 8);
  ASSERT_TRUE(s.has_second_level());
  std::vector<float> query(32);
  Rng rng(15);
  for (auto& v : query) v = rng.Gaussian();
  GlobalQuantStorage::Query q;
  s.PrepareQuery(query.data(), &q);
  std::vector<float> scratch(32);
  double err_l1 = 0.0, err_full = 0.0;
  for (size_t i = 0; i < 60; ++i) {
    const float truth = simd::ref::L2Sqr(query.data(), data.row(i), 32);
    err_l1 += std::fabs(s.Distance(q, i) - truth);
    err_full += std::fabs(s.FullDistance(q, i, scratch.data()) - truth);
  }
  EXPECT_LT(err_full, err_l1 / 2.0);
}

TEST(Storages, PrefetchHooksAreSafe) {
  MatrixF data = SmallData(20, 96, 16);
  FloatStorage f32(data, Metric::kL2);
  F16Storage f16(data, Metric::kL2);
  LvqStorage lvq(data, Metric::kL2, 4, 8, 32);
  GlobalQuantStorage glob(data, Metric::kL2, 8, 4);
  for (size_t i = 0; i < 20; ++i) {
    f32.Prefetch(i);
    f32.PrefetchSecondLevel(i);
    f16.Prefetch(i);
    f16.PrefetchSecondLevel(i);
    lvq.Prefetch(i);
    lvq.PrefetchSecondLevel(i);
    glob.Prefetch(i);
    glob.PrefetchSecondLevel(i);
  }
}

TEST(Storages, SearchResultStatsArePopulated) {
  Dataset data = MakeDeepLike(1000, 5, 17);
  VamanaBuildParams bp;
  bp.graph_max_degree = 16;
  bp.window_size = 32;
  auto idx = BuildOgLvq(data.base, data.metric, 8, 0, bp);
  SearchOptions p;
  p.window = 24;
  auto searcher = idx->MakeSearcher();
  uint32_t ids[10];
  BatchStats res;
  searcher->Search(data.queries.row(0), 10, p, ids, nullptr, &res);
  EXPECT_GT(res.hops, 0u);
  EXPECT_GT(res.distance_computations, res.hops);  // >1 dist per expansion
  // A larger window explores at least as much.
  BatchStats res2;
  p.window = 96;
  searcher->Search(data.queries.row(0), 10, p, ids, nullptr, &res2);
  EXPECT_GE(res2.distance_computations, res.distance_computations);
}

}  // namespace
}  // namespace blink
