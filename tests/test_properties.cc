// Property-based suites: invariants that must hold across the cross
// product of bit widths, dimensionalities, and dataset families.
#include <cmath>
#include <gtest/gtest.h>
#include <tuple>

#include "blink.h"

namespace blink {
namespace {

// ---------------------------------------------------------------------------
// LVQ invariants across (bits, dim).
// ---------------------------------------------------------------------------
class LvqProperty : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(LvqProperty, RoundTripErrorIsWithinHalfStep) {
  const auto [bits, d] = GetParam();
  MatrixF data(60, d);
  Rng rng(bits * 1000 + d);
  for (size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = rng.Gaussian(0.5f, 1.5f);
  }
  LvqDataset::Options o;
  o.bits = bits;
  LvqDataset ds = LvqDataset::Encode(data, o);
  std::vector<float> rec(d);
  for (size_t i = 0; i < 60; ++i) {
    ds.Decode(i, rec.data());
    const float bound = ds.constants(i).delta * 0.5f * 1.001f + 1e-6f;
    for (size_t j = 0; j < d; ++j) {
      ASSERT_LE(std::fabs(rec[j] - data(i, j)), bound)
          << "bits=" << bits << " d=" << d << " i=" << i << " j=" << j;
    }
  }
}

TEST_P(LvqProperty, FootprintFormulaHolds) {
  const auto [bits, d] = GetParam();
  MatrixF data(4, d);
  LvqDataset::Options o;
  o.bits = bits;
  o.padding = 32;
  LvqDataset ds = LvqDataset::Encode(data, o);
  const size_t raw = (d * static_cast<size_t>(bits) + 7) / 8 + 4;
  const size_t expect = (raw + 31) / 32 * 32;
  EXPECT_EQ(ds.vector_footprint(), expect);
  EXPECT_NEAR(ds.compression_ratio(),
              static_cast<double>(d) * 4.0 / static_cast<double>(expect), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    BitsByDim, LvqProperty,
    ::testing::Combine(::testing::Values(2, 4, 8, 12),
                       ::testing::Values(7, 25, 96, 200, 768)));

// ---------------------------------------------------------------------------
// Kernel equivalence fuzz across encodings and phases.
// ---------------------------------------------------------------------------
class KernelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(KernelFuzz, LvqStorageDistanceMatchesDecodedDistance) {
  const int seed = GetParam();
  Rng rng(seed);
  const size_t d = 16 + rng.Bounded(200);
  const size_t n = 30;
  MatrixF data(n, d);
  for (size_t i = 0; i < data.size(); ++i) data.data()[i] = rng.Gaussian();
  for (int bits : {4, 8}) {
    LvqStorage storage(data, Metric::kL2, bits, 32);
    std::vector<float> q(d), dec(d);
    for (auto& v : q) v = rng.Gaussian();
    LvqStorage::Query qs;
    storage.PrepareQuery(q.data(), &qs);
    for (size_t i = 0; i < n; ++i) {
      storage.DecodeVector(i, dec.data());
      const float direct = simd::ref::L2Sqr(q.data(), dec.data(), d);
      const float fused = storage.Distance(qs, i);
      ASSERT_NEAR(fused, direct, 2e-3f * std::max(1.0f, direct))
          << "seed=" << seed << " bits=" << bits << " d=" << d << " i=" << i;
    }
  }
}

TEST_P(KernelFuzz, IpDistanceMatchesDecodedDistance) {
  const int seed = GetParam();
  Rng rng(seed + 5000);
  const size_t d = 8 + rng.Bounded(100);
  MatrixF data(20, d);
  for (size_t i = 0; i < data.size(); ++i) data.data()[i] = rng.Gaussian();
  LvqStorage storage(data, Metric::kInnerProduct, 8, 32);
  std::vector<float> q(d), dec(d);
  for (auto& v : q) v = rng.Gaussian();
  LvqStorage::Query qs;
  storage.PrepareQuery(q.data(), &qs);
  for (size_t i = 0; i < 20; ++i) {
    storage.DecodeVector(i, dec.data());
    const float direct = simd::ref::IpDist(q.data(), dec.data(), d);
    ASSERT_NEAR(storage.Distance(qs, i), direct,
                2e-3f * std::max(1.0f, std::fabs(direct)))
        << "seed=" << seed << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Two-level LVQ dominance across bit splits.
// ---------------------------------------------------------------------------
class TwoLevelProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TwoLevelProperty, SecondLevelNeverHurtsReconstruction) {
  const auto [b1, b2] = GetParam();
  MatrixF data(80, 64);
  Rng rng(b1 * 100 + b2);
  for (size_t i = 0; i < data.size(); ++i) data.data()[i] = rng.Gaussian();
  LvqDataset::Options o;
  o.bits = b1;
  o.bits2 = b2;
  LvqDataset ds = LvqDataset::Encode(data, o);
  // Level 1 alone: the one-level encoding against the same mean.
  const LvqDataset l1 =
      LvqDataset::EncodeWithMean(data, ds.mean(), {.bits = b1});
  std::vector<float> r1(64), r2(64);
  double e1 = 0.0, e2 = 0.0;
  for (size_t i = 0; i < 80; ++i) {
    l1.Decode(i, r1.data());
    ds.Decode(i, r2.data());
    for (size_t j = 0; j < 64; ++j) {
      e1 += std::pow(r1[j] - data(i, j), 2);
      e2 += std::pow(r2[j] - data(i, j), 2);
    }
  }
  EXPECT_LE(e2, e1 * 1.0001) << "b1=" << b1 << " b2=" << b2;
}

INSTANTIATE_TEST_SUITE_P(Splits, TwoLevelProperty,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(2, 4, 8)));

// ---------------------------------------------------------------------------
// Search invariants across dataset families.
// ---------------------------------------------------------------------------
class FamilyProperty : public ::testing::TestWithParam<int> {};

TEST_P(FamilyProperty, GraphSearchBeatsRandomByFar) {
  Dataset data = [&]() -> Dataset {
    switch (GetParam()) {
      case 0: return MakeDeepLike(1500, 30, 400);
      case 1: return MakeSiftLike(1500, 30, 401);
      case 2: return MakeGloveLike(25, 1500, 30, 402);
      case 3: return MakeDprLike(800, 20, 403);
      default: return MakeT2iLike(1500, 30, 404);
    }
  }();
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, 10, data.metric);
  VamanaBuildParams bp;
  bp.graph_max_degree = 24;
  bp.window_size = 48;
  bp.alpha = data.metric == Metric::kL2 ? 1.2f : 0.95f;
  auto idx = BuildOgLvq(data.base, data.metric, 8, 0, bp);
  SearchOptions p;
  p.window = 64;
  Matrix<uint32_t> ids(data.queries.rows(), 10);
  SearchBatch(*idx, data.queries, 10, p, ids.data());
  EXPECT_GE(MeanRecallAtK(ids, gt, 10), 0.8) << data.name;
}

INSTANTIATE_TEST_SUITE_P(Families, FamilyProperty, ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// Compression-ratio ordering across paddings.
// ---------------------------------------------------------------------------
TEST(Properties, PaddingOnlyEverGrowsFootprint) {
  MatrixF data(4, 96);
  for (size_t pad : {0u, 8u, 32u, 64u}) {
    LvqDataset::Options o;
    o.padding = pad;
    LvqDataset ds = LvqDataset::Encode(data, o);
    EXPECT_GE(ds.vector_footprint(), 100u);  // 4 + 96 raw bytes
    if (pad > 0) {
      EXPECT_EQ(ds.vector_footprint() % pad, 0u);
    }
  }
}

TEST(Properties, RecallNeverExceedsOne) {
  Dataset data = MakeDeepLike(300, 20, 500);
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, 10, data.metric);
  EXPECT_LE(MeanRecallAtK(gt, gt, 10), 1.0);
  EXPECT_DOUBLE_EQ(MeanRecallAtK(gt, gt, 10), 1.0);
}

}  // namespace
}  // namespace blink
