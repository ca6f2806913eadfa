// Unit tests for Locally-adaptive Vector Quantization (paper Sec. 3,
// Definitions 1-2, Eqs. 2-7).
#include "quant/lvq.h"

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <numeric>
#include <vector>

#include "util/prng.h"

namespace blink {
namespace {

MatrixF RandomData(size_t n, size_t d, uint64_t seed, float spread = 1.0f,
                   float mean_offset = 0.0f) {
  MatrixF m(n, d);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      m(i, j) = mean_offset + spread * rng.Gaussian() +
                0.3f * static_cast<float>(j) / static_cast<float>(d);
    }
  }
  return m;
}

TEST(Lvq, MeanIsDatasetMean) {
  MatrixF data = RandomData(500, 16, 10, 1.0f, 3.0f);
  LvqDataset ds = LvqDataset::Encode(data, {});
  for (size_t j = 0; j < 16; ++j) {
    double acc = 0.0;
    for (size_t i = 0; i < 500; ++i) acc += data(i, j);
    EXPECT_NEAR(ds.mean()[j], acc / 500.0, 1e-4);
  }
}

TEST(Lvq, PerVectorBoundsMatchDefinitionOne) {
  // u = max_j (x_j - mu_j), l = min_j (x_j - mu_j), per vector (Eq. 3).
  MatrixF data = RandomData(100, 32, 11);
  LvqDataset ds = LvqDataset::Encode(data, {});
  for (size_t i = 0; i < 20; ++i) {
    float lo = 1e30f, hi = -1e30f;
    for (size_t j = 0; j < 32; ++j) {
      const float v = data(i, j) - ds.mean()[j];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const LvqConstants c = ds.constants(i);
    // Stored bounds are float16-rounded but must cover the true range.
    EXPECT_LE(c.lower, lo + 1e-6f);
    const float upper = c.lower + c.delta * static_cast<float>(MaxCode(ds.bits()));
    EXPECT_GE(upper, hi - 1e-6f);
    // And be tight to within float16 precision (relative 2^-11 + nudge).
    EXPECT_NEAR(c.lower, lo, std::max(2e-3f, std::fabs(lo) * 2e-3f));
  }
}

TEST(Lvq, ExtremeComponentsUseFullCodeRange) {
  // The min and max components of every vector must map to codes 0 and
  // 2^B - 1: LVQ uses the entire range (paper Fig. 2).
  MatrixF data = RandomData(50, 24, 12);
  LvqDataset ds = LvqDataset::Encode(data, {});
  for (size_t i = 0; i < 50; ++i) {
    uint32_t min_code = 255, max_code = 0;
    for (size_t j = 0; j < 24; ++j) {
      min_code = std::min(min_code, ds.code(i, j));
      max_code = std::max(max_code, ds.code(i, j));
    }
    EXPECT_EQ(min_code, 0u) << "vector " << i;
    EXPECT_EQ(max_code, 255u) << "vector " << i;
  }
}

TEST(Lvq, ReconstructionErrorBoundedByHalfDelta) {
  MatrixF data = RandomData(200, 48, 13);
  for (int bits : {4, 8}) {
    LvqDataset::Options o;
    o.bits = bits;
    LvqDataset ds = LvqDataset::Encode(data, o);
    std::vector<float> rec(48);
    for (size_t i = 0; i < 200; ++i) {
      ds.Decode(i, rec.data());
      const float half_delta = ds.constants(i).delta * 0.5f;
      for (size_t j = 0; j < 48; ++j) {
        EXPECT_LE(std::fabs(rec[j] - data(i, j)), half_delta * 1.001f)
            << "bits=" << bits << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(Lvq, FootprintMatchesEquationFour) {
  // footprint = ceil((d*B + 2*16)/8/p) * p bytes.
  MatrixF data = RandomData(10, 96, 14);
  {
    LvqDataset::Options o;  // B=8, p=32
    LvqDataset ds = LvqDataset::Encode(data, o);
    EXPECT_EQ(ds.vector_footprint(), 128u);  // ceil(100/32)*32
  }
  {
    LvqDataset::Options o;
    o.bits = 4;
    LvqDataset ds = LvqDataset::Encode(data, o);
    EXPECT_EQ(ds.vector_footprint(), 64u);  // 4 + 48 = 52 -> 64
  }
  {
    LvqDataset::Options o;
    o.padding = 0;  // unpadded
    LvqDataset ds = LvqDataset::Encode(data, o);
    EXPECT_EQ(ds.vector_footprint(), 100u);  // 4 + 96
  }
}

TEST(Lvq, CompressionRatioMatchesPaperExamples) {
  // Paper Sec. 3: B=8, p=0 gives CR 3.84 for d=96 and 3.98 for d=768.
  LvqDataset::Options o;
  o.padding = 0;
  {
    MatrixF data = RandomData(4, 96, 15);
    LvqDataset ds = LvqDataset::Encode(data, o);
    EXPECT_NEAR(ds.compression_ratio(), 3.84, 0.01);
  }
  {
    MatrixF data = RandomData(4, 768, 16);
    LvqDataset ds = LvqDataset::Encode(data, o);
    EXPECT_NEAR(ds.compression_ratio(), 3.98, 0.01);
  }
}

TEST(Lvq, ConstantVectorIsDegenerateButSafe) {
  MatrixF data(3, 8);
  for (size_t j = 0; j < 8; ++j) {
    data(0, j) = 2.0f;
    data(1, j) = 2.0f;
    data(2, j) = 2.0f;
  }
  LvqDataset ds = LvqDataset::Encode(data, {});
  std::vector<float> rec(8);
  ds.Decode(0, rec.data());
  for (size_t j = 0; j < 8; ++j) EXPECT_NEAR(rec[j], 2.0f, 1e-3f);
}

TEST(Lvq, EncodeWithMeanUsesProvidedModel) {
  MatrixF data = RandomData(100, 16, 17);
  std::vector<float> zero_mean(16, 0.0f);
  LvqDataset ds = LvqDataset::EncodeWithMean(data, zero_mean, {});
  EXPECT_EQ(ds.mean()[0], 0.0f);
  // Reconstruction still works (bounds absorb the uncentered offset).
  std::vector<float> rec(16);
  ds.Decode(0, rec.data());
  for (size_t j = 0; j < 16; ++j) {
    EXPECT_NEAR(rec[j], data(0, j), ds.constants(0).delta);
  }
}

TEST(Lvq, PrefetchDoesNotCrash) {
  MatrixF data = RandomData(10, 96, 18);
  LvqDataset ds = LvqDataset::Encode(data, {});
  for (size_t i = 0; i < 10; ++i) ds.PrefetchVector(i);
}

// --- Two-level (Definition 2) ---

TEST(Lvq2, ResidualErrorBoundedByLevel2Step) {
  MatrixF data = RandomData(200, 32, 19);
  LvqDataset::Options o;
  o.bits = 4;
  o.bits2 = 8;
  LvqDataset ds = LvqDataset::Encode(data, o);
  std::vector<float> rec(32);
  for (size_t i = 0; i < 200; ++i) {
    ds.Decode(i, rec.data());
    const float delta1 = ds.constants(i).delta;
    const float delta2 = delta1 / static_cast<float>(MaxCode(8));
    for (size_t j = 0; j < 32; ++j) {
      EXPECT_LE(std::fabs(rec[j] - data(i, j)), delta2 * 0.5f * 1.01f)
          << i << "," << j;
    }
  }
}

TEST(Lvq2, TwoLevelStrictlyImprovesOneLevel) {
  MatrixF data = RandomData(300, 64, 20);
  LvqDataset::Options o;
  o.bits = 4;
  o.bits2 = 4;
  LvqDataset ds2 = LvqDataset::Encode(data, o);
  // Level 1 alone: the one-level encoding against the same mean, which
  // writes the same level-1 blobs.
  const LvqDataset ds1 =
      LvqDataset::EncodeWithMean(data, ds2.mean(), {.bits = 4});
  std::vector<float> rec1(64), rec2(64);
  double err1 = 0.0, err2 = 0.0;
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_EQ(0, std::memcmp(ds1.blob(i), ds2.blob(i), ds1.stride())) << i;
    ds1.Decode(i, rec1.data());
    ds2.Decode(i, rec2.data());
    for (size_t j = 0; j < 64; ++j) {
      err1 += std::pow(rec1[j] - data(i, j), 2);
      err2 += std::pow(rec2[j] - data(i, j), 2);
    }
  }
  EXPECT_LT(err2, err1 / 10.0);  // 4 extra bits: ~16x amplitude, ~256x energy
}

TEST(Lvq2, FootprintMatchesEquationSeven) {
  MatrixF data = RandomData(10, 96, 21);
  LvqDataset::Options o;
  o.bits = 4;
  o.bits2 = 8;
  LvqDataset ds = LvqDataset::Encode(data, o);
  // level1: ceil((96*4/8 + 4)/32)*32 = 64; level2: 96*8/8 = 96.
  EXPECT_EQ(ds.vector_footprint(), 64u + 96u);
  EXPECT_EQ(ds.memory_bytes(), 10u * (64u + 96u));
}

TEST(Lvq2, NoExtraConstantsStored) {
  // The residual level is pure codes: stride == PackedBytes(d, B2).
  MatrixF data = RandomData(10, 40, 22);
  LvqDataset::Options o;
  o.bits = 8;
  o.bits2 = 4;
  LvqDataset ds = LvqDataset::Encode(data, o);
  EXPECT_EQ(ds.vector_footprint() - ds.stride(), PackedBytes(40, 4));
}

class LvqBitSweep : public ::testing::TestWithParam<int> {};

TEST_P(LvqBitSweep, MeanErrorTracksDeltaTheory) {
  // Under uniform quantization error, E|err| = Delta/4. Check within 25%.
  const int bits = GetParam();
  MatrixF data = RandomData(300, 64, 100 + bits);
  LvqDataset::Options o;
  o.bits = bits;
  LvqDataset ds = LvqDataset::Encode(data, o);
  std::vector<float> rec(64);
  double total_err = 0.0, total_expected = 0.0;
  for (size_t i = 0; i < 300; ++i) {
    ds.Decode(i, rec.data());
    for (size_t j = 0; j < 64; ++j) {
      total_err += std::fabs(rec[j] - data(i, j));
    }
    total_expected += 64.0 * ds.constants(i).delta / 4.0;
  }
  EXPECT_NEAR(total_err / total_expected, 1.0, 0.25) << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(BitWidths, LvqBitSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 10, 12));

}  // namespace
}  // namespace blink
