// LeanVec (ISSUE 9 tentpole): the trainer's Status contract on degenerate
// samples, search quality of both shipped flavors, the self-describing
// BLLV round trip (Build -> Save -> Open, heap and mapped, byte-identical
// results with no caller-supplied parameters), truncation robustness, and
// Calibrate on a reduced-dimension primary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "api/calibrate.h"
#include "api/index.h"
#include "quant/leanvec.h"
#include "testutil.h"
#include "util/prng.h"

namespace blink {
namespace {

using testutil::Fixture;

// --- trainer Status contract ------------------------------------------------

MatrixF GaussianSample(size_t n, size_t d, uint64_t seed) {
  MatrixF m(n, d);
  Rng rng(seed);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

void ExpectOrthonormalColumns(const LeanVecModel& model) {
  const size_t d = model.dim();
  const size_t dp = model.reduced_dim();
  for (size_t a = 0; a < dp; ++a) {
    double norm2 = 0.0;
    for (size_t i = 0; i < d; ++i) {
      const float v = model.proj(i, a);
      ASSERT_TRUE(std::isfinite(v)) << "proj(" << i << "," << a << ")";
      norm2 += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(norm2, 1.0, 1e-3) << "column " << a << " not unit norm";
    for (size_t b = a + 1; b < dp; ++b) {
      double dot = 0.0;
      for (size_t i = 0; i < d; ++i) {
        dot += static_cast<double>(model.proj(i, a)) * model.proj(i, b);
      }
      EXPECT_NEAR(dot, 0.0, 1e-3) << "columns " << a << "," << b;
    }
  }
}

TEST(LeanVecTrainer, EmptySampleIsRejected) {
  auto r = TrainLeanVec(MatrixViewF(nullptr, 0, 16), 4);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("empty"), std::string::npos);
}

TEST(LeanVecTrainer, NonFiniteSampleIsRejected) {
  MatrixF s = GaussianSample(32, 16, 1);
  s(7, 3) = std::numeric_limits<float>::quiet_NaN();
  auto r = TrainLeanVec(MatrixViewF(s), 4);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("non-finite"), std::string::npos);

  s(7, 3) = std::numeric_limits<float>::infinity();
  auto r2 = TrainLeanVec(MatrixViewF(s), 4);
  EXPECT_FALSE(r2.ok());
}

// The trainer samples the first 16,384 rows, but the builders project and
// store every row, so a non-finite row past the sample must fail too.
TEST(LeanVecTrainer, NonFiniteRowPastTheSampleIsRejected) {
  MatrixF data = GaussianSample(16400, 16, 9);
  data(16390, 5) = std::numeric_limits<float>::quiet_NaN();
  auto f32 = BuildLeanVecStorage(MatrixViewF(data), Metric::kL2, 4, nullptr);
  ASSERT_FALSE(f32.ok());
  EXPECT_NE(f32.status().message().find("row 16390, column 5"),
            std::string::npos)
      << f32.status().ToString();
  auto lvq =
      BuildLeanVecLvqStorage(MatrixViewF(data), Metric::kL2, 4, nullptr);
  ASSERT_FALSE(lvq.ok());
  EXPECT_NE(lvq.status().message().find("row 16390, column 5"),
            std::string::npos)
      << lvq.status().ToString();
}

TEST(LeanVecTrainer, ReducedDimAboveDataDimIsRejected) {
  MatrixF s = GaussianSample(32, 16, 2);
  auto r = TrainLeanVec(MatrixViewF(s), 17);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("exceeds"), std::string::npos);
}

TEST(LeanVecTrainer, ZeroReducedDimResolvesToQuarter) {
  MatrixF s = GaussianSample(64, 16, 3);
  auto r = TrainLeanVec(MatrixViewF(s), 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().reduced_dim(), 4u);
  ExpectOrthonormalColumns(r.value());
}

// Duplicate rows center to the zero matrix: every covariance eigenvalue is
// zero, the hardest rank-deficiency. One-sided Jacobi must still hand back
// an orthonormal (here: identity-permuted) basis, and the trainer's
// per-column validation must accept it.
TEST(LeanVecTrainer, DuplicateRowSampleTrains) {
  MatrixF s(64, 16);
  Rng rng(4);
  for (size_t j = 0; j < 16; ++j) s(0, j) = rng.Gaussian();
  for (size_t i = 1; i < 64; ++i) {
    std::memcpy(s.row(i), s.row(0), 16 * sizeof(float));
  }
  auto r = TrainLeanVec(MatrixViewF(s), 4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectOrthonormalColumns(r.value());
}

// Constant (zero-variance) dimensions zero out rows and columns of the
// covariance; the surviving eigenvectors must span the varying dims.
TEST(LeanVecTrainer, ZeroVarianceDimsTrain) {
  MatrixF s = GaussianSample(64, 16, 5);
  for (size_t i = 0; i < 64; ++i) {
    for (size_t j = 0; j < 6; ++j) s(i, j) = 3.5f;  // constant block
  }
  auto r = TrainLeanVec(MatrixViewF(s), 4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectOrthonormalColumns(r.value());
  // The top-4 directions carry variance, so none of them should point into
  // the constant block.
  for (size_t c = 0; c < 4; ++c) {
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(r.value().proj(j, c), 0.0f, 1e-3)
          << "constant dim " << j << " leaked into column " << c;
    }
  }
}

// --- search quality ---------------------------------------------------------

const Fixture& SharedFixture() {
  static const Fixture* f = new Fixture(MakeDeepLike(2000, 100, 77));
  return *f;
}

IndexSpec LeanVecSpec(IndexKind kind, const Fixture& f) {
  IndexSpec spec;
  spec.kind = kind;
  spec.metric = f.data.metric;
  spec.graph = f.bp;
  return spec;
}

TEST(LeanVec, StaticLeanVecRecallFloor) {
  const Fixture& f = SharedFixture();
  Result<Index> index =
      Build(LeanVecSpec(IndexKind::kStaticLeanVec, f), f.data.base);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.value().spec().leanvec_dim, f.data.base.cols() / 4);
  const double recall =
      testutil::RecallAtWindow(index.value().AsSearchIndex(), f, 64);
  // Measured 0.99+: the full-dimension re-rank recovers the d -> d/4
  // projection loss. The floor leaves headroom for FP drift only.
  EXPECT_GE(recall, 0.9) << "static-leanvec recall floor broken";
}

TEST(LeanVec, StaticLeanVecLvqRecallFloor) {
  const Fixture& f = SharedFixture();
  Result<Index> index =
      Build(LeanVecSpec(IndexKind::kStaticLeanVecLvq, f), f.data.base);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const double recall =
      testutil::RecallAtWindow(index.value().AsSearchIndex(), f, 64);
  EXPECT_GE(recall, 0.9) << "static-leanvec-lvq recall floor broken";
}

// --- round trip -------------------------------------------------------------

class LeanVecRoundTrip : public testutil::TempPathTest {};

void SearchIdsAndDists(const Index& index, const Fixture& f,
                       Matrix<uint32_t>* ids, Matrix<float>* dists) {
  SearchOptions p;
  p.window = 48;
  *ids = Matrix<uint32_t>(f.data.queries.rows(), f.k);
  *dists = Matrix<float>(f.data.queries.rows(), f.k);
  SearchBatch(index.AsSearchIndex(), f.data.queries, f.k, p, ids->data(),
              dists->data(), nullptr);
}

void ExpectSameResults(const Index& a, const Index& b, const Fixture& f,
                       const std::string& what) {
  Matrix<uint32_t> ids_a, ids_b;
  Matrix<float> dists_a, dists_b;
  SearchIdsAndDists(a, f, &ids_a, &dists_a);
  SearchIdsAndDists(b, f, &ids_b, &dists_b);
  testutil::ExpectSameIds(ids_a, ids_b, what);
  for (size_t i = 0; i < dists_a.size(); ++i) {
    uint32_t bits_a, bits_b;
    std::memcpy(&bits_a, dists_a.data() + i, sizeof(bits_a));
    std::memcpy(&bits_b, dists_b.data() + i, sizeof(bits_b));
    ASSERT_EQ(bits_a, bits_b) << what << " dist bits at flat index " << i;
  }
}

void RoundTripBothModes(const std::string& prefix, IndexKind kind,
                        const Fixture& f) {
  Result<Index> built = Build(LeanVecSpec(kind, f), f.data.base);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE(built.value().Save(prefix).ok());

  // Self-describing: Open takes the path and nothing else.
  Result<Index> loaded = Open(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().kind(), kind);
  EXPECT_EQ(loaded.value().spec().leanvec_dim,
            built.value().spec().leanvec_dim);
  EXPECT_EQ(loaded.value().spec().metric, f.data.metric);
  ExpectSameResults(built.value(), loaded.value(),  f,
                    std::string(KindName(kind)) + " kLoad");

  OpenOptions mapped;
  mapped.load_mode = LoadMode::kMap;
  Result<Index> map = Open(prefix, mapped);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  ExpectSameResults(built.value(), map.value(), f,
                    std::string(KindName(kind)) + " kMap");
}

TEST_F(LeanVecRoundTrip, StaticLeanVecLoadAndMapAreByteIdentical) {
  const std::string prefix = Path("leanvec_f32");
  (void)Path("leanvec_f32.graph");
  (void)Path("leanvec_f32.vecs");
  RoundTripBothModes(prefix, IndexKind::kStaticLeanVec, SharedFixture());
}

TEST_F(LeanVecRoundTrip, StaticLeanVecLvqLoadAndMapAreByteIdentical) {
  const std::string prefix = Path("leanvec_lvq");
  (void)Path("leanvec_lvq.graph");
  (void)Path("leanvec_lvq.vecs");
  RoundTripBothModes(prefix, IndexKind::kStaticLeanVecLvq, SharedFixture());
}

// Explicit d' survives the round trip too (not just the d/4 default).
TEST_F(LeanVecRoundTrip, ExplicitReducedDimSurvives) {
  const Fixture& f = SharedFixture();
  IndexSpec spec = LeanVecSpec(IndexKind::kStaticLeanVec, f);
  spec.leanvec_dim = 32;
  Result<Index> built = Build(spec, f.data.base);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built.value().spec().leanvec_dim, 32u);
  const std::string prefix = Path("leanvec_d32");
  (void)Path("leanvec_d32.graph");
  (void)Path("leanvec_d32.vecs");
  ASSERT_TRUE(built.value().Save(prefix).ok());
  Result<Index> loaded = Open(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().spec().leanvec_dim, 32u);
  ExpectSameResults(built.value(), loaded.value(), f, "explicit d'");
}

// Every strict prefix of a BLLV payload must come back as a Status — the
// cut points cover mid-header, mid-model (mean / projection matrix), and
// both vector sections.
void ExpectVecsTruncationsFail(const std::string& prefix) {
  std::ifstream in(prefix + ".vecs", std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 256u);
  for (size_t cut :
       {size_t{0}, size_t{2}, size_t{7}, size_t{13}, size_t{33}, size_t{100},
        bytes.size() / 4, bytes.size() / 2, bytes.size() - 64,
        bytes.size() - 1}) {
    if (cut >= bytes.size()) continue;
    std::ofstream out(prefix + ".vecs",
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    auto r = Open(prefix);
    EXPECT_FALSE(r.ok()) << "BLLV truncated to " << cut
                         << " bytes unexpectedly loaded";
  }
}

TEST_F(LeanVecRoundTrip, TruncatedLeanVecVecsFails) {
  const Fixture& f = SharedFixture();
  for (IndexKind kind :
       {IndexKind::kStaticLeanVec, IndexKind::kStaticLeanVecLvq}) {
    const std::string prefix =
        Path(std::string("trunc_") + KindName(kind));
    (void)Path(std::string("trunc_") + KindName(kind) + ".graph");
    (void)Path(std::string("trunc_") + KindName(kind) + ".vecs");
    Result<Index> built = Build(LeanVecSpec(kind, f), f.data.base);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE(built.value().Save(prefix).ok());
    ExpectVecsTruncationsFail(prefix);
  }
}

// --- Calibrate --------------------------------------------------------------

TEST(LeanVec, CalibrateMeetsTargetOnLeanVec) {
  const Fixture& f = SharedFixture();
  Result<Index> index =
      Build(LeanVecSpec(IndexKind::kStaticLeanVec, f), f.data.base);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  CalibrationTarget t;
  t.target_recall = 0.95;
  t.sample_queries = f.data.queries;
  t.groundtruth = &f.gt;
  t.k = f.k;
  Result<SearchOptions> options = index.value().Calibrate(t);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  Matrix<uint32_t> ids(f.data.queries.rows(), f.k);
  index.value().SearchBatch(f.data.queries, f.k, options.value(), ids.data());
  // Same sample, same build: the 0.01 slack covers SIMD-backend FP drift.
  EXPECT_GE(MeanRecallAtK(ids, f.gt, f.k), 0.95 - 0.01);
}

}  // namespace
}  // namespace blink
