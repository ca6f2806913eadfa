// Unit tests for dataset IO (fvecs/ivecs + native format).
#include "util/io.h"

#include <cstdio>
#include <limits>
#include <gtest/gtest.h>
#include <string>

#include "util/prng.h"

namespace blink {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) {
    return testing::TempDir() + "blink_io_" + name;
  }
  void TearDown() override {
    for (const auto& p : cleanup_) std::remove(p.c_str());
  }
  std::string Track(const std::string& p) {
    cleanup_.push_back(p);
    return p;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(IoTest, FvecsRoundTrip) {
  MatrixF m(7, 13);
  Rng rng(1);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  const std::string p = Track(Path("a.fvecs"));
  ASSERT_TRUE(WriteFvecs(p, m).ok());
  auto r = ReadFvecs(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows(), 7u);
  ASSERT_EQ(r.value().cols(), 13u);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(r.value().data()[i], m.data()[i]);
  }
}

TEST_F(IoTest, IvecsRoundTrip) {
  Matrix<int32_t> m(3, 5);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<int32_t>(i * 31 - 7);
  }
  const std::string p = Track(Path("a.ivecs"));
  ASSERT_TRUE(WriteIvecs(p, m).ok());
  auto r = ReadIvecs(p);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(r.value().data()[i], m.data()[i]);
  }
}

TEST_F(IoTest, NativeF32RoundTrip) {
  MatrixF m(11, 4);
  Rng rng(2);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.UniformFloat();
  const std::string p = Track(Path("a.blnk"));
  ASSERT_TRUE(WriteNative(p, m).ok());
  auto r = ReadNativeF32(p);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows(), 11u);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(r.value().data()[i], m.data()[i]);
  }
}

TEST_F(IoTest, NativeU32RoundTrip) {
  Matrix<uint32_t> m(4, 9);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = static_cast<uint32_t>(i);
  const std::string p = Track(Path("b.blnk"));
  ASSERT_TRUE(WriteNative(p, m).ok());
  auto r = ReadNativeU32(p);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(r.value().data()[i], m.data()[i]);
  }
}

TEST_F(IoTest, DtypeMismatchIsAnError) {
  MatrixF m(2, 2);
  const std::string p = Track(Path("c.blnk"));
  ASSERT_TRUE(WriteNative(p, m).ok());
  auto r = ReadNativeU32(p);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, MissingFileIsIOError) {
  auto r = ReadFvecs("/nonexistent/path/x.fvecs");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(IoTest, CorruptedHeaderRejected) {
  const std::string p = Track(Path("bad.fvecs"));
  FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const int32_t bad_d = -4;
  std::fwrite(&bad_d, 4, 1, f);
  std::fclose(f);
  EXPECT_FALSE(ReadFvecs(p).ok());
}

TEST_F(IoTest, TruncatedPayloadRejected) {
  const std::string p = Track(Path("trunc.fvecs"));
  FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const int32_t d = 8;
  const float vals[3] = {1, 2, 3};  // claims 8, writes 3
  std::fwrite(&d, 4, 1, f);
  std::fwrite(vals, 4, 3, f);
  std::fclose(f);
  EXPECT_FALSE(ReadFvecs(p).ok());
}

TEST_F(IoTest, BadMagicRejected) {
  const std::string p = Track(Path("magic.blnk"));
  FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t junk = 0xDEADBEEF;
  std::fwrite(&junk, 4, 1, f);
  std::fclose(f);
  EXPECT_FALSE(ReadNativeF32(p).ok());
}

// A native header whose rows*cols promises far more payload than the file
// holds must fail with a Status before the counts size any allocation
// (a forged 2^40-row header used to be an OOM, not an error).
TEST_F(IoTest, ForgedNativeRowCountRejected) {
  const std::string p = Track(Path("forged_rows.blnk"));
  FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t magic = 0x4B4E4C42u, version = 1, dtype = 0;
  const uint64_t rows = 1ull << 40, cols = 128;
  std::fwrite(&magic, 4, 1, f);
  std::fwrite(&version, 4, 1, f);
  std::fwrite(&rows, 8, 1, f);
  std::fwrite(&cols, 8, 1, f);
  std::fwrite(&dtype, 4, 1, f);
  const float payload[4] = {1, 2, 3, 4};  // a token payload, nowhere near
  std::fwrite(payload, 4, 4, f);
  std::fclose(f);
  auto r = ReadNativeF32(p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().ToString().find("file size"), std::string::npos);
}

// rows * cols * sizeof(T) overflowing size_t must not wrap into a small
// allocation that the payload read then overruns.
TEST_F(IoTest, OverflowingNativeShapeRejected) {
  const std::string p = Track(Path("forged_overflow.blnk"));
  FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t magic = 0x4B4E4C42u, version = 1, dtype = 2;
  const uint64_t rows = 1ull << 62, cols = 1ull << 62;
  std::fwrite(&magic, 4, 1, f);
  std::fwrite(&version, 4, 1, f);
  std::fwrite(&rows, 8, 1, f);
  std::fwrite(&cols, 8, 1, f);
  std::fwrite(&dtype, 4, 1, f);
  std::fclose(f);
  auto r = ReadNativeU32(p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// An fvecs dimension header in the plausible range must still agree with
// the file size (the existing modulo check), and an absurd one is rejected
// outright before it sizes row arithmetic.
TEST_F(IoTest, ImplausibleFvecsDimensionRejected) {
  const std::string p = Track(Path("forged_dim.fvecs"));
  FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const int32_t d = (1 << 20) + 1;
  std::fwrite(&d, 4, 1, f);
  const float vals[2] = {0.5f, 0.25f};
  std::fwrite(vals, 4, 2, f);
  std::fclose(f);
  auto r = ReadFvecs(p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// NaN or Inf in a dataset file used to load silently and poison the
// index built from it; both float readers reject it, naming the entry.
TEST_F(IoTest, NonFiniteFvecsRejected) {
  const std::string p = Track(Path("nonfinite.fvecs"));
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    MatrixF m(4, 3);
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] = 0.5f;
    m.row(2)[1] = bad;
    ASSERT_TRUE(WriteFvecs(p, m).ok());
    auto r = ReadFvecs(p);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("row 2, column 1"), std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(IoTest, NonFiniteNativeF32Rejected) {
  const std::string p = Track(Path("nonfinite.blnk"));
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    MatrixF m(3, 5);
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] = 1.0f;
    m.row(0)[4] = bad;
    ASSERT_TRUE(WriteNative(p, m).ok());
    auto r = ReadNativeF32(p);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("row 0, column 4"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(Status, ToStringAndCodes) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  const Status s = Status::InvalidArgument("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("InvalidArgument"), std::string::npos);
  EXPECT_NE(s.ToString().find("boom"), std::string::npos);
}

TEST(ResultT, ValueAndStatusAccessors) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_TRUE(ok.status().ok());
  Result<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(7), 7);
}

}  // namespace
}  // namespace blink
