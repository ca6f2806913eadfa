// Unit tests for the QPS/recall sweep harness.
#include "eval/harness.h"

#include <gtest/gtest.h>

#include "simd/distance.h"
#include "testutil.h"

namespace blink {
namespace {

using testutil::DeepFixture;
using testutil::Fixture;

/// An index that returns exact answers (brute force), used to validate the
/// harness's recall accounting.
class ExactIndex : public SearchIndex {
 public:
  ExactIndex(MatrixViewF base, Metric metric) : base_(base), metric_(metric) {}
  std::string name() const override { return "exact"; }
  size_t size() const override { return base_.rows; }
  size_t dim() const override { return base_.cols; }
  size_t memory_bytes() const override {
    return base_.rows * base_.cols * sizeof(float);
  }
  std::unique_ptr<Searcher> MakeSearcher() const override {
    return std::make_unique<Exact>(this);
  }

 private:
  /// Brute force over the base rows, one query at a time.
  class Exact : public Searcher {
   public:
    explicit Exact(const ExactIndex* index)
        : Searcher(index->base_.cols), index_(index) {}

   private:
    void SearchFinite(const float* query, size_t k, const SearchOptions&,
                      uint32_t* ids, float* dists, BatchStats*) override {
      const MatrixViewF one(query, 1, index_->base_.cols);
      Matrix<uint32_t> gt =
          ComputeGroundTruth(index_->base_, one, k, index_->metric_);
      std::vector<float> gt_dists(k);
      for (size_t j = 0; j < k; ++j) {
        const float* v = index_->base_.row(gt.data()[j]);
        gt_dists[j] = index_->metric_ == Metric::kL2
                          ? simd::L2Sqr(query, v, one.cols)
                          : simd::IpDist(query, v, one.cols);
      }
      WritePaddedRow(gt.data(), gt_dists.data(), k, k, ids, dists);
    }

    const ExactIndex* index_;
  };

  MatrixViewF base_;
  Metric metric_;
};

TEST(Harness, ExactIndexScoresRecallOne) {
  Fixture f = DeepFixture(500, 20, 95);
  ExactIndex idx(f.data.base, f.data.metric);
  HarnessOptions opts;
  opts.best_of = 1;
  auto pts = RunSweep(idx, f.data.queries, f.gt, WindowSweep({10}), opts);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0].recall, 1.0);
  EXPECT_GT(pts[0].qps, 0.0);
}

TEST(Harness, SweepProducesOnePointPerSetting) {
  Fixture f = DeepFixture(800, 10, 96, /*k=*/10, /*R=*/16, /*W=*/32);
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  HarnessOptions opts;
  opts.best_of = 2;
  auto pts = RunSweep(*idx, f.data.queries, f.gt, WindowSweep({10, 20, 40}), opts);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].params.window, 10u);
  EXPECT_EQ(pts[2].params.window, 40u);
  // Bigger window: recall must not drop meaningfully.
  EXPECT_GE(pts[2].recall + 0.02, pts[0].recall);
}

TEST(Harness, SingleQueryModeRuns) {
  Fixture f = DeepFixture(500, 10, 97, /*k=*/10, /*R=*/16, /*W=*/32);
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  HarnessOptions opts;
  opts.best_of = 1;
  opts.single_query = true;
  auto pts = RunSweep(*idx, f.data.queries, f.gt, WindowSweep({20}), opts);
  EXPECT_GT(pts[0].mean_latency_us, 0.0);
  EXPECT_GT(pts[0].recall, 0.5);
}

TEST(Harness, QpsAtRecallPicksFrontier) {
  std::vector<SweepPoint> pts(3);
  pts[0].recall = 0.80;
  pts[0].qps = 1000;
  pts[1].recall = 0.92;
  pts[1].qps = 600;
  pts[2].recall = 0.99;
  pts[2].qps = 200;
  ASSERT_NE(PointAtRecall(pts, 0.9), nullptr);
  EXPECT_DOUBLE_EQ(PointAtRecall(pts, 0.9)->qps, 600.0);
  ASSERT_NE(PointAtRecall(pts, 0.95), nullptr);
  EXPECT_DOUBLE_EQ(PointAtRecall(pts, 0.95)->qps, 200.0);
  EXPECT_EQ(PointAtRecall(pts, 0.995), nullptr);  // unreachable
}

TEST(Harness, QpsAtRecallIgnoresDominatedPoints) {
  std::vector<SweepPoint> pts(3);
  pts[0].recall = 0.95;
  pts[0].qps = 900;  // dominates the slower lower-recall point below
  pts[1].recall = 0.91;
  pts[1].qps = 500;
  pts[2].recall = 0.99;
  pts[2].qps = 100;
  ASSERT_NE(PointAtRecall(pts, 0.9), nullptr);
  EXPECT_DOUBLE_EQ(PointAtRecall(pts, 0.9)->qps, 900.0);
}

TEST(Harness, PointAtRecallReturnsBestQps) {
  std::vector<SweepPoint> pts(3);
  pts[0].recall = 0.91;
  pts[0].qps = 500;
  pts[1].recall = 0.93;
  pts[1].qps = 700;
  pts[2].recall = 0.89;
  pts[2].qps = 900;
  const SweepPoint* p = PointAtRecall(pts, 0.9);
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->qps, 700.0);
  EXPECT_EQ(PointAtRecall(pts, 0.999), nullptr);
}

TEST(Harness, SweepGenerators) {
  auto w = WindowSweep({1, 2, 3});
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[1].window, 2u);
  auto p = ProbeSweep({1, 5}, {0, 100});
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[3].nprobe, 5u);
  EXPECT_EQ(p[3].reorder_k, 100u);
}

}  // namespace
}  // namespace blink
