// Unit tests for the ScaNN-like baseline (anisotropic VQ + partitions).
#include "baselines/scann.h"

#include <cmath>
#include <gtest/gtest.h>

#include "data/groundtruth.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

namespace blink {
namespace {

struct ScannFixture {
  Dataset data = MakeDeepLike(4000, 50, 80);
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, 10, data.metric);

  double Recall(const ScannIndex& idx, uint32_t nprobe, uint32_t reorder) const {
    SearchOptions rp;
    rp.nprobe = nprobe;
    rp.reorder_k = reorder;
    Matrix<uint32_t> ids(data.queries.rows(), 10);
    SearchBatch(idx, data.queries, 10, rp, ids.data());
    return MeanRecallAtK(ids, gt, 10);
  }
};

TEST(Scann, DefaultLeavesIsSqrtN) {
  ScannFixture f;
  ScannParams p;
  ScannIndex idx(f.data.base, f.data.metric, p);
  // sqrt(4000) ~ 63; we add 1.
  EXPECT_NEAR(static_cast<double>(idx.n_leaves()), 64.0, 2.0);
}

TEST(Scann, EtaMatchesThresholdFormula) {
  ScannFixture f;
  ScannParams p;
  p.avq_threshold = 0.2f;
  ScannIndex idx(f.data.base, f.data.metric, p);
  // eta = (d-1) T^2 / (1-T^2) = 95 * 0.04 / 0.96.
  EXPECT_NEAR(idx.anisotropic_eta(), 95.0 * 0.04 / 0.96, 1e-3);
}

TEST(Scann, RecallIncreasesWithLeavesSearched) {
  // Many small leaves force a query's true neighbors to straddle
  // partitions, so probing more leaves must help.
  ScannFixture f;
  ScannParams p;
  p.n_leaves = 256;
  ScannIndex idx(f.data.base, f.data.metric, p);
  const double r1 = f.Recall(idx, 1, 50);
  const double rAll = f.Recall(idx, 256, 50);
  EXPECT_GT(rAll, r1);
  EXPECT_LT(r1, 0.99);
}

TEST(Scann, ReorderingIsEssentialAt4Bits) {
  // 4-bit product codes alone are coarse; reordering recovers accuracy —
  // the structure the paper's Sec. 6.6 argument rests on.
  ScannFixture f;
  ScannParams p;
  ScannIndex idx(f.data.base, f.data.metric, p);
  const double no_reorder = f.Recall(idx, 16, 0);
  const double with_reorder = f.Recall(idx, 16, 200);
  EXPECT_GT(with_reorder, no_reorder + 0.05);
  EXPECT_GE(with_reorder, 0.8);
}

TEST(Scann, FullProbeHighReorderNearExact) {
  ScannFixture f;
  ScannParams p;
  ScannIndex idx(f.data.base, f.data.metric, p);
  EXPECT_GE(f.Recall(idx, static_cast<uint32_t>(idx.n_leaves()), 500), 0.97);
}

TEST(Scann, InnerProductMetric) {
  Dataset data = MakeT2iLike(2000, 30, 81);
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, 10, data.metric);
  ScannParams p;
  ScannIndex idx(data.base, data.metric, p);
  SearchOptions rp;
  rp.nprobe = static_cast<uint32_t>(idx.n_leaves());
  rp.reorder_k = 300;
  Matrix<uint32_t> ids(data.queries.rows(), 10);
  SearchBatch(idx, data.queries, 10, rp, ids.data());
  EXPECT_GE(MeanRecallAtK(ids, gt, 10), 0.9);
}

TEST(Scann, MemoryIncludesReorderVectors) {
  ScannFixture f;
  ScannParams p;
  ScannIndex idx(f.data.base, f.data.metric, p);
  EXPECT_GE(idx.memory_bytes(), 4000u * 96u * 4u);  // full vectors dominate
}

}  // namespace
}  // namespace blink
