// Unit tests for the IVF-PQ (+refine) baseline.
#include "baselines/ivf.h"

#include <gtest/gtest.h>

#include "data/groundtruth.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

namespace blink {
namespace {

struct IvfFixture {
  Dataset data = MakeDeepLike(4000, 50, 60);
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, 10, data.metric);

  IvfPqParams Params() const {
    IvfPqParams p;
    p.nlist = 64;
    p.pq.num_segments = 24;
    return p;
  }

  double Recall(const IvfPqIndex& idx, uint32_t nprobe,
                uint32_t reorder) const {
    SearchOptions rp;
    rp.nprobe = nprobe;
    rp.reorder_k = reorder;
    Matrix<uint32_t> ids(data.queries.rows(), 10);
    SearchBatch(idx, data.queries, 10, rp, ids.data());
    return MeanRecallAtK(ids, gt, 10);
  }
};

TEST(IvfPq, RecallIncreasesWithNprobe) {
  IvfFixture f;
  IvfPqIndex idx(f.data.base, f.data.metric, f.Params());
  const double r1 = f.Recall(idx, 1, 0);
  const double r8 = f.Recall(idx, 8, 0);
  const double r64 = f.Recall(idx, 64, 0);
  EXPECT_LT(r1, r64);
  EXPECT_LE(r8, r64 + 0.02);
  EXPECT_GT(r64, 0.5);  // all lists probed: limited only by PQ error
}

TEST(IvfPq, ReorderingBoostsRecall) {
  IvfFixture f;
  IvfPqIndex idx(f.data.base, f.data.metric, f.Params());
  const double no_reorder = f.Recall(idx, 16, 0);
  const double with_reorder = f.Recall(idx, 16, 100);
  EXPECT_GT(with_reorder, no_reorder);
  EXPECT_GE(with_reorder, 0.85);
}

TEST(IvfPq, FullProbeWithReorderIsNearExact) {
  IvfFixture f;
  IvfPqIndex idx(f.data.base, f.data.metric, f.Params());
  EXPECT_GE(f.Recall(idx, 64, 500), 0.98);
}

TEST(IvfPq, MemoryAccountsForRefineVectors) {
  IvfFixture f;
  IvfPqParams with = f.Params();
  IvfPqParams without = f.Params();
  without.keep_full_vectors = false;
  IvfPqIndex a(f.data.base, f.data.metric, with);
  IvfPqIndex b(f.data.base, f.data.metric, without);
  // The refine copy costs n*d*4 bytes — the paper's Sec. 6.6 criticism.
  EXPECT_GE(a.memory_bytes(), b.memory_bytes() + 4000u * 96u * 4u);
}

TEST(IvfPq, WithoutFullVectorsReorderIsNoop) {
  IvfFixture f;
  IvfPqParams p = f.Params();
  p.keep_full_vectors = false;
  IvfPqIndex idx(f.data.base, f.data.metric, p);
  EXPECT_NEAR(f.Recall(idx, 16, 100), f.Recall(idx, 16, 0), 1e-9);
}

TEST(IvfPq, InnerProductMetric) {
  Dataset data = MakeDprLike(1500, 30, 61);
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, 10, data.metric);
  IvfPqParams p;
  p.nlist = 32;
  p.pq.num_segments = 96;
  IvfPqIndex idx(data.base, data.metric, p);
  SearchOptions rp;
  rp.nprobe = 32;
  rp.reorder_k = 200;
  Matrix<uint32_t> ids(data.queries.rows(), 10);
  SearchBatch(idx, data.queries, 10, rp, ids.data());
  EXPECT_GE(MeanRecallAtK(ids, gt, 10), 0.9);
}

TEST(IvfPq, EveryPointLandsInExactlyOneList) {
  IvfFixture f;
  IvfPqIndex idx(f.data.base, f.data.metric, f.Params());
  // Probing all lists with huge reorder must be able to return any id:
  // verified indirectly by near-exact recall above; here check the name/
  // size/dim contract.
  EXPECT_EQ(idx.size(), 4000u);
  EXPECT_EQ(idx.dim(), 96u);
  EXPECT_NE(idx.name().find("IVFPQ"), std::string::npos);
}

}  // namespace
}  // namespace blink
