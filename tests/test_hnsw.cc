// Unit tests for the HNSW baseline.
#include "baselines/hnsw.h"

#include <gtest/gtest.h>

#include "data/groundtruth.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

namespace blink {
namespace {

struct HnswFixture {
  Dataset data = MakeDeepLike(3000, 50, 70);
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, 10, data.metric);

  double Recall(const HnswIndex& idx, uint32_t ef) const {
    SearchOptions rp;
    rp.window = ef;
    Matrix<uint32_t> ids(data.queries.rows(), 10);
    SearchBatch(idx, data.queries, 10, rp, ids.data());
    return MeanRecallAtK(ids, gt, 10);
  }
};

TEST(Hnsw, HighRecallAtModerateEf) {
  HnswFixture f;
  HnswParams p;
  p.M = 16;
  p.ef_construction = 100;
  HnswIndex idx(f.data.base, f.data.metric, p);
  EXPECT_GE(f.Recall(idx, 64), 0.9);
}

TEST(Hnsw, RecallIncreasesWithEf) {
  HnswFixture f;
  HnswParams p;
  p.M = 12;
  p.ef_construction = 80;
  HnswIndex idx(f.data.base, f.data.metric, p);
  const double r10 = f.Recall(idx, 10);
  const double r128 = f.Recall(idx, 128);
  EXPECT_GT(r128, r10);
  EXPECT_GE(r128, 0.9);
}

TEST(Hnsw, LayerZeroDegreeBounded) {
  HnswFixture f;
  HnswParams p;
  p.M = 8;
  p.ef_construction = 60;
  HnswIndex idx(f.data.base, f.data.metric, p);
  // Average layer-0 degree must be positive and <= 2M.
  const double avg = idx.AverageDegree(0);
  EXPECT_GT(avg, 1.0);
  EXPECT_LE(avg, 16.0);
}

TEST(Hnsw, HierarchyExists) {
  HnswFixture f;
  HnswParams p;
  p.M = 8;
  p.ef_construction = 60;
  HnswIndex idx(f.data.base, f.data.metric, p);
  // With n = 3000 and M = 8, several layers are expected (ln(3000)/ln(8)
  // ~ 3.9); at least one upper layer must exist.
  EXPECT_GE(idx.max_level(), 1);
  EXPECT_LT(idx.entry_point(), 3000u);
}

TEST(Hnsw, DeterministicGivenSeed) {
  Dataset data = MakeDeepLike(800, 10, 71);
  HnswParams p;
  p.M = 8;
  p.ef_construction = 50;
  HnswIndex a(data.base, data.metric, p);
  HnswIndex b(data.base, data.metric, p);
  SearchOptions rp;
  rp.window = 32;
  Matrix<uint32_t> ia(10, 10), ib(10, 10);
  SearchBatch(a, data.queries, 10, rp, ia.data());
  SearchBatch(b, data.queries, 10, rp, ib.data());
  for (size_t i = 0; i < ia.size(); ++i) {
    EXPECT_EQ(ia.data()[i], ib.data()[i]);
  }
}

TEST(Hnsw, InnerProductMetric) {
  Dataset data = MakeDprLike(1200, 30, 72);
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, 10, data.metric);
  HnswParams p;
  p.M = 16;
  p.ef_construction = 100;
  HnswIndex idx(data.base, data.metric, p);
  SearchOptions rp;
  rp.window = 96;
  Matrix<uint32_t> ids(data.queries.rows(), 10);
  SearchBatch(idx, data.queries, 10, rp, ids.data());
  EXPECT_GE(MeanRecallAtK(ids, gt, 10), 0.8);
}

TEST(Hnsw, ThreadedSearchMatchesSerial) {
  HnswFixture f;
  HnswParams p;
  p.M = 8;
  p.ef_construction = 50;
  HnswIndex idx(f.data.base, f.data.metric, p);
  SearchOptions rp;
  rp.window = 48;
  Matrix<uint32_t> serial(f.data.queries.rows(), 10);
  Matrix<uint32_t> threaded(f.data.queries.rows(), 10);
  SearchBatch(idx, f.data.queries, 10, rp, serial.data(), nullptr, nullptr,
              nullptr);
  ThreadPool pool(3);
  SearchBatch(idx, f.data.queries, 10, rp, threaded.data(), nullptr, nullptr,
              &pool);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.data()[i], threaded.data()[i]);
  }
}

TEST(Hnsw, TinyDataset) {
  Dataset data = MakeDeepLike(3, 2, 73);
  HnswParams p;
  HnswIndex idx(data.base, data.metric, p);
  SearchOptions rp;
  rp.window = 4;
  Matrix<uint32_t> ids(2, 3);
  SearchBatch(idx, data.queries, 3, rp, ids.data());
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_LT(ids.data()[i], 3u);
}

}  // namespace
}  // namespace blink
