// End-to-end tests of the OG-LVQ index (graph + storage + search + rerank).
#include "graph/index.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "filter/synthetic.h"
#include "graph/dynamic.h"
#include "serve/engine.h"
#include "testutil.h"

namespace blink {
namespace {

using testutil::Fixture;

double RecallOf(const SearchIndex& idx, const Fixture& f, uint32_t window,
                bool rerank = true, bool visited = false) {
  return testutil::RecallAtWindow(idx, f, window, rerank, visited);
}

TEST(Index, Float32HighRecall) {
  Fixture f(MakeDeepLike(3000, 100, 20));
  auto idx = BuildVamanaF32(f.data.base, f.data.metric, f.bp);
  EXPECT_GE(RecallOf(*idx, f, 64), 0.95);
}

TEST(Index, Lvq8TracksFloat32Closely) {
  // Paper: LVQ-8 introduces negligible accuracy degradation.
  Fixture f(MakeDeepLike(3000, 100, 21));
  auto f32 = BuildVamanaF32(f.data.base, f.data.metric, f.bp);
  auto lvq = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  const double r32 = RecallOf(*f32, f, 64);
  const double r8 = RecallOf(*lvq, f, 64);
  EXPECT_GE(r8, r32 - 0.02);
}

TEST(Index, TwoLevelRerankBeatsLevel1Only) {
  Fixture f(MakeDeepLike(3000, 100, 22));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 4, 8, f.bp);
  const double with_rerank = RecallOf(*idx, f, 48, /*rerank=*/true);
  const double without = RecallOf(*idx, f, 48, /*rerank=*/false);
  EXPECT_GT(with_rerank, without);
  EXPECT_GE(with_rerank, 0.9);
}

TEST(Index, RecallMonotonicInWindow) {
  Fixture f(MakeDeepLike(3000, 100, 23));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  const double r10 = RecallOf(*idx, f, 10);
  const double r32 = RecallOf(*idx, f, 32);
  const double r96 = RecallOf(*idx, f, 96);
  EXPECT_LE(r10, r32 + 0.02);
  EXPECT_LE(r32, r96 + 0.02);
  EXPECT_GT(r96, r10);
}

TEST(Index, VisitedSetDoesNotChangeAccuracy) {
  // The visited set is a performance knob (Sec. 5); recall must be
  // essentially unchanged.
  Fixture f(MakeDeepLike(2000, 100, 24));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  const double without = RecallOf(*idx, f, 48, true, false);
  const double with = RecallOf(*idx, f, 48, true, true);
  EXPECT_NEAR(without, with, 0.02);

  // The dynamic index honors the knob too (its traversal is the same loop).
  DynamicOptions opts;
  opts.graph_max_degree = 24;
  opts.build_window = 48;
  opts.metric = f.data.metric;
  DynamicIndex dyn(f.data.base.cols(), opts);
  for (size_t i = 0; i < f.data.base.rows(); ++i) {
    dyn.Insert(f.data.base.row(i));
  }
  const DynamicView<FloatStorage> view(&dyn);
  EXPECT_NEAR(RecallOf(view, f, 48, true, false),
              RecallOf(view, f, 48, true, true), 0.02);
}

/// Every prefetch schedule must return bit-identical ids and distances:
/// prefetches change when bytes arrive, never what is scored.
void ExpectPrefetchInvariant(const SearchIndex& idx, MatrixViewF queries,
                             std::shared_ptr<const Predicate> filter,
                             FilterStrategy strategy, const std::string& what) {
  const size_t k = 10;
  const size_t n = queries.rows * k;
  std::vector<uint32_t> ref_ids(n), ids(n);
  std::vector<float> ref_dists(n), dists(n);
  const std::pair<uint32_t, uint32_t> schedules[] = {
      {0, 0}, {4, 8}, {1, 2}, {0, 64}};  // first = no prefetch
  for (const auto& [offset, step] : schedules) {
    SearchOptions p;
    p.window = 40;
    p.prefetch_offset = offset;
    p.prefetch_step = step;
    p.filter = filter;
    p.filter_strategy = strategy;
    const bool first = offset == 0 && step == 0;
    SearchBatch(idx, queries, k, p, first ? ref_ids.data() : ids.data(),
                first ? ref_dists.data() : dists.data(), nullptr);
    if (first) continue;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ids[i], ref_ids[i]) << what << " " << offset << "_" << step
                                    << " at " << i;
      ASSERT_EQ(std::memcmp(&dists[i], &ref_dists[i], sizeof(float)), 0)
          << what << " " << offset << "_" << step << " at " << i;
    }
  }
}

/// Unfiltered, push-down and post-filter searches of one index.
void ExpectPrefetchInvariantAllModes(const SearchIndex& idx,
                                     MatrixViewF queries,
                                     const std::string& what) {
  auto pred = std::make_shared<const Predicate>(
      Predicate::Parse("num0<0.2").value());
  ExpectPrefetchInvariant(idx, queries, nullptr, FilterStrategy::kAuto, what);
  ExpectPrefetchInvariant(idx, queries, pred, FilterStrategy::kInSearch,
                          what + " push-down");
  ExpectPrefetchInvariant(idx, queries, pred, FilterStrategy::kPostFilter,
                          what + " post-filter");
}

TEST(Index, PrefetchSettingsDoNotChangeResults) {
  Fixture f(MakeDeepLike(2000, 50, 25));
  auto md = std::make_shared<MetadataStore>(
      MakeSyntheticMetadata(f.data.base.rows(), {ColumnType::kF64}, 25));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  ASSERT_TRUE(idx->AttachMetadata(md).ok());
  ExpectPrefetchInvariantAllModes(*idx, f.data.queries, "static");
}

TEST(Index, PrefetchSettingsDoNotChangeDynamicResults) {
  Fixture f(MakeDeepLike(1500, 40, 29));
  const size_t dim = f.data.base.cols();
  DynamicOptions opts;
  opts.graph_max_degree = 24;
  opts.build_window = 48;
  opts.metric = f.data.metric;
  LvqDataset ds(ComputeMean(f.data.base, kDynamicMeanSampleRows),
                {.bits = 8});
  DynamicIndex f32(dim, opts);
  DynamicLvqIndex lvq(dim, opts, LvqStorage(std::move(ds), opts.metric));
  for (size_t i = 0; i < f.data.base.rows(); ++i) {
    f32.Insert(f.data.base.row(i));
    lvq.Insert(f.data.base.row(i));
  }
  for (uint32_t id = 0; id < f.data.base.rows(); id += 11) {
    ASSERT_TRUE(f32.Delete(id).ok());
    ASSERT_TRUE(lvq.Delete(id).ok());
  }
  auto md = [&] {
    return std::make_shared<MetadataStore>(
        MakeSyntheticMetadata(f.data.base.rows(), {ColumnType::kF64}, 29));
  };
  ASSERT_TRUE(f32.AttachMetadata(md()).ok());
  ASSERT_TRUE(lvq.AttachMetadata(md()).ok());
  ExpectPrefetchInvariantAllModes(DynamicView<FloatStorage>(&f32),
                                  f.data.queries, "dynamic-f32");
  ExpectPrefetchInvariantAllModes(DynamicView<LvqStorage>(&lvq),
                                  f.data.queries, "dynamic-lvq");
}

TEST(Index, InnerProductMetricWorks) {
  Fixture f(MakeDprLike(1500, 50, 26));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 4, 8, f.bp);
  EXPECT_GE(RecallOf(*idx, f, 64), 0.85);
}

TEST(Index, BatchMatchesSingleQuerySearch) {
  Fixture f(MakeDeepLike(1500, 20, 27));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  const size_t k = 10;
  SearchOptions p;
  p.window = 32;
  Matrix<uint32_t> batch(f.data.queries.rows(), k);
  SearchBatch(*idx, f.data.queries, k, p, batch.data());
  auto searcher = idx->MakeSearcher();
  std::vector<uint32_t> ids(k);
  for (size_t qi = 0; qi < f.data.queries.rows(); ++qi) {
    searcher->Search(f.data.queries.row(qi), k, p, ids.data(), nullptr,
                     nullptr);
    for (size_t j = 0; j < k; ++j) {
      ASSERT_EQ(batch(qi, j), ids[j]) << "query " << qi;
    }
  }
}

TEST(Index, ThreadedBatchMatchesSerialBatch) {
  Fixture f(MakeDeepLike(1500, 40, 28));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  const size_t k = 10;
  SearchOptions p;
  p.window = 32;
  Matrix<uint32_t> serial(f.data.queries.rows(), k);
  Matrix<uint32_t> threaded(f.data.queries.rows(), k);
  SearchBatch(*idx, f.data.queries, k, p, serial.data(), nullptr, nullptr,
              nullptr);
  ThreadPool pool(4);
  SearchBatch(*idx, f.data.queries, k, p, threaded.data(), nullptr, nullptr,
              &pool);
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial.data()[i], threaded.data()[i]) << i;
  }
}

TEST(Index, MemoryAccountingIsConsistent) {
  Fixture f(MakeDeepLike(1000, 10, 29));
  auto lvq = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  auto f32 = BuildVamanaF32(f.data.base, f.data.metric, f.bp);
  EXPECT_EQ(lvq->memory_bytes(),
            lvq->storage().memory_bytes() + lvq->graph().memory_bytes());
  // LVQ-8 vectors are ~3x smaller than float32 at d = 96 (padded).
  EXPECT_LT(lvq->storage().memory_bytes(),
            f32->storage().memory_bytes() * 45 / 100);
}

TEST(Index, NamesIdentifyConfiguration) {
  Fixture f(MakeDeepLike(300, 5, 30));
  auto one = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  auto two = BuildOgLvq(f.data.base, f.data.metric, 4, 8, f.bp);
  EXPECT_EQ(one->name(), "OG-LVQ-8-R24");
  EXPECT_EQ(two->name(), "OG-LVQ-4x8-R24");
}

TEST(Index, KLargerThanWindowIsClamped) {
  Fixture f(MakeDeepLike(500, 10, 31));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  SearchOptions p;
  p.window = 4;  // < k
  const size_t k = 10;
  Matrix<uint32_t> ids(f.data.queries.rows(), k);
  SearchBatch(*idx, f.data.queries, k, p, ids.data());
  // All k slots must be filled with valid ids.
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NE(ids.data()[i], UINT32_MAX);
  }
}

TEST(Index, GraphBuiltFromLvqSearchedWithFloat32) {
  // The Sec. 4 experiment shape: build the graph from compressed vectors,
  // then adopt it for full-precision search.
  Fixture f(MakeDeepLike(2000, 100, 32));
  LvqStorage lvq_storage(f.data.base, f.data.metric, 4);
  BuiltGraph g = BuildVamana(lvq_storage, f.bp);
  VamanaIndex<FloatStorage> idx(FloatStorage(f.data.base, f.data.metric),
                                std::move(g), f.bp);
  EXPECT_GE(RecallOf(idx, f, 64), 0.9);
}

}  // namespace
}  // namespace blink
