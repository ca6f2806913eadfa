// Unit tests for the dynamic index (insert / delete / consolidate).
#include "graph/dynamic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "data/groundtruth.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "util/prng.h"

namespace blink {
namespace {

DynamicIndex::Options SmallOpts(Metric m = Metric::kL2) {
  DynamicIndex::Options o;
  o.graph_max_degree = 16;
  o.build_window = 48;
  o.metric = m;
  o.alpha = m == Metric::kL2 ? 1.2f : 0.95f;
  return o;
}

/// Recall of the dynamic index against brute force over its live vectors.
double LiveRecall(const DynamicIndex& idx, MatrixViewF queries, size_t k,
                  uint32_t window) {
  // Brute-force ground truth over the live set.
  double total = 0.0;
  SearchResult res;
  for (size_t qi = 0; qi < queries.rows; ++qi) {
    const float* q = queries.row(qi);
    std::vector<std::pair<float, uint32_t>> exact;
    for (uint32_t i = 0; i < idx.size(); ++i) {
      if (idx.IsDeleted(i)) continue;
      const float dist = idx.max_degree() == 0
                             ? 0.0f
                             : simd::L2Sqr(q, idx.vector(i), idx.dim());
      exact.push_back({dist, i});
    }
    std::sort(exact.begin(), exact.end());
    const size_t kk = std::min(k, exact.size());
    std::set<uint32_t> gt;
    for (size_t j = 0; j < kk; ++j) gt.insert(exact[j].second);
    idx.Search(q, k, window, &res);
    size_t hits = 0;
    for (uint32_t id : res.ids) hits += gt.count(id);
    total += kk > 0 ? static_cast<double>(hits) / static_cast<double>(kk) : 1.0;
  }
  return total / static_cast<double>(queries.rows);
}

TEST(Dynamic, EmptyIndexPadsToK) {
  DynamicIndex idx(8, SmallOpts());
  SearchResult res;
  const float q[8] = {0};
  idx.Search(q, 5, 16, &res);
  // Contract: exactly k slots even with nothing live, all padded.
  ASSERT_EQ(res.ids.size(), 5u);
  ASSERT_EQ(res.dists.size(), 5u);
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(res.ids[j], kInvalidId);
    EXPECT_TRUE(std::isinf(res.dists[j]));
  }
  EXPECT_EQ(idx.live_size(), 0u);
}

TEST(Dynamic, SingleInsertIsFindable) {
  DynamicIndex idx(4, SmallOpts());
  const float v[4] = {1, 2, 3, 4};
  const uint32_t id = idx.Insert(v);
  SearchResult res;
  idx.Search(v, 1, 8, &res);
  ASSERT_EQ(res.ids.size(), 1u);
  EXPECT_EQ(res.ids[0], id);
}

TEST(Dynamic, IncrementalBuildReachesHighRecall) {
  Dataset data = MakeDeepLike(2000, 50, 700);
  DynamicIndex idx(96, SmallOpts());
  for (size_t i = 0; i < 2000; ++i) idx.Insert(data.base.row(i));
  EXPECT_EQ(idx.live_size(), 2000u);
  EXPECT_GE(LiveRecall(idx, data.queries, 10, 64), 0.9);
}

TEST(Dynamic, DeletedVectorsDisappearFromResults) {
  Dataset data = MakeDeepLike(500, 20, 701);
  DynamicIndex idx(96, SmallOpts());
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 500; ++i) ids.push_back(idx.Insert(data.base.row(i)));
  // Delete the exact nearest neighbor of each query.
  SearchResult res;
  for (size_t qi = 0; qi < 20; ++qi) {
    idx.Search(data.queries.row(qi), 1, 64, &res);
    if (!res.ids.empty() && !idx.IsDeleted(res.ids[0])) {
      ASSERT_TRUE(idx.Delete(res.ids[0]).ok());
    }
  }
  for (size_t qi = 0; qi < 20; ++qi) {
    idx.Search(data.queries.row(qi), 10, 64, &res);
    for (uint32_t id : res.ids) {
      if (id == kInvalidId) continue;  // padding, not a result
      EXPECT_FALSE(idx.IsDeleted(id));
    }
  }
  EXPECT_LT(idx.live_size(), 500u);
}

// Tombstones clustered around a query: its 50 nearest live rows are
// deleted, and it is searched at a window of exactly k. Tombstones stay
// navigable but never count toward the window, so the search still
// returns k distinct live ids with no padding. A constant window slack
// smaller than the cluster cannot promise that.
TEST(Dynamic, ClusteredTombstonesStillFillAWindowOfK) {
  Dataset data = MakeDeepLike(1500, 8, 712);
  DynamicIndex idx(96, SmallOpts());
  for (size_t i = 0; i < 1500; ++i) idx.Insert(data.base.row(i));
  const size_t k = 10;
  SearchResult res;
  for (size_t qi = 0; qi < data.queries.rows(); ++qi) {
    const float* q = data.queries.row(qi);
    std::vector<std::pair<float, uint32_t>> exact;
    for (uint32_t i = 0; i < idx.size(); ++i) {
      if (!idx.IsDeleted(i)) {
        exact.push_back({simd::L2Sqr(q, idx.vector(i), idx.dim()), i});
      }
    }
    std::partial_sort(exact.begin(), exact.begin() + 50, exact.end());
    for (size_t j = 0; j < 50; ++j) {
      ASSERT_TRUE(idx.Delete(exact[j].second).ok());
    }
    idx.Search(q, k, /*window=*/k, &res);
    ASSERT_EQ(res.ids.size(), k);
    std::set<uint32_t> distinct;
    for (uint32_t id : res.ids) {
      ASSERT_NE(id, kInvalidId) << "query " << qi << " was padded";
      EXPECT_FALSE(idx.IsDeleted(id)) << "query " << qi << " got " << id;
      distinct.insert(id);
    }
    EXPECT_EQ(distinct.size(), k) << "query " << qi;
  }
  EXPECT_EQ(idx.num_tombstones(), 50 * data.queries.rows());
}

TEST(Dynamic, DoubleDeleteIsAnError) {
  DynamicIndex idx(4, SmallOpts());
  const float v[4] = {1, 0, 0, 0};
  const uint32_t id = idx.Insert(v);
  EXPECT_TRUE(idx.Delete(id).ok());
  EXPECT_FALSE(idx.Delete(id).ok());
  EXPECT_FALSE(idx.Delete(999).ok());
}

TEST(Dynamic, ConsolidationPreservesRecall) {
  Dataset data = MakeDeepLike(1500, 40, 702);
  DynamicIndex idx(96, SmallOpts());
  for (size_t i = 0; i < 1500; ++i) idx.Insert(data.base.row(i));
  // Delete a third of the points, consolidate, check recall on the rest.
  Rng rng(1);
  size_t deleted = 0;
  while (deleted < 500) {
    const uint32_t id = static_cast<uint32_t>(rng.Bounded(1500));
    if (!idx.IsDeleted(id)) {
      ASSERT_TRUE(idx.Delete(id).ok());
      ++deleted;
    }
  }
  idx.ConsolidateDeletes();
  EXPECT_EQ(idx.live_size(), 1000u);
  EXPECT_GE(LiveRecall(idx, data.queries, 10, 64), 0.85);
}

TEST(Dynamic, SlotsAreRecycledAfterConsolidation) {
  Dataset data = MakeDeepLike(300, 5, 703);
  DynamicIndex idx(96, SmallOpts());
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 200; ++i) ids.push_back(idx.Insert(data.base.row(i)));
  const size_t before = idx.size();
  ASSERT_TRUE(idx.Delete(ids[7]).ok());
  ASSERT_TRUE(idx.Delete(ids[11]).ok());
  idx.ConsolidateDeletes();
  const uint32_t a = idx.Insert(data.base.row(200));
  const uint32_t b = idx.Insert(data.base.row(201));
  // Recycled ids, no growth.
  EXPECT_TRUE(a == ids[7] || a == ids[11]);
  EXPECT_TRUE(b == ids[7] || b == ids[11]);
  EXPECT_EQ(idx.size(), before);
  EXPECT_EQ(idx.live_size(), 200u);
}

// Regression: a second ConsolidateDeletes used to re-queue already-purged,
// not-yet-recycled slots into the free list, handing the same slot to two
// different Inserts (aliased ids) and underflowing the deleted count.
TEST(Dynamic, RepeatedConsolidationDoesNotDuplicateFreeSlots) {
  Dataset data = MakeDeepLike(10, 1, 707);
  DynamicIndex idx(96, SmallOpts());
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 5; ++i) ids.push_back(idx.Insert(data.base.row(i)));
  ASSERT_TRUE(idx.Delete(ids[0]).ok());
  ASSERT_TRUE(idx.Delete(ids[1]).ok());
  idx.ConsolidateDeletes();
  // Purged slots no longer navigate; the search slack must reset even
  // though the slots are still unreused.
  EXPECT_EQ(idx.num_tombstones(), 0u);
  EXPECT_EQ(idx.num_deleted(), 2u);
  const uint32_t x = idx.Insert(data.base.row(5));  // recycles one slot
  ASSERT_TRUE(idx.Delete(ids[2]).ok());
  idx.ConsolidateDeletes();  // must not re-queue the still-free slot
  const uint32_t a = idx.Insert(data.base.row(6));
  const uint32_t b = idx.Insert(data.base.row(7));
  const uint32_t c = idx.Insert(data.base.row(8));
  std::set<uint32_t> live_ids = {ids[3], ids[4], x, a, b, c};
  EXPECT_EQ(live_ids.size(), 6u) << "an id was handed out twice";
  EXPECT_EQ(idx.live_size(), 6u);
  EXPECT_EQ(idx.size(), 6u);
  EXPECT_EQ(idx.num_deleted(), 0u);
}

TEST(Dynamic, InterleavedInsertDeleteStress) {
  Dataset data = MakeDeepLike(3000, 20, 704);
  DynamicIndex idx(96, SmallOpts());
  Rng rng(9);
  std::vector<uint32_t> live;
  size_t next = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 300 && next < 3000; ++i) {
      live.push_back(idx.Insert(data.base.row(next++)));
    }
    for (int i = 0; i < 100 && live.size() > 10; ++i) {
      const size_t pick = rng.Bounded(live.size());
      ASSERT_TRUE(idx.Delete(live[pick]).ok());
      live[pick] = live.back();
      live.pop_back();
    }
    if (round % 2 == 1) idx.ConsolidateDeletes();
  }
  EXPECT_EQ(idx.live_size(), live.size());
  EXPECT_GE(LiveRecall(idx, data.queries, 10, 96), 0.8);
}

TEST(Dynamic, GrowthBeyondInitialCapacity) {
  DynamicIndex::Options o = SmallOpts();
  o.initial_capacity = 16;
  Dataset data = MakeDeepLike(400, 5, 705);
  DynamicIndex idx(96, o);
  for (size_t i = 0; i < 400; ++i) idx.Insert(data.base.row(i));
  EXPECT_GE(idx.capacity(), 400u);
  EXPECT_GE(LiveRecall(idx, data.queries, 10, 64), 0.85);
}

TEST(Dynamic, DeleteAllThenReinsert) {
  Dataset data = MakeDeepLike(100, 3, 706);
  DynamicIndex idx(96, SmallOpts());
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 50; ++i) ids.push_back(idx.Insert(data.base.row(i)));
  for (uint32_t id : ids) ASSERT_TRUE(idx.Delete(id).ok());
  EXPECT_EQ(idx.live_size(), 0u);
  SearchResult res;
  idx.Search(data.queries.row(0), 5, 32, &res);
  ASSERT_EQ(res.ids.size(), 5u);
  for (uint32_t id : res.ids) EXPECT_EQ(id, kInvalidId);
  idx.ConsolidateDeletes();
  for (size_t i = 50; i < 100; ++i) idx.Insert(data.base.row(i));
  EXPECT_EQ(idx.live_size(), 50u);
  EXPECT_GE(LiveRecall(idx, data.queries, 10, 64), 0.9);
}

}  // namespace
}  // namespace blink
