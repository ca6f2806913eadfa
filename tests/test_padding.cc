// Padding-contract tests (ISSUE 2 satellite): when k exceeds the number of
// reachable results, every search path pads ids with kInvalidId and dists
// with +inf — MakeSearcher() searchers, SearchBatch with and without
// distances, the serving engine, and the dynamic-index view.
#include <gtest/gtest.h>

#include "serve/engine.h"
#include "testutil.h"
#include "util/prng.h"

namespace blink {
namespace {

using testutil::ExpectPaddedRow;

constexpr size_t kCorpus = 5;  // tiny corpus so k=16 must pad
constexpr size_t kK = 16;

using TinyFixture = testutil::TinyWorld;  // corpus 5, 4 queries, seed 99

TEST(Padding, SearchBatchPadsToK) {
  TinyFixture f;
  SearchOptions p;
  const size_t nq = f.data.queries.rows();
  Matrix<uint32_t> ids(nq, kK);
  SearchBatch(*f.index, f.data.queries, kK, p, ids.data());
  for (size_t qi = 0; qi < nq; ++qi) {
    ExpectPaddedRow(ids.row(qi), nullptr, kK, kCorpus);
  }
}

TEST(Padding, SearchBatchExPadsIdsAndDists) {
  TinyFixture f;
  SearchOptions p;
  const size_t nq = f.data.queries.rows();
  Matrix<uint32_t> ids(nq, kK);
  MatrixF dists(nq, kK);
  ThreadPool pool(2);
  SearchBatch(*f.index, f.data.queries, kK, p, ids.data(), dists.data(),
              nullptr, &pool);
  for (size_t qi = 0; qi < nq; ++qi) {
    ExpectPaddedRow(ids.row(qi), dists.row(qi), kK, kCorpus);
  }
}

TEST(Padding, PooledSearcherPadsToK) {
  TinyFixture f;
  SearchOptions p;
  auto searcher = f.index->MakeSearcher();
  std::vector<uint32_t> ids(kK);
  std::vector<float> dists(kK);
  searcher->Search(f.data.queries.row(0), kK, p, ids.data(), dists.data(),
                   nullptr);
  ExpectPaddedRow(ids.data(), dists.data(), kK, kCorpus);
}

TEST(Padding, ServingEnginePadsSyncAndAsync) {
  TinyFixture f;
  SearchOptions p;
  ServingOptions opts;
  opts.num_threads = 2;
  ServingEngine engine(f.index.get(), opts);
  const size_t nq = f.data.queries.rows();
  Matrix<uint32_t> ids(nq, kK);
  MatrixF dists(nq, kK);
  engine.SearchBatch(f.data.queries, kK, p, ids.data(), dists.data());
  for (size_t qi = 0; qi < nq; ++qi) {
    ExpectPaddedRow(ids.row(qi), dists.row(qi), kK, kCorpus);
  }
  SearchResult res = engine.Submit(f.data.queries.row(0), kK, p).get();
  ASSERT_EQ(res.ids.size(), kK);
  ExpectPaddedRow(res.ids.data(), res.dists.data(), kK, kCorpus);
}

// Regression (ISSUE 4): DynamicIndex::Search used to return an *empty*
// result on live_size() == 0 instead of k padded slots.
TEST(Padding, EmptyDynamicIndexPadsToK) {
  DynamicIndex::Options o;
  o.graph_max_degree = 4;
  o.build_window = 8;
  DynamicIndex dyn(96, o);
  Dataset data = MakeDeepLike(4, 2, 107);
  SearchResult res;
  dyn.Search(data.queries.row(0), kK, 8, &res);
  ASSERT_EQ(res.ids.size(), kK);
  ASSERT_EQ(res.dists.size(), kK);
  ExpectPaddedRow(res.ids.data(), res.dists.data(), kK, /*corpus=*/0);

  // Same after inserting and deleting everything (live is 0 again, but
  // tombstones remain traversable until consolidation).
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 4; ++i) ids.push_back(dyn.Insert(data.base.row(i)));
  for (uint32_t id : ids) ASSERT_TRUE(dyn.Delete(id).ok());
  dyn.Search(data.queries.row(0), kK, 8, &res);
  ASSERT_EQ(res.ids.size(), kK);
  ExpectPaddedRow(res.ids.data(), res.dists.data(), kK, /*corpus=*/0);
}

// Regression (ISSUE 4): the tombstone window over-provision was capped at
// 64, so more than 64 tombstones closer to the query than the live points
// crowded every live result out of the candidate buffer. The slack now
// follows the actual tombstone count.
TEST(Padding, MassDeletionDoesNotCrowdOutLiveResults) {
  const size_t kNear = 120;  // > the old cap of 64, all deleted below
  const size_t kFar = 40;
  const size_t kDim = 8;
  const size_t k = 10;
  DynamicIndex::Options o;
  o.graph_max_degree = 8;
  o.build_window = 32;
  DynamicIndex dyn(kDim, o);
  Rng rng(42);
  // Near cluster around the origin (will be tombstoned), far cluster at a
  // large offset (stays live).
  std::vector<uint32_t> near_ids;
  float v[kDim];
  for (size_t i = 0; i < kNear; ++i) {
    for (size_t j = 0; j < kDim; ++j) {
      v[j] = rng.UniformFloat() * 0.1f;
    }
    near_ids.push_back(dyn.Insert(v));
  }
  for (size_t i = 0; i < kFar; ++i) {
    for (size_t j = 0; j < kDim; ++j) {
      v[j] = 100.0f + rng.UniformFloat() * 0.1f;
    }
    dyn.Insert(v);
  }
  for (uint32_t id : near_ids) ASSERT_TRUE(dyn.Delete(id).ok());

  // Query at the origin: all 120 tombstones are closer than any live
  // vector. A small window must still yield k live results.
  const float q[kDim] = {0};
  SearchResult res;
  dyn.Search(q, k, /*window=*/10, &res);
  ASSERT_EQ(res.ids.size(), k);
  size_t live = 0;
  for (uint32_t id : res.ids) {
    if (id == kInvalidId) continue;
    EXPECT_FALSE(dyn.IsDeleted(id));
    ++live;
  }
  EXPECT_EQ(live, k) << "tombstones crowded out live results";
}

TEST(Padding, DynamicViewPadsToK) {
  Dataset data = MakeDeepLike(kCorpus, 3, 101);
  DynamicIndex::Options o;
  o.graph_max_degree = 4;
  o.build_window = 8;
  DynamicIndex dyn(96, o);
  for (size_t i = 0; i < kCorpus; ++i) dyn.Insert(data.base.row(i));
  DynamicView<FloatStorage> view(&dyn);
  SearchOptions p;
  const size_t nq = data.queries.rows();
  Matrix<uint32_t> ids(nq, kK);
  MatrixF dists(nq, kK);
  SearchBatch(view, data.queries, kK, p, ids.data(), dists.data(), nullptr);
  for (size_t qi = 0; qi < nq; ++qi) {
    ExpectPaddedRow(ids.row(qi), dists.row(qi), kK, kCorpus);
  }
}

}  // namespace
}  // namespace blink
