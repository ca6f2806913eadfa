// Reranker-seam equivalence (ISSUE 9 satellite): the refactor moved the
// two-level re-rank epilogue out of GreedySearcher::ExtractTopK and
// DynamicGraphIndex::Search into the shared seam (graph/reranker.h); both
// indexes now run it from GraphSearcher's one result epilogue. These
// tests pin the seam to the pre-refactor semantics by re-implementing both
// original epilogues verbatim against the public post-search state
// (GraphSearcher::buffer() / query_state()) and asserting the
// production results are byte-identical — ids AND distance bit patterns —
// on the fixed-seed recall-floor dataset. Every input is deterministic; a
// failure here means the seam changed behavior, not flakiness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "graph/dynamic.h"
#include "graph/index.h"
#include "graph/search.h"
#include "testutil.h"

namespace blink {
namespace {

using testutil::Fixture;

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

void ExpectBitIdentical(const SearchResult& got,
                        const std::vector<uint32_t>& want_ids,
                        const std::vector<float>& want_dists,
                        const std::string& what) {
  ASSERT_EQ(got.ids.size(), want_ids.size()) << what;
  ASSERT_EQ(got.dists.size(), want_dists.size()) << what;
  for (size_t i = 0; i < want_ids.size(); ++i) {
    ASSERT_EQ(got.ids[i], want_ids[i]) << what << " id at rank " << i;
    ASSERT_EQ(Bits(got.dists[i]), Bits(want_dists[i]))
        << what << " dist bits at rank " << i;
  }
}

// --- static path ------------------------------------------------------------

using StaticLvqSearcher = GraphSearcher<VamanaIndex<LvqStorage>::ReadView>;

// The pre-seam GreedySearcher::ExtractTopK epilogue: re-score the clamped
// depth with FullDistance, partial_sort the first min(k, m) pairs, emit
// them. Reads only the public post-search state.
void OldStaticEpilogue(const LvqStorage& storage,
                       const StaticLvqSearcher& searcher, size_t k,
                       uint32_t rerank_window, std::vector<uint32_t>* ids,
                       std::vector<float>* dists) {
  const SearchBuffer& buf = searcher.buffer();
  size_t m = buf.size();
  if (rerank_window != 0) {
    m = std::min<size_t>(m, std::max<size_t>(rerank_window, k));
  }
  std::vector<float> decode(storage.dim());
  std::vector<std::pair<float, uint32_t>> rescored;
  for (size_t i = 0; i < m; ++i) {
    const uint32_t id = buf[i].id;
    rescored.push_back(
        {storage.FullDistance(searcher.query_state(), id, decode.data()), id});
  }
  const size_t kk = std::min(k, m);
  std::partial_sort(rescored.begin(),
                    rescored.begin() + static_cast<ptrdiff_t>(kk),
                    rescored.end());
  ids->clear();
  dists->clear();
  for (size_t i = 0; i < kk; ++i) {
    ids->push_back(rescored[i].second);
    dists->push_back(rescored[i].first);
  }
}

TEST(RerankerEquivalence, StaticLvq4x8MatchesOldEpilogue) {
  const Fixture f(MakeDeepLike(1500, 60, 321));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 4, 8, f.bp);
  StaticLvqSearcher searcher(idx->read_view());
  std::vector<uint32_t> want_ids;
  std::vector<float> want_dists;
  // rerank_window 0 (the historical whole-buffer depth) and a partial depth
  // that exercises the RerankDepth clamp against the old inline arithmetic.
  for (uint32_t rw : {uint32_t{0}, uint32_t{14}}) {
    SearchParams sp;
    sp.window = 48;
    sp.rerank = true;
    sp.rerank_window = rw;
    for (size_t qi = 0; qi < f.data.queries.rows(); ++qi) {
      SearchResult out;
      searcher.Run(f.data.queries.row(qi), f.k, sp, &out);
      OldStaticEpilogue(idx->storage(), searcher, f.k, rw, &want_ids,
                        &want_dists);
      ExpectBitIdentical(out, want_ids, want_dists,
                         "static rw=" + std::to_string(rw) + " query " +
                             std::to_string(qi));
    }
  }
}

// Without a second level there is nothing to re-rank: the seam must be a
// strict pass-through of the primary-sorted buffer.
TEST(RerankerEquivalence, StaticOneLevelIsPrimaryOrderPassThrough) {
  const Fixture f(MakeDeepLike(800, 30, 322));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  StaticLvqSearcher searcher(idx->read_view());
  SearchParams sp;
  sp.window = 48;
  for (size_t qi = 0; qi < f.data.queries.rows(); ++qi) {
    SearchResult out;
    searcher.Run(f.data.queries.row(qi), f.k, sp, &out);
    const SearchBuffer& buf = searcher.buffer();
    const size_t kk = std::min(f.k, buf.size());
    ASSERT_EQ(out.ids.size(), kk);
    for (size_t i = 0; i < kk; ++i) {
      ASSERT_EQ(out.ids[i], buf[i].id) << "query " << qi << " rank " << i;
      ASSERT_EQ(Bits(out.dists[i]), Bits(buf[i].dist))
          << "query " << qi << " rank " << i;
    }
  }
}

// --- dynamic path -----------------------------------------------------------

/// What the frozen dynamic epilogue reads of a finished search.
struct ReaderState {
  const SearchBuffer& buffer;
  const LvqStorage::Query& query;
};

// The pre-seam DynamicGraphIndex::Search epilogue: re-score the clamped
// depth (tombstone slack included), full sort, skim past deleted ids, pad
// to exactly k. Reads the searcher's public state left behind by Run().
// The slack it is given is the search buffer's own dead-entry count, which
// replaced the index-wide tombstone count when tombstones stopped filling
// the window.
void OldDynamicEpilogue(const DynamicLvqIndex& idx,
                        const ReaderState& scratch,
                        size_t k, uint32_t rerank_window, size_t tomb,
                        std::vector<uint32_t>* ids,
                        std::vector<float>* dists) {
  const SearchBuffer& buf = scratch.buffer;
  size_t m = buf.size();
  if (rerank_window != 0) {
    m = std::min<size_t>(m, std::max<size_t>(rerank_window, k) + tomb);
  }
  std::vector<float> decode(idx.dim());
  std::vector<std::pair<float, uint32_t>> rescored;
  for (size_t i = 0; i < m; ++i) {
    const uint32_t id = buf[i].id;
    rescored.push_back(
        {idx.storage().FullDistance(scratch.query, id, decode.data()), id});
  }
  std::sort(rescored.begin(), rescored.end());
  ids->clear();
  dists->clear();
  for (const auto& [dist, id] : rescored) {
    if (idx.IsDeleted(id)) continue;
    ids->push_back(id);
    dists->push_back(dist);
    if (ids->size() == k) break;
  }
  ids->resize(k, kInvalidId);
  dists->resize(k, kInvalidDist);
}

TEST(RerankerEquivalence, DynamicLvq4x8MatchesOldEpilogueUnderTombstones) {
  Dataset data = MakeDeepLike(1200, 50, 323);
  DynamicOptions opts;
  opts.graph_max_degree = 16;
  opts.build_window = 48;
  opts.metric = data.metric;
  opts.alpha = 1.2f;
  LvqDataset ds(ComputeMean(data.base, kDynamicMeanSampleRows),
                {.bits = 4, .bits2 = 8});
  const size_t dim = data.base.cols();
  DynamicLvqIndex idx(dim, opts, LvqStorage(std::move(ds), opts.metric));
  std::vector<uint32_t> inserted;
  for (size_t i = 0; i < data.base.rows(); ++i) {
    inserted.push_back(idx.Insert(data.base.row(i)));
  }
  // Tombstone a deterministic slice so the deleted-id filter (and its
  // depth slack) is actually exercised, not just compiled.
  for (size_t i = 0; i < inserted.size(); i += 17) {
    ASSERT_TRUE(idx.Delete(inserted[i]).ok());
  }
  const size_t tomb = idx.num_tombstones();
  ASSERT_GT(tomb, 0u);

  const size_t k = 10;
  std::vector<uint32_t> want_ids;
  std::vector<float> want_dists;
  size_t dead_seen = 0;
  for (uint32_t rw : {uint32_t{0}, uint32_t{14}}) {
    GraphSearcher searcher(idx.read_view());
    SearchParams sp;
    sp.window = 48;
    sp.rerank = true;
    sp.rerank_window = rw;
    for (size_t qi = 0; qi < data.queries.rows(); ++qi) {
      SearchResult out;
      searcher.Run(data.queries.row(qi), k, sp, &out);
      out.ids.resize(k, kInvalidId);
      out.dists.resize(k, kInvalidDist);
      const size_t dead = searcher.buffer().num_dead();
      dead_seen += dead;
      OldDynamicEpilogue(idx, {searcher.buffer(), searcher.query_state()}, k,
                         rw, dead, &want_ids, &want_dists);
      ExpectBitIdentical(out, want_ids, want_dists,
                         "dynamic rw=" + std::to_string(rw) + " query " +
                             std::to_string(qi));
    }
  }
  EXPECT_GT(dead_seen, 0u) << "no search met a tombstone";
}

}  // namespace
}  // namespace blink
