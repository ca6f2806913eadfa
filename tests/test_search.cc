// Unit tests for the greedy searcher over hand-constructed graphs, where
// the expected traversal is known exactly.
#include "graph/search.h"

#include <gtest/gtest.h>

#include <utility>

#include "graph/index.h"
#include "graph/storage.h"
#include "util/matrix.h"

namespace blink {
namespace {

/// n points on a line: point i at x = i (d = 2, second coord 0).
FloatStorage LineStorage(size_t n) {
  MatrixF m(n, 2);
  for (size_t i = 0; i < n; ++i) m(i, 0) = static_cast<float>(i);
  return FloatStorage(m, Metric::kL2, /*use_huge_pages=*/false);
}

/// Chain graph: i <-> i+1.
FlatGraph ChainGraph(size_t n) {
  FlatGraph g(n, 2, false);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> nbrs;
    if (i > 0) nbrs.push_back(static_cast<uint32_t>(i - 1));
    if (i + 1 < n) nbrs.push_back(static_cast<uint32_t>(i + 1));
    g.SetNeighbors(i, nbrs.data(), static_cast<uint32_t>(nbrs.size()));
  }
  return g;
}

/// A static index over the line's points and `graph`, entered at `entry`.
VamanaIndex<FloatStorage> LineIndex(size_t n, FlatGraph graph,
                                    uint32_t entry) {
  return VamanaIndex<FloatStorage>(LineStorage(n),
                                   BuiltGraph{std::move(graph), entry, 0.0},
                                   VamanaBuildParams{});
}

TEST(GreedySearch, WalksChainToTheTarget) {
  const size_t n = 50;
  const auto idx = LineIndex(n, ChainGraph(n), /*entry=*/0);
  GraphSearcher searcher(idx.read_view());
  SearchParams p;
  p.window = 4;
  SearchResult res;
  const float query[2] = {42.2f, 0.0f};
  searcher.Run(query, 3, p, &res);
  ASSERT_EQ(res.ids.size(), 3u);
  EXPECT_EQ(res.ids[0], 42u);
  EXPECT_EQ(res.ids[1], 43u);  // |42.2-43| < |42.2-41|
  EXPECT_EQ(res.ids[2], 41u);
  // Walking 0 -> 42 takes at least 42 expansions.
  EXPECT_GE(res.hops, 42u);
}

TEST(GreedySearch, WindowOneStillConverges) {
  const size_t n = 20;
  const auto idx = LineIndex(n, ChainGraph(n), /*entry=*/0);
  GraphSearcher searcher(idx.read_view());
  SearchParams p;
  p.window = 1;
  SearchResult res;
  const float query[2] = {15.0f, 0.0f};
  searcher.Run(query, 1, p, &res);
  ASSERT_EQ(res.ids.size(), 1u);
  EXPECT_EQ(res.ids[0], 15u);
}

TEST(GreedySearch, IsolatedEntryReturnsOnlyItself) {
  // No edges at all.
  const auto idx = LineIndex(5, FlatGraph(5, 2, false), /*entry=*/1);
  GraphSearcher searcher(idx.read_view());
  SearchParams p;
  p.window = 8;
  SearchResult res;
  const float query[2] = {3.0f, 0.0f};
  searcher.Run(query, 5, p, &res);
  ASSERT_EQ(res.ids.size(), 1u);
  EXPECT_EQ(res.ids[0], 1u);
  EXPECT_EQ(res.hops, 1u);
}

TEST(GreedySearch, VisitedSetDoesNotChangeChainResults) {
  const size_t n = 40;
  const auto idx = LineIndex(n, ChainGraph(n), /*entry=*/0);
  GraphSearcher searcher(idx.read_view());
  SearchParams a, b;
  a.window = b.window = 6;
  a.use_visited_set = false;
  b.use_visited_set = true;
  SearchResult ra, rb;
  const float query[2] = {29.7f, 0.0f};
  searcher.Run(query, 4, a, &ra);
  searcher.Run(query, 4, b, &rb);
  ASSERT_EQ(ra.ids, rb.ids);
}

TEST(GreedySearch, DistanceCountsAreConsistent) {
  const size_t n = 30;
  const auto idx = LineIndex(n, ChainGraph(n), /*entry=*/0);
  GraphSearcher searcher(idx.read_view());
  SearchParams p;
  p.window = 4;
  p.use_visited_set = true;
  SearchResult res;
  const float query[2] = {25.0f, 0.0f};
  searcher.Run(query, 2, p, &res);
  // With a visited set each node is evaluated at most once.
  EXPECT_LE(res.distance_computations, n);
  EXPECT_GE(res.distance_computations, 25u);
}

TEST(GreedySearch, CycleGraphTerminates) {
  // A pure cycle with the query far outside: the searcher must not loop.
  const size_t n = 16;
  FlatGraph g(n, 2, false);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t nbrs[2] = {static_cast<uint32_t>((i + 1) % n),
                              static_cast<uint32_t>((i + n - 1) % n)};
    g.SetNeighbors(i, nbrs, 2);
  }
  const auto idx = LineIndex(n, std::move(g), /*entry=*/5);
  GraphSearcher searcher(idx.read_view());
  SearchParams p;
  p.window = 3;
  p.use_visited_set = false;  // worst case for termination
  SearchResult res;
  const float query[2] = {-100.0f, 0.0f};
  searcher.Run(query, 3, p, &res);
  EXPECT_EQ(res.ids.size(), 3u);
  EXPECT_EQ(res.ids[0], 0u);  // nearest to -100 on the line
}

TEST(GreedySearch, KClampedToBufferContents) {
  const auto idx = LineIndex(3, ChainGraph(3), /*entry=*/0);
  GraphSearcher searcher(idx.read_view());
  SearchParams p;
  p.window = 8;
  SearchResult res;
  const float query[2] = {1.0f, 0.0f};
  searcher.Run(query, 10, p, &res);  // k > n
  EXPECT_EQ(res.ids.size(), 3u);
}

}  // namespace
}  // namespace blink
