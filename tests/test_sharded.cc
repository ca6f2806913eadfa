// Sharded index subsystem tests (ISSUE 3 tentpole): partitioner
// invariants, parallel per-shard build determinism, merged-search quality
// vs the unsharded index, serialization, serving-engine integration, and
// the padding-contract conformance satellite (empty/tiny shards must pad
// with kInvalidId / +inf on every path, including the merge).
#include "shard/sharded_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "serve/engine.h"
#include "shard/serialize.h"
#include "testutil.h"

namespace blink {
namespace {

using testutil::DeepFixture;
using testutil::ExpectPaddedRow;
using testutil::ExpectSameIds;
using testutil::Fixture;
using testutil::SearchIds;

ShardedBuildParams ShardParams(const Fixture& f, size_t S,
                               PartitionMethod method =
                                   PartitionMethod::kBalancedKMeans) {
  ShardedBuildParams sp;
  sp.partition.num_shards = S;
  sp.partition.method = method;
  sp.graph = f.bp;
  sp.bits1 = 8;
  sp.bits2 = 0;
  return sp;
}

// ---------------------------------------------------------------------------
// Partitioner.
// ---------------------------------------------------------------------------
void ExpectIsPartition(const Partition& p, size_t n) {
  ASSERT_EQ(p.global_to_shard.size(), n);
  std::set<uint32_t> seen;
  for (size_t s = 0; s < p.num_shards(); ++s) {
    for (size_t l = 0; l < p.shard_to_global[s].size(); ++l) {
      const uint32_t g = p.shard_to_global[s][l];
      ASSERT_LT(g, n);
      ASSERT_TRUE(seen.insert(g).second) << "id " << g << " in two shards";
      ASSERT_EQ(p.global_to_shard[g], s) << "remap disagrees for id " << g;
    }
  }
  ASSERT_EQ(seen.size(), n) << "every id must land in exactly one shard";
}

TEST(Partitioner, KMeansCoversEveryIdExactlyOnce) {
  Dataset data = MakeDeepLike(2000, 4, 7);
  PartitionerParams pp;
  pp.num_shards = 5;
  Partition p = PartitionDataset(data.base, pp);
  ASSERT_EQ(p.num_shards(), 5u);
  ExpectIsPartition(p, 2000);
  ASSERT_EQ(p.centroids.rows(), 5u);
  ASSERT_EQ(p.centroids.cols(), data.base.cols());
}

TEST(Partitioner, BalanceCapHolds) {
  Dataset data = MakeDeepLike(3000, 4, 8);
  PartitionerParams pp;
  pp.num_shards = 6;
  pp.balance_slack = 0.15;
  Partition p = PartitionDataset(data.base, pp);
  const size_t cap = static_cast<size_t>(
      std::ceil((3000.0 / 6.0) * (1.0 + pp.balance_slack)));
  for (size_t s = 0; s < p.num_shards(); ++s) {
    EXPECT_LE(p.shard_to_global[s].size(), cap) << "shard " << s;
    EXPECT_GT(p.shard_to_global[s].size(), 0u) << "shard " << s;
  }
}

TEST(Partitioner, RoundRobinIsExact) {
  Dataset data = MakeDeepLike(103, 4, 9);
  PartitionerParams pp;
  pp.num_shards = 4;
  pp.method = PartitionMethod::kRoundRobin;
  Partition p = PartitionDataset(data.base, pp);
  ExpectIsPartition(p, 103);
  for (size_t i = 0; i < 103; ++i) {
    EXPECT_EQ(p.global_to_shard[i], i % 4);
  }
}

TEST(Partitioner, DeterministicAcrossRunsAndThreadCounts) {
  Dataset data = MakeDeepLike(1500, 4, 10);
  PartitionerParams pp;
  pp.num_shards = 4;
  ThreadPool pool(3);
  Partition a = PartitionDataset(data.base, pp);
  Partition b = PartitionDataset(data.base, pp, &pool);
  ASSERT_EQ(a.global_to_shard, b.global_to_shard);
}

TEST(Partitioner, FewerPointsThanShardsLeavesEmptyShards) {
  Dataset data = MakeDeepLike(3, 2, 11);
  PartitionerParams pp;
  pp.num_shards = 8;
  Partition p = PartitionDataset(data.base, pp);
  ExpectIsPartition(p, 3);
  size_t empty = 0;
  for (size_t s = 0; s < p.num_shards(); ++s) {
    empty += p.shard_to_global[s].empty() ? 1 : 0;
  }
  EXPECT_EQ(empty, 5u);
}

// ---------------------------------------------------------------------------
// Build + merged search quality.
// ---------------------------------------------------------------------------
TEST(Sharded, S4Nprobe2RecallWithin2PercentOfUnsharded) {
  // The ISSUE 3 acceptance bar: S=4 with nprobe_shards=2 stays within 2%
  // of the unsharded index at the same per-shard window.
  Fixture f = DeepFixture(3000, 100, 42);
  ThreadPool pool(2);
  auto flat = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp, &pool);
  auto sharded = BuildShardedLvq(f.data.base, f.data.metric,
                                 ShardParams(f, 4), &pool);
  SearchOptions p;
  p.window = 64;
  const double flat_recall = testutil::RecallOf(*flat, f, p);
  p.nprobe_shards = 2;
  const double sharded_recall = testutil::RecallOf(*sharded, f, p);
  EXPECT_GE(sharded_recall, flat_recall - 0.02)
      << "flat=" << flat_recall << " sharded=" << sharded_recall;
}

TEST(Sharded, ProbingMoreShardsDoesNotHurtRecall) {
  Fixture f = DeepFixture(2000, 80, 43);
  auto idx = BuildShardedLvq(f.data.base, f.data.metric, ShardParams(f, 4));
  SearchOptions p;
  p.window = 48;
  p.nprobe_shards = 1;
  const double r1 = testutil::RecallOf(*idx, f, p);
  p.nprobe_shards = 2;
  const double r2 = testutil::RecallOf(*idx, f, p);
  p.nprobe_shards = 0;  // all
  const double rall = testutil::RecallOf(*idx, f, p);
  EXPECT_LE(r1, r2 + 0.02);
  EXPECT_LE(r2, rall + 0.02);
  EXPECT_GE(rall, 0.9);
}

TEST(Sharded, ParallelBuildMatchesSerialBuild) {
  Fixture f = DeepFixture(1200, 30, 44);
  ThreadPool pool(4);
  ShardedBuilder builder(ShardParams(f, 4));
  auto serial = builder.Build(f.data.base, f.data.metric, nullptr);
  auto parallel = builder.Build(f.data.base, f.data.metric, &pool);
  SearchOptions p;
  p.window = 40;
  p.nprobe_shards = 2;
  ExpectSameIds(SearchIds(*serial, f.data.queries, f.k, p),
                SearchIds(*parallel, f.data.queries, f.k, p),
                "serial vs parallel build");
}

TEST(Sharded, ThreadedBatchMatchesSerialBatch) {
  Fixture f = DeepFixture(1200, 40, 45);
  auto idx = BuildShardedLvq(f.data.base, f.data.metric, ShardParams(f, 4));
  SearchOptions p;
  p.window = 40;
  p.nprobe_shards = 2;
  ThreadPool pool(4);
  ExpectSameIds(SearchIds(*idx, f.data.queries, f.k, p),
                SearchIds(*idx, f.data.queries, f.k, p, &pool),
                "serial vs threaded batch");
}

TEST(Sharded, PooledSearcherMatchesBatchPath) {
  Fixture f = DeepFixture(1000, 20, 46);
  auto idx = BuildShardedLvq(f.data.base, f.data.metric, ShardParams(f, 3));
  SearchOptions p;
  p.window = 40;
  p.nprobe_shards = 2;
  Matrix<uint32_t> batch = SearchIds(*idx, f.data.queries, f.k, p);
  auto searcher = idx->MakeSearcher();
  std::vector<uint32_t> ids(f.k);
  std::vector<float> dists(f.k);
  for (size_t qi = 0; qi < f.data.queries.rows(); ++qi) {
    searcher->Search(f.data.queries.row(qi), f.k, p, ids.data(), dists.data(),
                     nullptr);
    for (size_t j = 0; j < f.k; ++j) {
      ASSERT_EQ(batch(qi, j), ids[j]) << "query " << qi;
    }
  }
}

TEST(Sharded, SearchBatchExReportsDistsAndStats) {
  Fixture f = DeepFixture(900, 25, 47);
  auto idx = BuildShardedLvq(f.data.base, f.data.metric, ShardParams(f, 3));
  SearchOptions p;
  p.window = 32;
  p.nprobe_shards = 2;
  const size_t nq = f.data.queries.rows();
  Matrix<uint32_t> ids(nq, f.k);
  MatrixF dists(nq, f.k);
  BatchStats stats;
  SearchBatch(*idx, f.data.queries, f.k, p, ids.data(), dists.data(), &stats);
  EXPECT_GT(stats.distance_computations, 0u);
  EXPECT_GT(stats.hops, 0u);
  for (size_t qi = 0; qi < nq; ++qi) {
    for (size_t j = 0; j + 1 < f.k; ++j) {
      EXPECT_LE(dists(qi, j), dists(qi, j + 1)) << "merge must sort row " << qi;
    }
  }
}

TEST(Sharded, InnerProductMetricWorks) {
  Fixture f(MakeDprLike(1500, 50, 48));
  auto idx = BuildShardedLvq(f.data.base, f.data.metric, ShardParams(f, 3));
  SearchOptions p;
  p.window = 64;
  p.nprobe_shards = 2;
  // IP partitions prune less cleanly than L2 (high-norm vectors matter to
  // every query), so subset probing gives up a bit more recall.
  EXPECT_GE(testutil::RecallOf(*idx, f, p), 0.75);
  p.nprobe_shards = 0;
  EXPECT_GE(testutil::RecallOf(*idx, f, p), 0.85);
}

TEST(Sharded, RoundRobinPartitionStillSearches) {
  Fixture f = DeepFixture(1000, 30, 49);
  auto idx = BuildShardedLvq(f.data.base, f.data.metric,
                             ShardParams(f, 4, PartitionMethod::kRoundRobin));
  SearchOptions p;
  p.window = 48;
  p.nprobe_shards = 0;  // round-robin shards carry no geometry: probe all
  EXPECT_GE(testutil::RecallOf(*idx, f, p), 0.9);
}

TEST(Sharded, ServingEngineServesShardedIndexUnchanged) {
  Fixture f = DeepFixture(1200, 40, 50);
  auto idx = BuildShardedLvq(f.data.base, f.data.metric, ShardParams(f, 4));
  ServingOptions opts;
  opts.num_threads = 2;
  ServingEngine engine(idx.get(), opts);
  SearchOptions p;
  p.window = 48;
  p.nprobe_shards = 2;
  const size_t nq = f.data.queries.rows();
  Matrix<uint32_t> ids(nq, f.k);
  engine.SearchBatch(f.data.queries, f.k, p, ids.data());
  EXPECT_GE(MeanRecallAtK(ids, f.gt, f.k), 0.85);
  SearchResult res = engine.Submit(f.data.queries.row(0), f.k, p).get();
  ASSERT_EQ(res.ids.size(), f.k);
}

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------
class ShardedSerializeTest : public testutil::TempPathTest {};

TEST_F(ShardedSerializeTest, RoundTripServesIdenticalResults) {
  Fixture f = DeepFixture(1500, 30, 51);
  auto built = BuildShardedLvq(f.data.base, f.data.metric, ShardParams(f, 4));
  const std::string dir = DirPath("sharded_rt");
  ASSERT_TRUE(SaveShardedIndex(dir, *built).ok());
  ASSERT_TRUE(IsShardedIndexDir(dir));
  auto loaded = LoadShardedIndex(dir, f.data.metric, f.bp, false);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SearchOptions p;
  p.window = 40;
  p.nprobe_shards = 2;
  ExpectSameIds(SearchIds(*built, f.data.queries, f.k, p),
                SearchIds(*loaded.value(), f.data.queries, f.k, p),
                "built vs loaded");
  EXPECT_EQ(loaded.value()->size(), built->size());
  EXPECT_EQ(loaded.value()->num_shards(), built->num_shards());
}

TEST_F(ShardedSerializeTest, RoundTripPreservesEmptyShards) {
  Fixture f = DeepFixture(3, 2, 52, /*k=*/2, /*R=*/4, /*W=*/8);
  ShardedBuildParams sp = ShardParams(f, 6);
  auto built = BuildShardedLvq(f.data.base, f.data.metric, sp);
  const std::string dir = DirPath("sharded_empty");
  ASSERT_TRUE(SaveShardedIndex(dir, *built).ok());
  auto loaded = LoadShardedIndex(dir, f.data.metric, sp.graph, false);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->num_shards(), 6u);
  EXPECT_EQ(loaded.value()->size(), 3u);
}

// With no live shard there is no shard to read the configuration from:
// the index must keep the one it was built with, and the manifest must
// carry back what it holds (the LVQ levels and the build knobs; the graph
// degree lives in the shard graph headers only).
TEST_F(ShardedSerializeTest, AllEmptyIndexKeepsItsConfiguration) {
  ShardedBuildParams sp;
  sp.partition.num_shards = 3;
  sp.partition.method = PartitionMethod::kRoundRobin;
  sp.graph.graph_max_degree = 20;
  sp.graph.window_size = 40;
  sp.bits1 = 4;
  sp.bits2 = 8;
  auto built = BuildShardedLvq(MatrixViewF(nullptr, 0, 16), Metric::kL2, sp);
  ASSERT_EQ(built->size(), 0u);
  const std::string dir = DirPath("sharded_all_empty");
  ASSERT_TRUE(SaveShardedIndex(dir, *built).ok());
  auto loaded = LoadShardedIndex(dir, Metric::kL2, VamanaBuildParams{}, false);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(built->build_params().graph_max_degree, 20u);
  for (const ShardedIndex* idx : {built.get(), loaded.value().get()}) {
    EXPECT_EQ(idx->bits1(), 4);
    EXPECT_EQ(idx->bits2(), 8);
    EXPECT_EQ(idx->build_params().window_size, 40u);
  }
}

TEST_F(ShardedSerializeTest, CorruptManifestRejected) {
  const std::string dir = DirPath("sharded_bad");
  std::filesystem::create_directories(dir);
  FILE* mf = std::fopen((dir + "/manifest").c_str(), "wb");
  ASSERT_NE(mf, nullptr);
  const uint32_t junk = 0xDEADBEEF;
  std::fwrite(&junk, sizeof(junk), 1, mf);
  std::fclose(mf);
  VamanaBuildParams bp;
  EXPECT_FALSE(LoadShardedIndex(dir, Metric::kL2, bp).ok());
  EXPECT_FALSE(LoadShardedIndex("/nonexistent/dir", Metric::kL2, bp).ok());
}

TEST_F(ShardedSerializeTest, AbsurdHeaderCountsRejectedWithoutAllocating) {
  // Valid magic/version but a bit-flipped n: the loader must bound its
  // allocations by the file size and return a Status, not throw bad_alloc.
  const std::string dir = DirPath("sharded_absurd");
  std::filesystem::create_directories(dir);
  FILE* mf = std::fopen((dir + "/manifest").c_str(), "wb");
  ASSERT_NE(mf, nullptr);
  const uint32_t magic = 0x48534C42u, version = 1, bits1 = 8, bits2 = 0;
  const uint64_t S = 1, n = uint64_t{1} << 60, d = 96;
  std::fwrite(&magic, sizeof(magic), 1, mf);
  std::fwrite(&version, sizeof(version), 1, mf);
  std::fwrite(&S, sizeof(S), 1, mf);
  std::fwrite(&n, sizeof(n), 1, mf);
  std::fwrite(&d, sizeof(d), 1, mf);
  std::fwrite(&bits1, sizeof(bits1), 1, mf);
  std::fwrite(&bits2, sizeof(bits2), 1, mf);
  std::fclose(mf);
  VamanaBuildParams bp;
  EXPECT_FALSE(LoadShardedIndex(dir, Metric::kL2, bp).ok());
}

// ---------------------------------------------------------------------------
// Padding-contract conformance (ISSUE 3 satellite): fewer than k reachable
// results — tiny corpus split across shards, some empty — must pad with
// kInvalidId / +inf on every path, including the merge.
// ---------------------------------------------------------------------------
constexpr size_t kTinyCorpus = 5;
constexpr size_t kPadK = 16;

struct TinySharded {
  Dataset data;
  std::unique_ptr<ShardedIndex> index;

  explicit TinySharded(size_t num_shards)
      : data(MakeDeepLike(kTinyCorpus, 4, /*seed=*/99)) {
    ShardedBuildParams sp;
    sp.partition.num_shards = num_shards;
    sp.partition.method = PartitionMethod::kRoundRobin;
    sp.graph.graph_max_degree = 4;
    sp.graph.window_size = 8;
    index = BuildShardedLvq(data.base, data.metric, sp);
  }
};

TEST(ShardedPadding, SearchBatchPadsToK) {
  TinySharded t(3);
  SearchOptions p;
  const size_t nq = t.data.queries.rows();
  Matrix<uint32_t> ids(nq, kPadK);
  SearchBatch(*t.index, t.data.queries, kPadK, p, ids.data());
  for (size_t qi = 0; qi < nq; ++qi) {
    ExpectPaddedRow(ids.row(qi), nullptr, kPadK, kTinyCorpus);
  }
}

TEST(ShardedPadding, SearchBatchExPadsIdsAndDists) {
  TinySharded t(3);
  SearchOptions p;
  const size_t nq = t.data.queries.rows();
  Matrix<uint32_t> ids(nq, kPadK);
  MatrixF dists(nq, kPadK);
  ThreadPool pool(2);
  SearchBatch(*t.index, t.data.queries, kPadK, p, ids.data(), dists.data(),
              nullptr, &pool);
  for (size_t qi = 0; qi < nq; ++qi) {
    ExpectPaddedRow(ids.row(qi), dists.row(qi), kPadK, kTinyCorpus);
  }
}

TEST(ShardedPadding, EmptyShardsAreSkippedAndStillPad) {
  // More shards than points: some shards are empty and must simply be
  // skipped by the probe without disturbing the padding.
  TinySharded t(8);
  SearchOptions p;
  p.nprobe_shards = 6;  // probes clamp to the live shard count
  Matrix<uint32_t> ids(t.data.queries.rows(), kPadK);
  MatrixF dists(t.data.queries.rows(), kPadK);
  SearchBatch(*t.index, t.data.queries, kPadK, p, ids.data(), dists.data(),
              nullptr);
  for (size_t qi = 0; qi < t.data.queries.rows(); ++qi) {
    ExpectPaddedRow(ids.row(qi), dists.row(qi), kPadK, kTinyCorpus);
  }
}

TEST(ShardedPadding, NprobeSubsetPadsWithPartialReachableSet) {
  // Probing 1 of 3 round-robin shards reaches only that shard's ~2 points;
  // the merge must pad the rest of the row.
  TinySharded t(3);
  SearchOptions p;
  p.nprobe_shards = 1;
  auto searcher = t.index->MakeSearcher();
  std::vector<uint32_t> ids(kPadK);
  std::vector<float> dists(kPadK);
  searcher->Search(t.data.queries.row(0), kPadK, p, ids.data(), dists.data(),
                   nullptr);
  size_t valid = 0;
  for (size_t j = 0; j < kPadK; ++j) {
    if (ids[j] != kInvalidId) {
      EXPECT_EQ(valid, j) << "padding must be a suffix";
      ++valid;
      EXPECT_TRUE(std::isfinite(dists[j]));
    } else {
      EXPECT_TRUE(std::isinf(dists[j]));
    }
  }
  EXPECT_GT(valid, 0u);
  EXPECT_LT(valid, kTinyCorpus) << "one shard cannot reach the whole corpus";
}

TEST(ShardedPadding, ServingEnginePadsSyncAndAsync) {
  TinySharded t(3);
  SearchOptions p;
  ServingOptions opts;
  opts.num_threads = 2;
  ServingEngine engine(t.index.get(), opts);
  const size_t nq = t.data.queries.rows();
  Matrix<uint32_t> ids(nq, kPadK);
  MatrixF dists(nq, kPadK);
  engine.SearchBatch(t.data.queries, kPadK, p, ids.data(), dists.data());
  for (size_t qi = 0; qi < nq; ++qi) {
    ExpectPaddedRow(ids.row(qi), dists.row(qi), kPadK, kTinyCorpus);
  }
  SearchResult res = engine.Submit(t.data.queries.row(0), kPadK, p).get();
  ASSERT_EQ(res.ids.size(), kPadK);
  ExpectPaddedRow(res.ids.data(), res.dists.data(), kPadK, kTinyCorpus);
}

TEST(ShardedPadding, GlobalIdsAreWellFormedAcrossTheRemap) {
  // Merge output must be global ids (0..n), not shard-local ones: with
  // round-robin shards local id l of shard s is global l*S + s, so any
  // leaked local id would collide only at id 0 — check the full set.
  Fixture f = DeepFixture(300, 20, 53, /*k=*/10, /*R=*/8, /*W=*/16);
  auto idx = BuildShardedLvq(f.data.base, f.data.metric,
                             ShardParams(f, 3, PartitionMethod::kRoundRobin));
  SearchOptions p;
  p.window = 64;
  Matrix<uint32_t> ids = SearchIds(*idx, f.data.queries, f.k, p);
  const double recall = MeanRecallAtK(ids, f.gt, f.k);
  EXPECT_GE(recall, 0.9) << "local->global remap must be applied";
}

}  // namespace
}  // namespace blink
