// Tests for the compressed dynamic index (ISSUE 4 tentpole): LVQ storage
// encoded at insert time, two-level re-ranking, slot recycling, padding
// conformance under churn, save→load→search equivalence, and concurrent
// reads during writes (the latter also runs under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "graph/dynamic.h"
#include "graph/serialize.h"
#include "serve/engine.h"
#include "testutil.h"
#include "util/prng.h"

namespace blink {
namespace {

DynamicOptions SmallOpts(Metric m = Metric::kL2) {
  DynamicOptions o;
  o.graph_max_degree = 16;
  o.build_window = 48;
  o.metric = m;
  o.alpha = m == Metric::kL2 ? 1.2f : 0.95f;
  return o;
}

DynamicLvqIndex MakeLvqIndex(const Dataset& data, int bits1, int bits2,
                             const DynamicOptions& opts) {
  LvqDataset ds(ComputeMean(data.base, kDynamicMeanSampleRows),
                {.bits = bits1, .bits2 = bits2});
  const size_t dim = data.base.cols();
  return DynamicLvqIndex(dim, opts, LvqStorage(std::move(ds), opts.metric));
}

/// Recall of the index against float brute force over its live vectors.
/// `id_to_row` maps a live id to the base row it was inserted from.
double LiveRecall(const DynamicLvqIndex& idx, const Dataset& data,
                  const std::map<uint32_t, size_t>& id_to_row, size_t k,
                  uint32_t window) {
  const size_t dim = data.base.cols();
  double total = 0.0;
  SearchResult res;
  for (size_t qi = 0; qi < data.queries.rows(); ++qi) {
    const float* q = data.queries.row(qi);
    std::vector<std::pair<float, uint32_t>> exact;
    for (const auto& [id, row] : id_to_row) {
      exact.push_back({simd::L2Sqr(q, data.base.row(row), dim), id});
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
  return total / static_cast<double>(data.queries.rows());
}

TEST(DynamicLvq, IncrementalBuildReachesHighRecall) {
  Dataset data = MakeDeepLike(2000, 50, 900);
  DynamicLvqIndex idx = MakeLvqIndex(data, /*bits1=*/8, /*bits2=*/0,
                                     SmallOpts());
  std::map<uint32_t, size_t> id_to_row;
  for (size_t i = 0; i < 2000; ++i) {
    id_to_row[idx.Insert(data.base.row(i))] = i;
  }
  EXPECT_EQ(idx.live_size(), 2000u);
  EXPECT_GE(LiveRecall(idx, data, id_to_row, 10, 64), 0.9);
}

TEST(DynamicLvq, TwoLevelRerankRecoversLowBitRecall) {
  Dataset data = MakeDeepLike(1500, 40, 901);
  DynamicLvqIndex lvq4 = MakeLvqIndex(data, 4, 0, SmallOpts());
  DynamicLvqIndex lvq4x8 = MakeLvqIndex(data, 4, 8, SmallOpts());
  std::map<uint32_t, size_t> rows4, rows4x8;
  for (size_t i = 0; i < 1500; ++i) {
    rows4[lvq4.Insert(data.base.row(i))] = i;
    rows4x8[lvq4x8.Insert(data.base.row(i))] = i;
  }
  const double r4 = LiveRecall(lvq4, data, rows4, 10, 64);
  const double r4x8 = LiveRecall(lvq4x8, data, rows4x8, 10, 64);
  // The residual level re-ranks the full window, so it can only help.
  EXPECT_GE(r4x8 + 1e-9, r4);
  EXPECT_GE(r4x8, 0.9);
}

TEST(DynamicLvq, FootprintBelowFloat32) {
  // dim 128 (sift-like): LVQ-8 stride = pad32(4 + 128) = 160 bytes vs 512
  // for float32 — the streaming path's version of the paper's Fig. 1 win.
  Dataset data = MakeSiftLike(300, 5, 902);
  DynamicOptions opts = SmallOpts();
  opts.initial_capacity = 300;
  DynamicLvqIndex lvq = MakeLvqIndex(data, 8, 0, opts);
  DynamicIndex f32(128, opts);
  for (size_t i = 0; i < 300; ++i) {
    lvq.Insert(data.base.row(i));
    f32.Insert(data.base.row(i));
  }
  const double ratio = static_cast<double>(lvq.storage().memory_bytes()) /
                       static_cast<double>(f32.storage().memory_bytes());
  EXPECT_LE(ratio, 0.35);
  // Decoded vectors stay close to the originals (8-bit per-vector bounds).
  std::vector<float> decoded(128);
  lvq.DecodeVector(0, decoded.data());
  const float err = simd::L2Sqr(decoded.data(), data.base.row(0), 128);
  const float norm = simd::L2Sqr(data.base.row(0),
                                 std::vector<float>(128, 0.0f).data(), 128);
  EXPECT_LE(err, 1e-3f * std::max(norm, 1.0f));
}

// Randomized insert/delete/consolidate/search churn: every search result
// must honor the padding contract, contain no tombstones, and fill all k
// slots whenever k live vectors exist.
TEST(DynamicLvq, ChurnPaddingConformance) {
  Dataset data = MakeDeepLike(2500, 10, 903);
  const size_t dim = data.base.cols();
  DynamicLvqIndex idx = MakeLvqIndex(data, 8, 0, SmallOpts());
  Rng rng(17);
  std::vector<uint32_t> live;
  size_t next = 0;
  const size_t k = 10;
  SearchResult res;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 250 && next < 2500; ++i) {
      live.push_back(idx.Insert(data.base.row(next++)));
    }
    for (int i = 0; i < 120 && live.size() > 5; ++i) {
      const size_t pick = rng.Bounded(live.size());
      ASSERT_TRUE(idx.Delete(live[pick]).ok());
      live[pick] = live.back();
      live.pop_back();
    }
    if (round % 3 == 2) idx.ConsolidateDeletes();

    for (size_t qi = 0; qi < data.queries.rows(); ++qi) {
      idx.Search(data.queries.row(qi), k, 32, &res);
      ASSERT_EQ(res.ids.size(), k);
      ASSERT_EQ(res.dists.size(), k);
      size_t real = 0;
      for (size_t j = 0; j < k; ++j) {
        if (res.ids[j] != kInvalidId) {
          EXPECT_EQ(real, j) << "padding must be a suffix";
          EXPECT_LT(res.ids[j], idx.size());
          EXPECT_FALSE(idx.IsDeleted(res.ids[j])) << "tombstone in results";
          EXPECT_TRUE(std::isfinite(res.dists[j]));
          ++real;
        } else {
          EXPECT_TRUE(std::isinf(res.dists[j]));
        }
      }
      if (idx.live_size() >= k) {
        EXPECT_EQ(real, k) << "short results despite enough live vectors";
      }
    }
  }
  EXPECT_EQ(idx.live_size(), live.size());
  (void)dim;
}

TEST(DynamicLvq, SlotsRecycleAndReencode) {
  Dataset data = MakeDeepLike(300, 5, 904);
  DynamicLvqIndex idx = MakeLvqIndex(data, 8, 0, SmallOpts());
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 200; ++i) ids.push_back(idx.Insert(data.base.row(i)));
  const size_t before = idx.size();
  ASSERT_TRUE(idx.Delete(ids[3]).ok());
  ASSERT_TRUE(idx.Delete(ids[9]).ok());
  idx.ConsolidateDeletes();
  const uint32_t a = idx.Insert(data.base.row(200));
  const uint32_t b = idx.Insert(data.base.row(201));
  EXPECT_TRUE(a == ids[3] || a == ids[9]);
  EXPECT_TRUE(b == ids[3] || b == ids[9]);
  EXPECT_EQ(idx.size(), before);
  // The recycled slot must hold the *new* vector's encoding: its own query
  // must find it at rank 1.
  SearchResult res;
  idx.Search(data.base.row(200), 1, 32, &res);
  ASSERT_EQ(res.ids.size(), 1u);
  EXPECT_EQ(res.ids[0], a);
}

class DynamicLvqSerializeTest : public testutil::TempPathTest {};

TEST_F(DynamicLvqSerializeTest, SaveLoadSearchEquivalence) {
  for (const auto& [bits1, bits2] : {std::pair<int, int>{8, 0}, {4, 8}}) {
    Dataset data = MakeDeepLike(1200, 30, 905);
    DynamicOptions opts = SmallOpts();
    DynamicLvqIndex idx = MakeLvqIndex(data, bits1, bits2, opts);
    Rng rng(5);
    std::vector<uint32_t> live;
    for (size_t i = 0; i < 1000; ++i) live.push_back(idx.Insert(data.base.row(i)));
    for (int i = 0; i < 200; ++i) {
      const size_t pick = rng.Bounded(live.size());
      ASSERT_TRUE(idx.Delete(live[pick]).ok());
      live[pick] = live.back();
      live.pop_back();
    }
    idx.ConsolidateDeletes();
    for (size_t i = 1000; i < 1100; ++i) live.push_back(idx.Insert(data.base.row(i)));

    const std::string path =
        Path("dynlvq_" + std::to_string(bits1) + "_" + std::to_string(bits2));
    ASSERT_TRUE(SaveDynamic(path, idx).ok());
    auto loaded = LoadDynamicLvq(path, opts);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded.value()->live_size(), idx.live_size());
    ASSERT_EQ(loaded.value()->size(), idx.size());

    // Byte-identical search results through the serving view.
    DynamicView<LvqStorage> orig_view(&idx);
    DynamicView<LvqStorage> load_view(loaded.value().get());
    SearchOptions p;
    p.window = 48;
    Matrix<uint32_t> a = testutil::SearchIds(orig_view, data.queries, 10, p);
    Matrix<uint32_t> b = testutil::SearchIds(load_view, data.queries, 10, p);
    testutil::ExpectSameIds(a, b, "dynamic LVQ save/load");

    // The loaded index keeps mutating identically: the same insert gets the
    // same (recycled or fresh) id on both sides.
    const uint32_t ia = idx.Insert(data.base.row(1100));
    const uint32_t ib = loaded.value()->Insert(data.base.row(1100));
    EXPECT_EQ(ia, ib);
  }
}

TEST_F(DynamicLvqSerializeTest, LoadRejectsWrongKind) {
  Dataset data = MakeDeepLike(50, 2, 906);
  DynamicOptions opts = SmallOpts();
  DynamicIndex f32(data.base.cols(), opts);
  for (size_t i = 0; i < 50; ++i) f32.Insert(data.base.row(i));
  const std::string path = Path("dynf32");
  ASSERT_TRUE(SaveDynamic(path, f32).ok());
  EXPECT_FALSE(LoadDynamicLvq(path, opts).ok());
  auto back = LoadDynamicF32(path, opts);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value()->live_size(), 50u);
}

/// Writes a version-2 float32 BLDY file by hand: three 2-d vectors, slot 2
/// purged and queued for reuse, entry point 0, R = 2; `rows` is the
/// adjacency of each slot.
void WriteForgedBldy(const std::string& path,
                     const std::vector<std::vector<uint32_t>>& rows) {
  std::string bytes;
  auto put = [&](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(uint32_t{0x59444C42u});  // "BLDY"
  put(uint32_t{2});            // version 2: metric, alpha, build window
  put(uint32_t{0});            // kind: float32
  put(uint64_t{2});            // dim
  put(uint64_t{3});            // slots in use
  put(uint64_t{1});            // deleted slots
  put(uint32_t{0});            // entry point
  put(uint32_t{2});            // R
  put(uint32_t{0});            // metric: L2
  put(1.2f);                   // alpha
  put(uint32_t{8});            // build window
  for (float v : {0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 1.0f}) put(v);
  for (uint8_t flag : {0, 0, 2}) put(flag);  // live, live, purged
  put(uint64_t{1});                          // free list: {2}
  put(uint32_t{2});
  for (const std::vector<uint32_t>& row : rows) {
    put(static_cast<uint32_t>(row.size()));
    for (uint32_t id : row) put(id);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// The loader used to check only flags, the free list, degrees and id
// ranges, so a graph the writer can never produce loaded and served. It
// now runs the index's own invariant check after restoring.
TEST_F(DynamicLvqSerializeTest, ForgedGraphBreakingInvariantsFailsToLoad) {
  const std::string path = Path("forged_graph.bldy");
  WriteForgedBldy(path, {{1}, {0}, {}});
  auto control = LoadDynamicF32(path, SmallOpts());
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  EXPECT_EQ(control.value()->live_size(), 2u);

  const std::vector<std::vector<uint32_t>> forged[] = {
      {{1, 2}, {0}, {}},  // a live row names the purged slot
      {{1}, {0}, {0}},    // the purged slot keeps a row
  };
  for (const auto& rows : forged) {
    WriteForgedBldy(path, rows);
    auto r = LoadDynamicF32(path, SmallOpts());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
    EXPECT_NE(r.status().message().find("purged"), std::string::npos)
        << r.status().ToString();
  }
}

// Concurrent readers against a live writer over the compressed index —
// the TSan CI job runs this suite to validate that insert-time encoding
// composes with the epoch/acquire-release protocol.
TEST(DynamicLvq, ConcurrentReadersDuringWrites) {
  const size_t kStable = 400, kChurn = 300;
  Dataset data = MakeDeepLike(kStable + kChurn, 1, 907);
  const size_t dim = data.base.cols();
  DynamicOptions opts = SmallOpts();
  opts.initial_capacity = kStable + kChurn + 64;
  DynamicLvqIndex idx = MakeLvqIndex(data, 8, 0, opts);
  std::vector<uint32_t> stable_ids;
  for (size_t i = 0; i < kStable; ++i) {
    stable_ids.push_back(idx.Insert(data.base.row(i)));
  }

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    Rng rng(23);
    std::vector<uint32_t> churn_ids;
    size_t next = kStable;
    while (!stop_writer.load()) {
      if (churn_ids.size() < kChurn / 2 ||
          (next < kStable + kChurn && rng.Bounded(2) == 0)) {
        const size_t src = next < kStable + kChurn
                               ? next++
                               : kStable + rng.Bounded(kChurn);
        churn_ids.push_back(idx.Insert(data.base.row(src)));
      } else if (!churn_ids.empty()) {
        const size_t pick = rng.Bounded(churn_ids.size());
        EXPECT_TRUE(idx.Delete(churn_ids[pick]).ok());
        churn_ids[pick] = churn_ids.back();
        churn_ids.pop_back();
      }
      if (rng.Bounded(97) == 0) idx.ConsolidateDeletes();
    }
  });

  const size_t kReaders = 4, kRounds = 200, k = 10;
  std::atomic<uint64_t> self_hits{0}, self_queries{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(300 + r);
      GraphSearcher searcher(idx.read_view());
      SearchOptions options;
      options.window = 48;
      std::vector<uint32_t> ids(k);
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t pick = rng.Bounded(kStable);
        searcher.Search(data.base.row(pick), k, options, ids.data(), nullptr,
                        nullptr);
        ++self_queries;
        for (uint32_t id : ids) {
          ASSERT_TRUE(id == kInvalidId || id < opts.initial_capacity * 2);
          if (id == stable_ids[pick]) {
            ++self_hits;
            break;
          }
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop_writer.store(true);
  writer.join();
  const double hit_rate = static_cast<double>(self_hits.load()) /
                          static_cast<double>(self_queries.load());
  // Quantized self-queries: the vector's own encoding is within the LVQ-8
  // error of itself, so it must surface in its own top-10 nearly always.
  EXPECT_GE(hit_rate, 0.9) << self_hits.load() << "/" << self_queries.load();
  (void)dim;
}

}  // namespace
}  // namespace blink
