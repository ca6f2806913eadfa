// Filtered search subsystem (DESIGN.md D15): predicate grammar and
// semantics, the metadata column store (owned and mmap-backed), the BLMD
// sidecar round trip, filtered recall against brute-force-filtered ground
// truth across selectivities and flavors, strategy selection, the facade
// capability wiring, and the dynamic upsert-vs-search concurrency contract
// (TSan target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/index.h"
#include "api/spec.h"
#include "data/groundtruth.h"
#include "filter/metadata.h"
#include "filter/predicate.h"
#include "filter/serialize.h"
#include "filter/synthetic.h"
#include "graph/dynamic.h"
#include "graph/index.h"
#include "shard/sharded_index.h"
#include "testutil.h"
#include "util/mmap_file.h"

namespace blink {
namespace {

using testutil::ExpectSameIds;
using testutil::Fixture;
using testutil::TempPathTest;

// --- predicate grammar ------------------------------------------------------

TEST(PredicateParse, FullGrammar) {
  auto r = Predicate::Parse("tag:any=1,3 tag:all=0 tag:none=5 num0>=2.5 num1<7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Predicate& p = r.value();
  EXPECT_EQ(p.tag_any, (1ull << 1) | (1ull << 3));
  EXPECT_EQ(p.tag_all, 1ull << 0);
  EXPECT_EQ(p.tag_none, 1ull << 5);
  ASSERT_EQ(p.ranges.size(), 2u);
  EXPECT_EQ(p.ranges[0].column, 0u);
  EXPECT_EQ(p.ranges[0].lo, 2.5);
  EXPECT_FALSE(p.ranges[0].lo_strict);
  EXPECT_TRUE(std::isinf(p.ranges[0].hi));
  EXPECT_EQ(p.ranges[1].column, 1u);
  EXPECT_EQ(p.ranges[1].hi, 7.0);
  EXPECT_TRUE(p.ranges[1].hi_strict);
}

TEST(PredicateParse, EqualityAndStrictOperators) {
  auto eq = Predicate::Parse("num2=7");
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq.value().ranges[0].lo, 7.0);
  EXPECT_EQ(eq.value().ranges[0].hi, 7.0);
  EXPECT_FALSE(eq.value().ranges[0].lo_strict);
  EXPECT_FALSE(eq.value().ranges[0].hi_strict);

  auto gt = Predicate::Parse("num0>1e-3");
  ASSERT_TRUE(gt.ok());
  EXPECT_TRUE(gt.value().ranges[0].lo_strict);
  EXPECT_EQ(gt.value().ranges[0].lo, 1e-3);

  auto le = Predicate::Parse("num0<=-2.5");
  ASSERT_TRUE(le.ok());
  EXPECT_FALSE(le.value().ranges[0].hi_strict);
  EXPECT_EQ(le.value().ranges[0].hi, -2.5);
}

TEST(PredicateParse, RepeatedTagClausesOrTheirMasks) {
  auto r = Predicate::Parse("tag:any=1 tag:any=4");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().tag_any, (1ull << 1) | (1ull << 4));
}

TEST(PredicateParse, StrictRejections) {
  const char* bad[] = {
      "",                // empty predicate
      " num0<1",         // stray leading space
      "num0<1 ",         // trailing space
      "num0<1  num1<2",  // doubled space = empty clause
      "num0",            // missing operator
      "num0<",           // missing value
      "num0<abc",        // non-numeric value
      "num0<1x",         // trailing garbage in value
      "num<1",           // missing column index
      "num0<inf",        // non-finite value
      "num0<nan",        // NaN value
      "tag:any=",        // empty bit list
      "tag:any=64",      // bit out of range
      "tag:any=1,",      // trailing comma
      "tag:any=1,,2",    // empty element
      "tag:sum=1",       // unknown tag constraint
      "tag:",            // empty tag clause
      "frobnicate",      // unknown clause
  };
  for (const char* text : bad) {
    auto r = Predicate::Parse(text);
    EXPECT_FALSE(r.ok()) << "should reject '" << text << "'";
  }
}

TEST(PredicateParse, ToStringRoundTrips) {
  const char* texts[] = {"tag:any=1,3 num0>=2.5", "tag:none=0 num1<7",
                        "num0=3 tag:all=2,5"};
  for (const char* text : texts) {
    auto p = Predicate::Parse(text);
    ASSERT_TRUE(p.ok()) << text;
    auto again = Predicate::Parse(p.value().ToString());
    ASSERT_TRUE(again.ok()) << p.value().ToString();
    EXPECT_EQ(again.value().ToString(), p.value().ToString());
  }
  EXPECT_EQ(Predicate().ToString(), "<match-all>");
}

TEST(PredicateValidate, ColumnBoundsAndEmptyRanges) {
  auto p = Predicate::Parse("num2<5");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().ValidateFor(3).ok());
  auto st = p.value().ValidateFor(2);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("column 2"), std::string::npos)
      << st.ToString();

  // Conjoined clauses can produce an empty range only through two clauses;
  // a single range with lo > hi is rejected.
  Predicate empty;
  empty.ranges.push_back({.column = 0, .lo = 2.0, .hi = 1.0});
  EXPECT_FALSE(empty.ValidateFor(1).ok());
  Predicate point;
  point.ranges.push_back(
      {.column = 0, .lo_strict = true, .lo = 1.0, .hi = 1.0});
  EXPECT_FALSE(point.ValidateFor(1).ok());
}

// --- predicate semantics ----------------------------------------------------

TEST(MatchesPredicate, TagAndRangeSemantics) {
  MetadataStore s(4, {ColumnType::kI64, ColumnType::kF64});
  s.set_tags(0, 0b0011);
  s.set_tags(1, 0b0100);
  s.set_tags(2, 0b0111);
  s.set_tags(3, 0);
  for (uint32_t id = 0; id < 4; ++id) {
    s.SetNumericI64(0, id, 10 * (id + 1));  // 10, 20, 30, 40
    s.SetNumeric(1, id, 0.25 * id);         // 0.0, 0.25, 0.5, 0.75
  }

  auto match = [&](const char* text, uint32_t id) {
    auto p = Predicate::Parse(text);
    EXPECT_TRUE(p.ok()) << text;
    const bool matches = MatchesPredicate(s, p.value(), id);
    // The scan's column-at-a-time pass agrees with the row test.
    std::vector<uint32_t> ids;
    const auto end = ids.begin() + static_cast<long>(
                                       MatchingRows(s, p.value(), 4, &ids));
    EXPECT_TRUE(std::is_sorted(ids.begin(), end)) << text;
    EXPECT_EQ(std::find(ids.begin(), end, id) != end, matches)
        << text << " row " << id;
    return matches;
  };

  // any: at least one shared bit.
  EXPECT_TRUE(match("tag:any=0,2", 0));
  EXPECT_TRUE(match("tag:any=0,2", 1));
  EXPECT_FALSE(match("tag:any=0,2", 3));
  // all: superset.
  EXPECT_TRUE(match("tag:all=0,1", 0));
  EXPECT_FALSE(match("tag:all=0,1", 1));
  EXPECT_TRUE(match("tag:all=0,1,2", 2));
  // none: disjoint.
  EXPECT_TRUE(match("tag:none=2", 0));
  EXPECT_FALSE(match("tag:none=2", 1));
  EXPECT_TRUE(match("tag:none=0,1,2", 3));

  // Ranges, strict and inclusive endpoints, on both column types.
  EXPECT_TRUE(match("num0>=20", 1));
  EXPECT_FALSE(match("num0>20", 1));
  EXPECT_TRUE(match("num1<=0.5", 2));
  EXPECT_FALSE(match("num1<0.5", 2));
  EXPECT_TRUE(match("num0=30", 2));

  // Conjunction across clause kinds.
  EXPECT_TRUE(match("tag:any=2 num0>=25 num1<0.75", 2));
  EXPECT_FALSE(match("tag:any=2 num0>=25 num1<0.5", 2));

  // NaN cells fail every range.
  s.SetNumeric(1, 3, std::nan(""));
  EXPECT_FALSE(match("num1<1", 3));
  EXPECT_FALSE(match("num1>=0", 3));
  EXPECT_TRUE(match("num0>0", 3));
}

TEST(MatchesPredicate, TrivialPredicateMatchesEverything) {
  MetadataStore s(2, {});
  Predicate p;
  EXPECT_TRUE(p.Trivial());
  EXPECT_TRUE(MatchesPredicate(s, p, 0));
  EXPECT_TRUE(MatchesPredicate(s, p, 1));
  std::vector<uint32_t> ids;
  EXPECT_EQ(MatchingRows(s, p, 2, &ids), 2u);
}

// --- store operations -------------------------------------------------------

TEST(MetadataStore, ResizeZeroFillsAndClearRowClears) {
  MetadataStore s(2, {ColumnType::kF64});
  s.set_tags(1, 0xff);
  s.SetNumeric(0, 1, 3.5);
  s.Resize(4);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.tags(1), 0xffull);
  EXPECT_EQ(s.NumericF64(0, 1), 3.5);
  EXPECT_EQ(s.tags(3), 0ull);
  EXPECT_EQ(s.NumericF64(0, 3), 0.0);
  s.ClearRow(1);
  EXPECT_EQ(s.tags(1), 0ull);
  EXPECT_EQ(s.NumericF64(0, 1), 0.0);
}

TEST(MetadataStore, SelectivityEstimateTracksTruth) {
  const size_t n = 4096;
  MetadataStore s = MakeSyntheticMetadata(n, {ColumnType::kF64}, 7);
  auto p = Predicate::Parse("num0<0.25");
  ASSERT_TRUE(p.ok());
  size_t hits = 0;
  for (uint32_t i = 0; i < n; ++i) hits += MatchesPredicate(s, p.value(), i);
  const double truth = static_cast<double>(hits) / static_cast<double>(n);
  EXPECT_NEAR(truth, 0.25, 0.05);  // the generator is uniform [0,1)
  EXPECT_NEAR(EstimateSelectivity(s, p.value()), truth, 0.06);
}

TEST(FilterPlan, ScanCrossoverAndExplicitChoices) {
  const size_t live = 100000, k = 10;
  const uint32_t w = 32;
  auto plan = [&](FilterStrategy s, double sel, uint32_t cap = 0) {
    return PlanFilter(s, sel, live, k, w, cap);
  };
  // kAuto: 0.001 passes ~100 rows, within the boosted start window of
  // 1.5 * 10 / 0.001 = 15000: scan them. 0.01 passes ~1000 rows, within
  // its window of 1500: a scan too. 0.03 passes ~3000 rows, past its
  // window of 500: in-search. 0.5 is above the crossover: post-filter.
  EXPECT_EQ(plan(FilterStrategy::kAuto, 0.001).kind, FilterPlan::kScan);
  EXPECT_EQ(plan(FilterStrategy::kAuto, 0.001).window0, 15000u);
  EXPECT_EQ(plan(FilterStrategy::kAuto, 0.01).kind, FilterPlan::kScan);
  EXPECT_EQ(plan(FilterStrategy::kAuto, 0.03).kind, FilterPlan::kInSearch);
  EXPECT_EQ(plan(FilterStrategy::kAuto, 0.03).window0, 500u);
  EXPECT_EQ(plan(FilterStrategy::kAuto, 0.5).kind, FilterPlan::kPostFilter);
  EXPECT_EQ(plan(FilterStrategy::kAuto, 0.5).window0, w);
  // The auto cap is the live rows; an explicit one is floored at the
  // window, and bounds the boosted window.
  EXPECT_EQ(plan(FilterStrategy::kAuto, 0.5).widen_cap, live);
  EXPECT_EQ(plan(FilterStrategy::kAuto, 0.5, 8).widen_cap, w);
  EXPECT_EQ(plan(FilterStrategy::kAuto, 0.03, 300).window0, 300u);
  // Explicit requests are honoured whatever the selectivity, and never
  // scan.
  EXPECT_EQ(plan(FilterStrategy::kPostFilter, 0.001).kind,
            FilterPlan::kPostFilter);
  EXPECT_EQ(plan(FilterStrategy::kInSearch, 0.001).kind,
            FilterPlan::kInSearch);
  EXPECT_EQ(plan(FilterStrategy::kInSearch, 0.5).kind, FilterPlan::kInSearch);
  EXPECT_EQ(plan(FilterStrategy::kInSearch, 0.5).window0, w);
}

// A dynamic index's metadata store holds a row per slot of capacity, and
// the rows past the slots in use are never-inserted zeros. The filter plan
// samples only the rows in use, so a static and a dynamic index over the
// same rows resolve the same kAuto strategy and start window. (Sampling
// the whole store, 200 rows at capacity 1024 estimated num0<0.02 at ~0.8,
// and the dynamic index post-filtered where the static one searched
// in-search.)
TEST(FilterPlan, DynamicSamplesOnlyTheRowsInUse) {
  const Fixture f(MakeDeepLike(200, 4, 31));
  const size_t n = f.data.base.rows();
  const MetadataStore md = MakeSyntheticMetadata(n, {ColumnType::kF64}, 29);
  auto fixed = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  ASSERT_TRUE(
      fixed->AttachMetadata(std::make_shared<const MetadataStore>(md)).ok());
  DynamicOptions opts;
  opts.metric = f.data.metric;
  opts.initial_capacity = 1024;
  DynamicLvqIndex dyn(
      f.data.base.cols(), opts,
      LvqStorage(LvqDataset(ComputeMean(f.data.base, kDynamicMeanSampleRows),
                            {.bits = 8}),
                 f.data.metric));
  for (size_t i = 0; i < n; ++i) dyn.Insert(f.data.base.row(i));
  ASSERT_TRUE(dyn.AttachMetadata(std::make_shared<MetadataStore>(md)).ok());
  ASSERT_EQ(dyn.capacity(), 1024u);

  SearchOptions o;
  o.window = 16;
  o.filter = std::make_shared<const Predicate>(
      Predicate::Parse("num0<0.02").value());
  GraphSearcher a(fixed->read_view());
  GraphSearcher b(dyn.read_view());
  SearchResult res;
  a.Run(f.data.queries.row(0), 10, o, &res);
  b.Run(f.data.queries.row(0), 10, o, &res);
  EXPECT_NE(a.plan().kind, FilterPlan::kPostFilter);
  EXPECT_EQ(b.plan().kind, a.plan().kind);
  EXPECT_EQ(b.plan().window0, a.plan().window0);
  EXPECT_NEAR(b.plan().selectivity, a.plan().selectivity, 1e-12);
}

// Equal predicates held in distinct objects (as a server decodes one per
// request) share one cached selectivity estimate. The store is mutated
// between the two queries so that a fresh estimate would differ.
TEST(FilterPlan, EqualPredicatesShareOneEstimate) {
  const Fixture f(MakeDeepLike(1000, 2, 33));
  auto md = std::make_shared<MetadataStore>(
      MakeSyntheticMetadata(1000, {ColumnType::kF64}, 35));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  ASSERT_TRUE(idx->AttachMetadata(md).ok());
  GraphSearcher searcher(idx->read_view());
  SearchOptions o;
  o.filter = std::make_shared<const Predicate>(
      Predicate::Parse("num0<0.3").value());
  SearchResult res;
  searcher.Run(f.data.queries.row(0), 10, o, &res);
  const double first = searcher.plan().selectivity;
  for (uint32_t id = 0; id < 1000; ++id) md->SetNumeric(0, id, 0.0);
  ASSERT_NEAR(EstimateSelectivity(*md, *o.filter), 1.0, 0.01);
  o.filter = std::make_shared<const Predicate>(
      Predicate::Parse("num0<0.3").value());
  searcher.Run(f.data.queries.row(1), 10, o, &res);
  EXPECT_EQ(searcher.plan().selectivity, first);
  // A different predicate is estimated afresh.
  o.filter = std::make_shared<const Predicate>(
      Predicate::Parse("num0<0.31").value());
  searcher.Run(f.data.queries.row(1), 10, o, &res);
  EXPECT_NEAR(searcher.plan().selectivity, 1.0, 0.01);
}

// --- the scan plan -----------------------------------------------------------

/// The exact filtered top-k of `query` over rows [0, rows) that pass and
/// are live, by `dist(prepared query, id)`, ties by id: the scan's answer.
template <typename Storage, typename Dead, typename Dist>
SearchResult BruteForceFiltered(const Storage& storage,
                                const MetadataStore& md,
                                const Predicate& pred, size_t rows, Dead dead,
                                Dist dist, const float* query, size_t k) {
  typename Storage::Query q;
  storage.PrepareQuery(query, &q);
  std::vector<std::pair<float, uint32_t>> all;
  for (uint32_t id = 0; id < rows; ++id) {
    if (!dead(id) && MatchesPredicate(md, pred, id)) {
      all.push_back({dist(q, id), id});
    }
  }
  std::sort(all.begin(), all.end());
  SearchResult r;
  r.distance_computations = all.size();
  for (size_t i = 0; i < std::min(k, all.size()); ++i) {
    r.ids.push_back(all[i].second);
    r.dists.push_back(all[i].first);
  }
  return r;
}

void ExpectSameScan(const SearchResult& got, const SearchResult& want,
                    const std::string& what) {
  ASSERT_EQ(got.ids, want.ids) << what;
  ASSERT_EQ(got.dists.size(), want.dists.size()) << what;
  for (size_t i = 0; i < want.dists.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got.dists[i]),
              std::bit_cast<uint32_t>(want.dists[i]))
        << what << " rank " << i;
  }
  ASSERT_EQ(got.distance_computations, want.distance_computations) << what;
  ASSERT_EQ(got.hops, 0u) << what;
}

/// Every query of `queries` through a searcher of `view` under kAuto must
/// plan a scan and return `brute(query)`; `k` may exceed the passing rows.
template <typename View, typename Brute>
void CheckScan(View view, MatrixViewF queries, const char* filter, size_t k,
               Brute brute, const std::string& name) {
  GraphSearcher searcher(view);
  SearchOptions o;
  o.window = 16;
  o.filter = std::make_shared<const Predicate>(
      Predicate::Parse(filter).value());
  for (size_t qi = 0; qi < queries.rows; ++qi) {
    SearchResult got;
    searcher.Run(queries.row(qi), k, o, &got);
    const std::string what = name + " query " + std::to_string(qi);
    ASSERT_EQ(searcher.plan().kind, FilterPlan::kScan) << what;
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameScan(got, brute(*o.filter, queries.row(qi), k), what));
  }
}

TEST(FilterScan, StaticMatchesBruteForce) {
  const Fixture f(MakeDeepLike(2000, 10, 41));
  const auto md = std::make_shared<const MetadataStore>(
      MakeSyntheticMetadata(2000, {ColumnType::kF64}, 43));
  for (int bits2 : {0, 8}) {
    auto idx = BuildOgLvq(f.data.base, f.data.metric, bits2 == 0 ? 8 : 4,
                          bits2, f.bp);
    ASSERT_TRUE(idx->AttachMetadata(md).ok());
    const LvqStorage& storage = idx->storage();
    std::vector<float> decode(storage.dim());
    // Two levels: the epilogue re-ranks every scanned row at full
    // precision, so the answer is exact under the full distance.
    auto dist = [&](const LvqStorage::Query& q, uint32_t id) {
      return bits2 == 0 ? storage.Distance(q, id)
                        : storage.FullDistance(q, id, decode.data());
    };
    auto brute = [&](const Predicate& p, const float* q, size_t k) {
      return BruteForceFiltered(storage, *md, p, storage.size(), NoDead{},
                                dist, q, k);
    };
    CheckScan(idx->read_view(), f.data.queries, "num0<0.02", 10, brute,
              idx->name());
    // About two rows pass: the answer is what passes, padded by Search.
    CheckScan(idx->read_view(), f.data.queries, "num0<0.001", 10, brute,
              idx->name() + " (fewer than k pass)");
    GraphSearcher searcher(idx->read_view());
    SearchOptions o;
    o.filter = std::make_shared<const Predicate>(
        Predicate::Parse("num0<0.001").value());
    const SearchResult want =
        brute(*o.filter, f.data.queries.row(0), 10);
    ASSERT_LT(want.ids.size(), 10u);
    std::vector<uint32_t> ids(10);
    std::vector<float> dists(10);
    searcher.Search(f.data.queries.row(0), 10, o, ids.data(), dists.data(),
                    nullptr);
    for (size_t r = 0; r < 10; ++r) {
      EXPECT_EQ(ids[r], r < want.ids.size() ? want.ids[r] : kInvalidId) << r;
      if (r >= want.ids.size()) {
        EXPECT_TRUE(std::isinf(dists[r])) << r;
      }
    }
  }
}

TEST(FilterScan, DynamicSkipsTombstonesAndFreeSlots) {
  const Dataset data = MakeDeepLike(1600, 8, 45);
  DynamicOptions opts;
  opts.graph_max_degree = 16;
  opts.build_window = 32;
  opts.metric = data.metric;
  DynamicLvqIndex idx(
      data.base.cols(), opts,
      LvqStorage(LvqDataset(ComputeMean(data.base, kDynamicMeanSampleRows),
                            {.bits = 8}),
                 data.metric));
  for (size_t i = 0; i < 1200; ++i) idx.Insert(data.base.row(i));
  auto md = std::make_shared<MetadataStore>(
      MakeSyntheticMetadata(1200, {ColumnType::kF64}, 47));
  ASSERT_TRUE(idx.AttachMetadata(md).ok());
  auto brute = [&](const Predicate& p, const float* q, size_t k) {
    const LvqStorage& s = idx.storage();
    return BruteForceFiltered(
        s, *md, p, idx.size(), [&](uint32_t id) { return idx.IsDeleted(id); },
        [&](const LvqStorage::Query& pq, uint32_t id) {
          return s.Distance(pq, id);
        },
        q, k);
  };
  // Delete every third passing row, so tombstones sit among the answers.
  const Predicate pred = Predicate::Parse("num0<0.03").value();
  size_t passing = 0;
  for (uint32_t id = 0; id < 1200; ++id) {
    if (MatchesPredicate(*md, pred, id) && passing++ % 3 == 0) {
      ASSERT_TRUE(idx.Delete(id).ok());
    }
  }
  ASSERT_GT(idx.num_tombstones(), 0u);
  CheckScan(idx.read_view(), data.queries, "num0<0.03", 10, brute,
            "tombstoned");
  idx.ConsolidateDeletes();
  CheckScan(idx.read_view(), data.queries, "num0<0.03", 10, brute,
            "consolidated");
  // Recycle the freed slots with new vectors whose metadata passes.
  for (size_t i = 1200; i < 1600; ++i) {
    const uint32_t id = idx.Insert(data.base.row(i));
    const double v = i % 2 == 0 ? 0.01 : 0.9;
    ASSERT_TRUE(idx.UpsertMetadata(id, 0, &v, 1).ok());
  }
  ASSERT_EQ(idx.num_deleted(), 0u);
  CheckScan(idx.read_view(), data.queries, "num0<0.03", 10, brute,
            "recycled");
}

TEST(FilterScan, ShardedMatchesBruteForceOverShards) {
  const Fixture f(MakeDeepLike(2400, 8, 49));
  ShardedBuildParams params;
  params.partition.num_shards = 3;
  params.graph = f.bp;
  auto idx = BuildShardedLvq(f.data.base, f.data.metric, params);
  const auto md = std::make_shared<const MetadataStore>(
      MakeSyntheticMetadata(2400, {ColumnType::kF64}, 51));
  ASSERT_TRUE(idx->AttachMetadata(md).ok());
  const Predicate pred = Predicate::Parse("num0<0.02").value();
  auto searcher = idx->MakeSearcher();
  SearchOptions o;
  o.window = 16;
  o.filter = std::make_shared<const Predicate>(pred);
  const size_t k = 10;
  for (size_t qi = 0; qi < f.data.queries.rows(); ++qi) {
    const float* q = f.data.queries.row(qi);
    std::vector<std::pair<float, uint32_t>> all;
    for (size_t s = 0; s < idx->num_shards(); ++s) {
      const auto& global = idx->partition().shard_to_global[s];
      const LvqStorage& storage = idx->shard(s)->storage();
      LvqStorage::Query pq;
      storage.PrepareQuery(q, &pq);
      for (uint32_t l = 0; l < global.size(); ++l) {
        if (MatchesPredicate(*md, pred, global[l])) {
          all.push_back({storage.Distance(pq, l), global[l]});
        }
      }
    }
    std::sort(all.begin(), all.end());
    std::vector<uint32_t> ids(k);
    std::vector<float> dists(k);
    BatchStats stats;
    searcher->Search(q, k, o, ids.data(), dists.data(), &stats);
    EXPECT_EQ(stats.hops, 0u) << "query " << qi;
    // Every passing row once, plus the shard ranking's centroid distances.
    EXPECT_EQ(stats.distance_computations, all.size() + idx->num_shards())
        << "query " << qi;
    for (size_t r = 0; r < k; ++r) {
      ASSERT_EQ(ids[r], all[r].second) << "query " << qi << " rank " << r;
      ASSERT_EQ(std::bit_cast<uint32_t>(dists[r]),
                std::bit_cast<uint32_t>(all[r].first))
          << "query " << qi << " rank " << r;
    }
  }
}

// --- serialization ----------------------------------------------------------

class MetadataSerialization : public TempPathTest {};

void ExpectSameCells(const MetadataStore& a, const MetadataStore& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.schema(), b.schema());
  for (uint32_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.tags(i), b.tags(i)) << "row " << i;
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.column_data(c)[i], b.column_data(c)[i])
          << "row " << i << " col " << c;
    }
  }
}

TEST_F(MetadataSerialization, SaveLoadRoundTripsEveryCell) {
  const MetadataStore s =
      MakeSyntheticMetadata(777, {ColumnType::kI64, ColumnType::kF64}, 5);
  const std::string p = Path("meta_roundtrip.meta");
  ASSERT_TRUE(SaveMetadata(p, s, s.size()).ok());
  auto loaded = OpenMetadataSidecar(p, /*view=*/false);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value()->external());
  ExpectSameCells(s, *loaded.value());
  auto viewed = OpenMetadataSidecar(p, /*view=*/true);
  ASSERT_TRUE(viewed.ok()) << viewed.status().ToString();
  EXPECT_TRUE(viewed.value()->external());
  ExpectSameCells(s, *viewed.value());
}

TEST_F(MetadataSerialization, MissingSidecarMeansNoMetadata) {
  auto none = OpenMetadataSidecar(Path("meta_missing.meta"), /*view=*/false);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none.value(), nullptr);
}

TEST_F(MetadataSerialization, MappedViewMatchesEveryCell) {
  const MetadataStore s =
      MakeSyntheticMetadata(500, {ColumnType::kF64, ColumnType::kI64}, 11);
  const std::string p = Path("meta_mapped.meta");
  ASSERT_TRUE(SaveMetadata(p, s, s.size()).ok());
  auto map = MmapFile::Map(p);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  auto view = MapMetadata(map.value());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view.value().external());
  ExpectSameCells(s, view.value());
}

// OwnedCopy and Slice must materialize every column of an *external*
// store — a regression test for the copy loops iterating the owned column
// vector (empty under mmap) instead of the schema.
TEST_F(MetadataSerialization, ExternalOwnedCopyAndSliceKeepNumericColumns) {
  const MetadataStore s =
      MakeSyntheticMetadata(300, {ColumnType::kF64, ColumnType::kI64}, 13);
  const std::string p = Path("meta_external_copy.meta");
  ASSERT_TRUE(SaveMetadata(p, s, s.size()).ok());
  auto map = MmapFile::Map(p);
  ASSERT_TRUE(map.ok());
  auto view = MapMetadata(map.value());
  ASSERT_TRUE(view.ok());

  MetadataStore copy = view.value().OwnedCopy();
  EXPECT_FALSE(copy.external());
  ExpectSameCells(s, copy);

  std::vector<uint32_t> ids = {7, 0, 299, 150};
  MetadataStore slice = view.value().Slice(ids);
  ASSERT_EQ(slice.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(slice.tags(static_cast<uint32_t>(i)), s.tags(ids[i]));
    EXPECT_EQ(slice.NumericF64(0, static_cast<uint32_t>(i)),
              s.NumericF64(0, ids[i]));
    EXPECT_EQ(slice.NumericI64(1, static_cast<uint32_t>(i)),
              s.NumericI64(1, ids[i]));
  }
}

TEST_F(MetadataSerialization, ReSaveIsByteIdentical) {
  const MetadataStore s = MakeSyntheticMetadata(321, {ColumnType::kF64}, 17);
  const std::string p1 = Path("meta_bytes_1.meta");
  const std::string p2 = Path("meta_bytes_2.meta");
  ASSERT_TRUE(SaveMetadata(p1, s, s.size()).ok());
  auto loaded = OpenMetadataSidecar(p1, /*view=*/false);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(SaveMetadata(p2, *loaded.value(), loaded.value()->size()).ok());
  std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
  std::vector<char> b1((std::istreambuf_iterator<char>(f1)),
                       std::istreambuf_iterator<char>());
  std::vector<char> b2((std::istreambuf_iterator<char>(f2)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(b1, b2);
}

TEST_F(MetadataSerialization, TruncatedAndForeignFilesAreRejected) {
  const MetadataStore s = MakeSyntheticMetadata(100, {ColumnType::kF64}, 3);
  const std::string p = Path("meta_trunc.meta");
  ASSERT_TRUE(SaveMetadata(p, s, s.size()).ok());
  std::ifstream in(p, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  for (size_t cut : {size_t{3}, size_t{17}, bytes.size() / 2,
                     bytes.size() - 8}) {
    const std::string t = Path("meta_cut_" + std::to_string(cut));
    std::ofstream out(t, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_FALSE(OpenMetadataSidecar(t, /*view=*/false).ok())
        << "cut at " << cut;
  }
  const std::string garbage = Path("meta_garbage");
  std::ofstream g(garbage, std::ios::binary);
  g << "not a metadata sidecar";
  g.close();
  for (bool view : {false, true}) {
    auto bad = OpenMetadataSidecar(garbage, view);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kIOError);
    EXPECT_NE(bad.status().message().find(garbage), std::string::npos)
        << bad.status().ToString();
  }
}

// --- filtered recall vs brute-force-filtered ground truth -------------------

// Shared world: deep-like vectors plus deterministic synthetic metadata
// (tags and one uniform-[0,1) f64 column), so "num0<s" selects fraction s.
struct FilterWorld {
  Dataset data = MakeDeepLike(6000, 40, 21);
  std::shared_ptr<const MetadataStore> md =
      std::make_shared<const MetadataStore>(MakeSyntheticMetadata(
          6000, {ColumnType::kF64}, 123));
};

const FilterWorld& World() {
  static const FilterWorld* w = new FilterWorld();
  return *w;
}

IndexSpec FilterSpec(IndexKind kind) {
  const FilterWorld& w = World();
  IndexSpec spec;
  spec.kind = kind;
  spec.metric = w.data.metric;
  spec.graph.graph_max_degree = 24;
  spec.graph.window_size = 48;
  spec.partition.num_shards = 3;
  spec.dynamic.initial_capacity = w.data.base.rows() + 64;
  return spec;
}

/// Recall normalized by the number of *valid* ground-truth entries: sparse
/// predicates can match fewer than k rows, where |S ∩ GT| / k would cap
/// below 1.0 by construction. Queries with an empty filtered GT are
/// skipped.
double FilteredRecall(const Matrix<uint32_t>& ids, const Matrix<uint32_t>& gt,
                      size_t k) {
  double sum = 0.0;
  size_t scored = 0;
  for (size_t qi = 0; qi < ids.rows(); ++qi) {
    size_t valid = 0;
    size_t hits = 0;
    for (size_t j = 0; j < k; ++j) {
      if (gt.row(qi)[j] == UINT32_MAX) continue;
      ++valid;
      for (size_t m = 0; m < k; ++m) {
        if (ids.row(qi)[m] == gt.row(qi)[j]) {
          ++hits;
          break;
        }
      }
    }
    if (valid == 0) continue;
    sum += static_cast<double>(hits) / static_cast<double>(valid);
    ++scored;
  }
  return scored > 0 ? sum / static_cast<double>(scored) : 1.0;
}

/// Every returned id must satisfy the predicate — the filter contract is
/// exactness, not best-effort.
void ExpectAllResultsPass(const Matrix<uint32_t>& ids,
                          const MetadataStore& md, const Predicate& pred,
                          size_t corpus) {
  for (size_t qi = 0; qi < ids.rows(); ++qi) {
    for (size_t j = 0; j < ids.cols(); ++j) {
      const uint32_t id = ids.row(qi)[j];
      if (id == UINT32_MAX) continue;
      ASSERT_LT(id, corpus);
      ASSERT_TRUE(MatchesPredicate(md, pred, id))
          << "query " << qi << " returned id " << id
          << " violating '" << pred.ToString() << "'";
    }
  }
}

struct SelectivityCase {
  const char* text;
  double selectivity;  // informational
  double floor;        // pinned valid-GT-normalized recall floor
};

// The four selectivity tiers of the acceptance bar. The sparse tiers match
// fewer rows than k on this corpus, which is exactly the regime the
// adaptive widening / push-down machinery exists for.
const SelectivityCase kSelectivities[] = {
    {"num0<0.5", 0.5, 0.95},
    {"num0<0.1", 0.1, 0.95},
    {"num0<0.01", 0.01, 0.9},
    {"num0<0.001", 0.001, 0.9},
};

void RunSelectivitySweep(IndexKind kind) {
  const FilterWorld& w = World();
  ThreadPool pool(4);
  Result<Index> built = Build(FilterSpec(kind), w.data.base, &pool);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Index& index = built.value();
  ASSERT_TRUE(index.AttachMetadata(w.md).ok());
  EXPECT_TRUE(index.has(kCapFilter));

  const size_t k = 10;
  const size_t nq = w.data.queries.rows();
  for (const SelectivityCase& sc : kSelectivities) {
    auto pred = Predicate::Parse(sc.text);
    ASSERT_TRUE(pred.ok()) << sc.text;
    const Matrix<uint32_t> gt =
        ComputeFilteredGroundTruth(w.data.base, w.data.queries, k,
                                   w.data.metric, *w.md, pred.value(), &pool);
    SearchOptions options;
    options.window = 48;
    options.filter = std::make_shared<const Predicate>(pred.value());
    Matrix<uint32_t> ids(nq, k);
    index.SearchBatch(w.data.queries, k, options, ids.data(), &pool);
    ExpectAllResultsPass(ids, *w.md, pred.value(), w.data.base.rows());
    const double recall = FilteredRecall(ids, gt, k);
    EXPECT_GE(recall, sc.floor)
        << KindName(kind) << " at '" << sc.text << "'";
  }
}

TEST(FilteredRecallSweep, StaticLvq) {
  RunSelectivitySweep(IndexKind::kStaticLvq);
}
TEST(FilteredRecallSweep, Sharded) { RunSelectivitySweep(IndexKind::kSharded); }
TEST(FilteredRecallSweep, DynamicLvq) {
  RunSelectivitySweep(IndexKind::kDynamicLvq);
}

// Both explicit strategies must meet the same bar (the crossover is a
// performance decision, never a correctness one).
TEST(FilteredRecallSweep, BothStrategiesAreExact) {
  const FilterWorld& w = World();
  ThreadPool pool(4);
  Result<Index> built =
      Build(FilterSpec(IndexKind::kStaticLvq), w.data.base, &pool);
  ASSERT_TRUE(built.ok());
  Index& index = built.value();
  ASSERT_TRUE(index.AttachMetadata(w.md).ok());

  const size_t k = 10;
  auto pred = Predicate::Parse("num0<0.05");
  ASSERT_TRUE(pred.ok());
  const Matrix<uint32_t> gt =
      ComputeFilteredGroundTruth(w.data.base, w.data.queries, k, w.data.metric,
                                 *w.md, pred.value(), &pool);
  for (FilterStrategy strategy :
       {FilterStrategy::kPostFilter, FilterStrategy::kInSearch}) {
    SearchOptions options;
    options.window = 48;
    options.filter = std::make_shared<const Predicate>(pred.value());
    options.filter_strategy = strategy;
    Matrix<uint32_t> ids(w.data.queries.rows(), k);
    index.SearchBatch(w.data.queries, k, options, ids.data(), &pool);
    ExpectAllResultsPass(ids, *w.md, pred.value(), w.data.base.rows());
    EXPECT_GE(FilteredRecall(ids, gt, k), 0.9)
        << "strategy " << static_cast<int>(strategy);
  }
}

// --- facade wiring and artifact round trip ----------------------------------

class FilterFacade : public TempPathTest {};

TEST_F(FilterFacade, CapabilityTogglesWithAttachment) {
  const FilterWorld& w = World();
  ThreadPool pool(4);
  Result<Index> built =
      Build(FilterSpec(IndexKind::kStaticLvq), w.data.base, &pool);
  ASSERT_TRUE(built.ok());
  Index& index = built.value();
  EXPECT_FALSE(index.has(kCapFilter));
  EXPECT_EQ(index.metadata(), nullptr);

  SearchOptions filtered;
  filtered.filter =
      std::make_shared<const Predicate>(Predicate::Parse("num0<0.5").value());
  EXPECT_FALSE(filtered.ValidateFor(index.capabilities()).ok());

  // Without kCapFilter a filtered query fails *closed*: all-padded rows.
  Matrix<uint32_t> ids(w.data.queries.rows(), 10);
  index.SearchBatch(w.data.queries, 10, filtered, ids.data(), &pool);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids.data()[i], UINT32_MAX);
  }

  ASSERT_TRUE(index.AttachMetadata(w.md).ok());
  EXPECT_TRUE(index.has(kCapFilter));
  EXPECT_NE(index.metadata(), nullptr);
  EXPECT_TRUE(filtered.ValidateFor(index.capabilities()).ok());

  ASSERT_TRUE(index.AttachMetadata(nullptr).ok());
  EXPECT_FALSE(index.has(kCapFilter));
  EXPECT_EQ(index.metadata(), nullptr);
}

TEST_F(FilterFacade, OptionsValidateWidenCap) {
  SearchOptions o;
  o.filter =
      std::make_shared<const Predicate>(Predicate::Parse("num0<1").value());
  o.window = 64;
  o.filter_widen_cap = 32;  // below the window floor
  EXPECT_FALSE(o.Validate().ok());
  o.filter_widen_cap = 0;  // auto
  EXPECT_TRUE(o.Validate().ok());
  o.filter_widen_cap = 128;
  EXPECT_TRUE(o.Validate().ok());
  EXPECT_EQ(o.ResolvedFor(10, 1).filter_widen_cap, 128u);
  o.filter_widen_cap = (1u << 20) + 1;
  EXPECT_FALSE(o.Validate().ok());
}

void RoundTripFlavor(IndexKind kind, const std::string& path,
                     LoadMode load_mode) {
  const FilterWorld& w = World();
  ThreadPool pool(4);
  Result<Index> built = Build(FilterSpec(kind), w.data.base, &pool);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE(built.value().AttachMetadata(w.md).ok());
  ASSERT_TRUE(built.value().Save(path).ok());

  OpenOptions oo;
  oo.load_mode = load_mode;
  Result<Index> opened = Open(path, oo);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened.value().has(kCapFilter)) << KindName(kind);
  ASSERT_NE(opened.value().metadata(), nullptr);
  EXPECT_EQ(opened.value().metadata()->size(), w.md->size());

  SearchOptions options;
  options.window = 48;
  options.filter =
      std::make_shared<const Predicate>(Predicate::Parse("num0<0.1").value());
  const size_t k = 10;
  const size_t nq = w.data.queries.rows();
  Matrix<uint32_t> before(nq, k), after(nq, k);
  built.value().SearchBatch(w.data.queries, k, options, before.data(), &pool);
  opened.value().SearchBatch(w.data.queries, k, options, after.data(), &pool);
  ExpectSameIds(before, after,
                std::string(KindName(kind)) + " filtered round trip");
}

TEST_F(FilterFacade, StaticRoundTripLoadAndMap) {
  for (const char* suffix : {".graph", ".vecs", ".meta"}) {
    Path(std::string("filter_static") + suffix);  // registered for teardown
    Path(std::string("filter_static_map") + suffix);
  }
  RoundTripFlavor(IndexKind::kStaticLvq, Path("filter_static"),
                  LoadMode::kLoad);
  RoundTripFlavor(IndexKind::kStaticLvq, Path("filter_static_map"),
                  LoadMode::kMap);
}

TEST_F(FilterFacade, ShardedRoundTrip) {
  RoundTripFlavor(IndexKind::kSharded, DirPath("filter_sharded"),
                  LoadMode::kLoad);
}

TEST_F(FilterFacade, DynamicRoundTrip) {
  Path("filter_dynamic.meta");  // registered for teardown
  RoundTripFlavor(IndexKind::kDynamicLvq, Path("filter_dynamic"),
                  LoadMode::kLoad);
}

TEST_F(FilterFacade, SidecarReSaveIsByteIdentical) {
  const FilterWorld& w = World();
  ThreadPool pool(4);
  Result<Index> built =
      Build(FilterSpec(IndexKind::kStaticLvq), w.data.base, &pool);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value().AttachMetadata(w.md).ok());
  const std::string p1 = Path("filter_bytes_1");
  const std::string p2 = Path("filter_bytes_2");
  Path("filter_bytes_1.graph");  // register artifacts for teardown
  Path("filter_bytes_1.vecs");
  Path("filter_bytes_1.meta");
  Path("filter_bytes_2.graph");
  Path("filter_bytes_2.vecs");
  Path("filter_bytes_2.meta");
  ASSERT_TRUE(built.value().Save(p1).ok());
  Result<Index> opened = Open(p1);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened.value().Save(p2).ok());
  for (const char* suffix : {".meta", ".graph", ".vecs"}) {
    std::ifstream f1(p1 + suffix, std::ios::binary);
    std::ifstream f2(p2 + suffix, std::ios::binary);
    std::vector<char> b1((std::istreambuf_iterator<char>(f1)),
                         std::istreambuf_iterator<char>());
    std::vector<char> b2((std::istreambuf_iterator<char>(f2)),
                         std::istreambuf_iterator<char>());
    ASSERT_FALSE(b1.empty()) << suffix;
    EXPECT_EQ(b1, b2) << suffix;
  }
}

TEST_F(FilterFacade, DetachRemovesStaleSidecarOnSave) {
  const FilterWorld& w = World();
  ThreadPool pool(4);
  Result<Index> built =
      Build(FilterSpec(IndexKind::kStaticLvq), w.data.base, &pool);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value().AttachMetadata(w.md).ok());
  const std::string p = Path("filter_stale");
  Path("filter_stale.graph");
  Path("filter_stale.vecs");
  Path("filter_stale.meta");
  ASSERT_TRUE(built.value().Save(p).ok());
  EXPECT_TRUE(std::filesystem::exists(p + ".meta"));

  // Detach and re-save: the stale sidecar must not survive to resurrect
  // old metadata on the next Open.
  ASSERT_TRUE(built.value().AttachMetadata(nullptr).ok());
  ASSERT_TRUE(built.value().Save(p).ok());
  EXPECT_FALSE(std::filesystem::exists(p + ".meta"));
  Result<Index> opened = Open(p);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().metadata(), nullptr);
  EXPECT_FALSE(opened.value().has(kCapFilter));
}

TEST_F(FilterFacade, FilterlessArtifactsOpenUnchanged) {
  const FilterWorld& w = World();
  ThreadPool pool(4);
  Result<Index> built =
      Build(FilterSpec(IndexKind::kStaticLvq), w.data.base, &pool);
  ASSERT_TRUE(built.ok());
  const std::string p = Path("filter_none");
  Path("filter_none.graph");
  Path("filter_none.vecs");
  ASSERT_TRUE(built.value().Save(p).ok());
  EXPECT_FALSE(std::filesystem::exists(p + ".meta"));
  Result<Index> opened = Open(p);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().metadata(), nullptr);
  EXPECT_FALSE(opened.value().has(kCapFilter));
}

// --- dynamic mutation path --------------------------------------------------

TEST(FilterDynamic, UpsertAndSlotRecyclingNeverLeakStaleRows) {
  const FilterWorld& w = World();
  ThreadPool pool(4);
  Result<Index> built =
      Build(FilterSpec(IndexKind::kDynamicLvq), w.data.base, &pool);
  ASSERT_TRUE(built.ok());
  Index& index = built.value();
  ASSERT_TRUE(index.AttachMetadata(w.md).ok());

  // Tag bit 62 marks exactly one vector: the one we are about to insert.
  auto marked = Predicate::Parse("tag:any=62");
  ASSERT_TRUE(marked.ok());
  SearchOptions options;
  options.window = 32;
  options.filter = std::make_shared<const Predicate>(marked.value());

  Result<uint32_t> inserted = index.Insert(w.data.base.row(0));
  ASSERT_TRUE(inserted.ok());
  const double values[] = {0.5};
  ASSERT_TRUE(index
                  .UpsertMetadata(inserted.value(), uint64_t{1} << 62, values,
                                  1)
                  .ok());

  const size_t k = 4;
  Matrix<uint32_t> ids(1, k);
  index.SearchBatch({w.data.queries.row(0), 1, w.data.queries.cols()}, k,
                    options, ids.data(), &pool);
  EXPECT_EQ(ids.row(0)[0], inserted.value());
  for (size_t j = 1; j < k; ++j) EXPECT_EQ(ids.row(0)[j], UINT32_MAX);

  // Delete, consolidate, insert again: the recycled slot must not inherit
  // the deleted vector's marker bit.
  ASSERT_TRUE(index.Delete(inserted.value()).ok());
  ASSERT_TRUE(index.Consolidate().ok());
  Result<uint32_t> recycled = index.Insert(w.data.base.row(1));
  ASSERT_TRUE(recycled.ok());
  index.SearchBatch({w.data.queries.row(0), 1, w.data.queries.cols()}, k,
                    options, ids.data(), &pool);
  for (size_t j = 0; j < k; ++j) {
    EXPECT_EQ(ids.row(0)[j], UINT32_MAX)
        << "recycled slot " << recycled.value() << " leaked the marker tag";
  }
}

TEST(FilterDynamic, MetadataSurvivesSaveOpenWithTombstones) {
  const FilterWorld& w = World();
  ThreadPool pool(4);
  Result<Index> built =
      Build(FilterSpec(IndexKind::kDynamicLvq), w.data.base, &pool);
  ASSERT_TRUE(built.ok());
  Index& index = built.value();
  ASSERT_TRUE(index.AttachMetadata(w.md).ok());
  // A deleted-but-unconsolidated row keeps its slot; slot ids persist
  // verbatim through Save/Open, and so must metadata rows.
  ASSERT_TRUE(index.Delete(5).ok());

  const std::string p =
      testing::TempDir() + "blink_test_filter_dyn_tomb";
  ASSERT_TRUE(index.Save(p).ok());
  Result<Index> opened = Open(p);
  std::remove(p.c_str());
  std::remove((p + ".meta").c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_NE(opened.value().metadata(), nullptr);
  const MetadataStore& md = *opened.value().metadata();
  ASSERT_GE(md.size(), w.md->size());
  for (uint32_t id = 0; id < w.md->size(); id += 97) {
    EXPECT_EQ(md.tags(id), w.md->tags(id)) << id;
    EXPECT_EQ(md.NumericF64(0, id), w.md->NumericF64(0, id)) << id;
  }
}

// Concurrent metadata upserts against filtered searches: the TSan contract
// is relaxed atomics per cell (see MetadataStore), so this must run clean
// under -DBLINK_TSAN=ON (CI registers test_filter in the tsan job).
TEST(FilterDynamic, ConcurrentUpsertVsFilteredSearch) {
  Dataset data = MakeDeepLike(2000, 8, 31);
  IndexSpec spec;
  spec.kind = IndexKind::kDynamicLvq;
  spec.metric = data.metric;
  spec.graph.graph_max_degree = 16;
  spec.graph.window_size = 32;
  spec.dynamic.initial_capacity = data.base.rows() + 256;
  ThreadPool pool(4);
  Result<Index> built = Build(spec, data.base, &pool);
  ASSERT_TRUE(built.ok());
  Index& index = built.value();
  ASSERT_TRUE(index.AttachMetadata(std::make_shared<const MetadataStore>(
                      MakeSyntheticMetadata(data.base.rows(),
                                            {ColumnType::kF64}, 77)))
                  .ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint32_t id = static_cast<uint32_t>(i % data.base.rows());
      const double v = SyntheticF64(77, i, 0);
      (void)index.UpsertMetadata(id, SyntheticTags(77, i), &v, 1);
      ++i;
    }
  });
  std::thread churner([&] {
    std::vector<uint32_t> extra;
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (extra.size() < 32) {
        auto id = index.Insert(data.base.row(i % data.base.rows()));
        if (id.ok()) {
          const double v = 0.25;
          (void)index.UpsertMetadata(id.value(), 1, &v, 1);
          extra.push_back(id.value());
        }
      } else {
        for (uint32_t id : extra) (void)index.Delete(id);
        extra.clear();
        (void)index.Consolidate();
      }
      ++i;
    }
    for (uint32_t id : extra) (void)index.Delete(id);
  });

  SearchOptions options;
  options.window = 32;
  options.filter =
      std::make_shared<const Predicate>(Predicate::Parse("num0<0.5").value());
  Matrix<uint32_t> ids(data.queries.rows(), 10);
  for (int iter = 0; iter < 40; ++iter) {
    const FilterStrategy strategy = iter % 2 == 0 ? FilterStrategy::kPostFilter
                                                  : FilterStrategy::kInSearch;
    options.filter_strategy = strategy;
    index.SearchBatch(data.queries, 10, options, ids.data(), &pool);
  }
  stop.store(true);
  writer.join();
  churner.join();
}

// Scans beside a writer that deletes, re-inserts into the freed slots and
// upserts metadata: the scan reads every slot in use, so slot liveness and
// fresh rows must be published to it (dynamic.h's acquire/release pairs).
// Runs under -DBLINK_TSAN=ON in the tsan job.
TEST(FilterDynamic, ConcurrentScanVsDeleteAndUpsert) {
  const Dataset data = MakeDeepLike(800, 4, 53);
  DynamicOptions opts;
  opts.graph_max_degree = 16;
  opts.build_window = 32;
  opts.metric = data.metric;
  opts.initial_capacity = 1024;  // no Grow during the race
  DynamicLvqIndex idx(
      data.base.cols(), opts,
      LvqStorage(LvqDataset(ComputeMean(data.base, kDynamicMeanSampleRows),
                            {.bits = 8}),
                 data.metric));
  for (size_t i = 0; i < 600; ++i) idx.Insert(data.base.row(i));
  ASSERT_TRUE(idx.AttachMetadata(std::make_shared<MetadataStore>(
                                     MakeSyntheticMetadata(
                                         600, {ColumnType::kF64}, 55)))
                  .ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::vector<uint32_t> extra;
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint32_t id = static_cast<uint32_t>(i % 600);
      const double v = SyntheticF64(55, i, 0);
      (void)idx.UpsertMetadata(id, SyntheticTags(55, i), &v, 1);
      if (extra.size() < 16) {
        const uint32_t fresh = idx.Insert(data.base.row(600 + i % 200));
        const double pass = 0.01;
        (void)idx.UpsertMetadata(fresh, 0, &pass, 1);
        extra.push_back(fresh);
      } else {
        for (uint32_t e : extra) (void)idx.Delete(e);
        extra.clear();
        idx.ConsolidateDeletes();
      }
      ++i;
    }
  });

  GraphSearcher searcher(idx.read_view());
  SearchOptions o;
  o.window = 16;
  o.filter = std::make_shared<const Predicate>(
      Predicate::Parse("num0<0.02").value());
  size_t scans = 0;
  for (int iter = 0; iter < 200; ++iter) {
    SearchResult res;
    searcher.Run(data.queries.row(iter % 4), 10, o, &res);
    scans += searcher.plan().kind == FilterPlan::kScan;
    for (uint32_t id : res.ids) ASSERT_LT(id, idx.size());
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(scans, 0u);
}

}  // namespace
}  // namespace blink
