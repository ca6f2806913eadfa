// The public facade (DESIGN.md D10): IndexSpec validation, Build over
// every flavor, Save -> Open round trips with byte-identical results and
// no re-supplied configuration, the capability model, mutation
// forwarding, serving through Index::Serve, and the name -> factory
// registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/index.h"
#include "api/registry.h"
#include "api/spec.h"
#include "eval/harness.h"
#include "graph/serialize.h"
#include "serve/engine.h"
#include "testutil.h"

namespace blink {
namespace {

using testutil::ExpectSameIds;
using testutil::Fixture;
using testutil::TempPathTest;

// One shared fixture: n=3000 deep-like vectors, 150 queries, seed 77 (the
// recall-floor suite's dataset, so floors here are comparable).
const Fixture& SharedFixture() {
  static const Fixture* f = new Fixture(MakeDeepLike(3000, 150, 77));
  return *f;
}

IndexSpec SpecFor(IndexKind kind, const Fixture& f) {
  IndexSpec spec;
  spec.kind = kind;
  spec.metric = f.data.metric;
  spec.graph = f.bp;
  spec.partition.num_shards = 4;
  spec.dynamic.initial_capacity = f.data.base.rows();
  return spec;
}

const IndexKind kAllKinds[] = {
    IndexKind::kStaticF32,  IndexKind::kStaticF16,  IndexKind::kStaticLvq,
    IndexKind::kSharded,    IndexKind::kDynamicF32, IndexKind::kDynamicLvq,
};

// --- spec ------------------------------------------------------------------

TEST(IndexSpec, ValidatesAndResolves) {
  IndexSpec spec;
  EXPECT_TRUE(spec.Validate().ok());

  spec.graph.graph_max_degree = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.graph.graph_max_degree = 32;

  spec.kind = IndexKind::kStaticLvq;
  spec.bits1 = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.bits1 = 17;
  EXPECT_FALSE(spec.Validate().ok());
  spec.bits1 = 8;
  spec.bits2 = -1;
  EXPECT_FALSE(spec.Validate().ok());
  spec.bits2 = 0;

  spec.kind = IndexKind::kSharded;
  spec.partition.num_shards = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.partition.num_shards = 4;
  EXPECT_TRUE(spec.Validate().ok());

  // Resolution fills the deferred defaults.
  IndexSpec defaulted;
  defaulted.graph.graph_max_degree = 24;
  defaulted.graph.window_size = 0;
  defaulted.graph.alpha = 0.0f;
  defaulted.metric = Metric::kInnerProduct;
  const IndexSpec r = defaulted.Resolved();
  EXPECT_EQ(r.graph.window_size, 48u);
  EXPECT_FLOAT_EQ(r.graph.alpha, 0.95f);
}

TEST(IndexSpec, KindNamesRoundTrip) {
  for (IndexKind kind : kAllKinds) {
    auto parsed = ParseIndexKind(KindName(kind));
    ASSERT_TRUE(parsed.ok()) << KindName(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseIndexKind("flat").ok());
  EXPECT_FALSE(ParseIndexKind("").ok());
}

TEST(BuildApi, RejectsInvalidSpec) {
  const Fixture& f = SharedFixture();
  IndexSpec spec = SpecFor(IndexKind::kStaticLvq, f);
  spec.bits1 = 99;
  EXPECT_FALSE(Build(spec, f.data.base).ok());
}

// --- build + capabilities --------------------------------------------------

TEST(BuildApi, EveryKindBuildsAndSearches) {
  const Fixture& f = SharedFixture();
  for (IndexKind kind : kAllKinds) {
    auto built = Build(SpecFor(kind, f), f.data.base);
    ASSERT_TRUE(built.ok()) << KindName(kind);
    Index& idx = built.value();
    EXPECT_EQ(idx.kind(), kind);
    EXPECT_EQ(idx.size(), f.data.base.rows()) << KindName(kind);
    EXPECT_EQ(idx.dim(), f.data.base.cols());
    EXPECT_GT(idx.memory_bytes(), 0u);
    EXPECT_TRUE(idx.self_described());
    EXPECT_TRUE(idx.has(kCapSearch | kCapSave)) << KindName(kind);
    EXPECT_EQ(idx.has(kCapInsert), IsDynamicKind(kind)) << KindName(kind);
    EXPECT_EQ(idx.has(kCapShardProbe), kind == IndexKind::kSharded);

    SearchOptions p;
    p.window = 64;
    const double recall =
        testutil::RecallOf(idx.AsSearchIndex(), f, p);
    EXPECT_GE(recall, 0.9) << KindName(kind);
  }
}

TEST(BuildApi, MutationForwardsOnlyToDynamicKinds) {
  const Fixture& f = SharedFixture();
  auto built = Build(SpecFor(IndexKind::kStaticLvq, f), f.data.base);
  ASSERT_TRUE(built.ok());
  EXPECT_FALSE(built.value().Insert(f.data.base.row(0)).ok());
  EXPECT_FALSE(built.value().Delete(0).ok());
  EXPECT_FALSE(built.value().Consolidate().ok());

  auto dyn = Build(SpecFor(IndexKind::kDynamicLvq, f), f.data.base);
  ASSERT_TRUE(dyn.ok());
  const size_t before = dyn.value().size();
  auto id = dyn.value().Insert(f.data.base.row(0));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(dyn.value().size(), before + 1);
  EXPECT_TRUE(dyn.value().Delete(id.value()).ok());
  EXPECT_TRUE(dyn.value().Consolidate().ok());
  EXPECT_EQ(dyn.value().size(), before);
}

// --- non-finite vectors -----------------------------------------------------

/// SharedFixture's base rows with `value` at (1234, 17).
MatrixF WithBadEntry(const Fixture& f, float value) {
  const MatrixF& base = f.data.base;
  MatrixF m(base.rows(), base.cols());
  std::copy_n(base.data(), base.size(), m.data());
  m(1234, 17) = value;
  return m;
}

IndexSpec LowBitSpecFor(IndexKind kind, const Fixture& f) {
  IndexSpec spec = SpecFor(kind, f);
  spec.bits1 = 4;
  spec.bits2 = kind == IndexKind::kStaticLvq ? 8 : 0;
  return spec;
}

void ExpectNamesRow1234Column17(const Status& st, const std::string& what) {
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
  EXPECT_NE(st.message().find("row 1234"), std::string::npos)
      << what << ": " << st.ToString();
  EXPECT_NE(st.message().find("column 17"), std::string::npos)
      << what << ": " << st.ToString();
}

// One NaN coordinate among 3000 rows used to build "successfully": it
// entered the LVQ mean that every row is encoded against. Build now
// rejects a non-finite entry for every kind, naming where it is.
TEST(BuildApi, NonFiniteRowFailsBuildForEveryKind) {
  const Fixture& f = SharedFixture();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (float bad : {nan, inf, -inf}) {
    const MatrixF data = WithBadEntry(f, bad);
    for (IndexKind kind : kAllKinds) {
      auto built = Build(LowBitSpecFor(kind, f), data);
      ASSERT_FALSE(built.ok()) << KindName(kind) << " accepted " << bad;
      ExpectNamesRow1234Column17(built.status(), KindName(kind));
    }
  }
}

// The harm the check prevents: a clean query (row 0 itself) against an
// LVQ index built next to one NaN row got NaN distances and a wrong
// nearest neighbour. An index either refuses such data or serves clean
// queries exactly as before.
TEST(BuildApi, NonFiniteRowCannotPoisonCleanQueries) {
  const Fixture& f = SharedFixture();
  const MatrixF data =
      WithBadEntry(f, std::numeric_limits<float>::quiet_NaN());
  for (IndexKind kind : {IndexKind::kStaticLvq, IndexKind::kDynamicLvq}) {
    auto built = Build(LowBitSpecFor(kind, f), data);
    if (!built.ok()) continue;
    SearchOptions p;
    p.window = 40;
    std::vector<uint32_t> ids(10);
    std::vector<float> dists(10);
    built.value().SearchBatchEx(MatrixViewF(data.row(0), 1, data.cols()), 10,
                                p, ids.data(), dists.data(), nullptr);
    EXPECT_EQ(ids[0], 0u) << KindName(kind);
    for (float d : dists) EXPECT_TRUE(std::isfinite(d)) << KindName(kind);
  }
}

// Insert on a dynamic index accepted NaN and Inf components. It now fails
// without touching the index.
TEST(BuildApi, DynamicInsertRejectsNonFiniteVector) {
  const Fixture& f = SharedFixture();
  for (IndexKind kind : {IndexKind::kDynamicF32, IndexKind::kDynamicLvq}) {
    auto built = Build(LowBitSpecFor(kind, f), f.data.base);
    ASSERT_TRUE(built.ok()) << KindName(kind);
    Index& idx = built.value();
    const size_t before = idx.size();
    for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                      std::numeric_limits<float>::infinity()}) {
      std::vector<float> vec(f.data.base.row(5),
                             f.data.base.row(5) + f.data.base.cols());
      vec[17] = bad;
      auto id = idx.Insert(vec.data());
      ASSERT_FALSE(id.ok()) << KindName(kind) << " accepted " << bad;
      EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(id.status().message().find("column 17"), std::string::npos)
          << id.status().ToString();
    }
    EXPECT_EQ(idx.size(), before) << KindName(kind);
  }
}

// --- non-finite queries ----------------------------------------------------

// A query holding a NaN or an infinity made every distance NaN, which the
// candidate buffer never rejects: it expanded nearly every row and answered
// NaN distances. Every searcher, the baselines' too, now answers it all
// padded, with no hops and no distances (Searcher::Search checks it once
// for every index), while a clean query next to it in the same batch is
// answered as before. `name` is a registry name.
void ExpectNonFiniteQueryFailsClosed(const std::string& name) {
  const Fixture& f = SharedFixture();
  // BuildNamed takes the kind from the name.
  auto built =
      BuildNamed(name, SpecFor(IndexKind::kStaticF32, f), f.data.base);
  ASSERT_TRUE(built.ok()) << name;
  const Index& idx = built.value();
  const size_t d = f.data.base.cols(), k = 10;
  SearchOptions p;
  p.window = 40;
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    MatrixF queries(2, d);
    for (size_t r = 0; r < 2; ++r) {
      std::copy_n(f.data.base.row(5), d, queries.row(r));
    }
    queries(0, 17) = bad;
    std::vector<uint32_t> ids(2 * k);
    std::vector<float> dists(2 * k);
    BatchStats stats;
    idx.MakeSearcher()->Search(queries.row(0), k, p, ids.data(), dists.data(),
                               &stats);
    for (size_t j = 0; j < k; ++j) {
      EXPECT_EQ(ids[j], kInvalidId) << name << " " << bad;
      EXPECT_EQ(dists[j], kInvalidDist) << name << " " << bad;
    }
    EXPECT_EQ(stats.hops, 0u) << name << " " << bad;
    EXPECT_EQ(stats.distance_computations, 0u) << name << " " << bad;

    idx.SearchBatchEx(queries, k, p, ids.data(), dists.data(), nullptr);
    EXPECT_EQ(ids[0], kInvalidId) << name << " " << bad;
    for (size_t j = k; j < 2 * k; ++j) {
      EXPECT_NE(ids[j], kInvalidId) << name << " " << bad;
      EXPECT_TRUE(std::isfinite(dists[j])) << name << " " << bad;
    }
  }
}

TEST(SearchApi, NonFiniteQueryFailsClosedOnStaticKinds) {
  for (IndexKind kind : {IndexKind::kStaticF32, IndexKind::kStaticF16,
                         IndexKind::kStaticLvq}) {
    ExpectNonFiniteQueryFailsClosed(KindName(kind));
  }
}

TEST(SearchApi, NonFiniteQueryFailsClosedOnDynamicKinds) {
  for (IndexKind kind : {IndexKind::kDynamicF32, IndexKind::kDynamicLvq}) {
    ExpectNonFiniteQueryFailsClosed(KindName(kind));
  }
}

TEST(SearchApi, NonFiniteQueryFailsClosedOnSharded) {
  ExpectNonFiniteQueryFailsClosed(KindName(IndexKind::kSharded));
}

TEST(SearchApi, NonFiniteQueryFailsClosedOnBaselines) {
  for (const char* name : {"hnsw", "ivf-pq", "scann"}) {
    ExpectNonFiniteQueryFailsClosed(name);
  }
}

// --- the acceptance recall floors through the facade -----------------------

TEST(BuildApi, FacadeRecallFloors) {
  const Fixture& f = SharedFixture();
  SearchOptions p;
  p.window = 64;
  p.nprobe_shards = 2;
  for (IndexKind kind : {IndexKind::kStaticLvq, IndexKind::kSharded,
                         IndexKind::kDynamicLvq}) {
    auto built = Build(SpecFor(kind, f), f.data.base);
    ASSERT_TRUE(built.ok()) << KindName(kind);
    const double recall =
        testutil::RecallOf(built.value().AsSearchIndex(), f, p);
    EXPECT_GE(recall, 0.95) << KindName(kind) << " facade recall floor";
  }
}

// --- save -> open round trips ----------------------------------------------

class ApiRoundTrip : public TempPathTest {};

TEST_F(ApiRoundTrip, EveryKindReopensIdentically) {
  const Fixture& f = SharedFixture();
  SearchOptions p;
  p.window = 48;
  for (IndexKind kind : kAllKinds) {
    SCOPED_TRACE(KindName(kind));
    auto built = Build(SpecFor(kind, f), f.data.base);
    ASSERT_TRUE(built.ok());
    const std::string path =
        kind == IndexKind::kSharded
            ? DirPath(std::string("rt_") + KindName(kind))
            : Path(std::string("rt_") + KindName(kind));
    if (kind == IndexKind::kStaticF32 || kind == IndexKind::kStaticF16 ||
        kind == IndexKind::kStaticLvq) {
      // Static bundles expand to two files; register them for cleanup.
      (void)Path(std::string("rt_") + KindName(kind) + ".graph");
      (void)Path(std::string("rt_") + KindName(kind) + ".vecs");
    }
    ASSERT_TRUE(built.value().Save(path).ok());

    // No metric, no params: the artifact knows.
    auto reopened = Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    Index& back = reopened.value();
    EXPECT_TRUE(back.self_described());
    EXPECT_EQ(back.kind(), kind);
    EXPECT_EQ(back.metric(), f.data.metric);
    EXPECT_EQ(back.size(), built.value().size());
    EXPECT_EQ(back.dim(), built.value().dim());
    EXPECT_EQ(back.spec().graph.graph_max_degree, f.bp.graph_max_degree);
    EXPECT_EQ(back.capabilities(), built.value().capabilities());

    const auto before = testutil::SearchIds(built.value().AsSearchIndex(),
                                            f.data.queries, f.k, p);
    const auto after =
        testutil::SearchIds(back.AsSearchIndex(), f.data.queries, f.k, p);
    ExpectSameIds(before, after, KindName(kind));
  }
}

TEST_F(ApiRoundTrip, ReopenedSpecPreservesLvqConfig) {
  const Fixture& f = SharedFixture();
  IndexSpec spec = SpecFor(IndexKind::kStaticLvq, f);
  spec.bits1 = 4;
  spec.bits2 = 8;
  auto built = Build(spec, f.data.base);
  ASSERT_TRUE(built.ok());
  const std::string prefix = Path("lvq48");
  (void)Path("lvq48.graph");
  (void)Path("lvq48.vecs");
  ASSERT_TRUE(built.value().Save(prefix).ok());
  auto back = Open(prefix);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().spec().bits1, 4);
  EXPECT_EQ(back.value().spec().bits2, 8);
  EXPECT_TRUE(back.value().has(kCapRerank));
}

TEST_F(ApiRoundTrip, DynamicReopenContinuesInserting) {
  const Fixture& f = SharedFixture();
  auto built = Build(SpecFor(IndexKind::kDynamicLvq, f), f.data.base);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value().Delete(5).ok());
  ASSERT_TRUE(built.value().Consolidate().ok());
  const std::string path = Path("dyn_continue");
  ASSERT_TRUE(built.value().Save(path).ok());

  auto back = Open(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Both sides insert the same vector next: the recycled id must match
  // (free-slot order is serialized state).
  auto id_orig = built.value().Insert(f.data.base.row(7));
  auto id_back = back.value().Insert(f.data.base.row(7));
  ASSERT_TRUE(id_orig.ok());
  ASSERT_TRUE(id_back.ok());
  EXPECT_EQ(id_orig.value(), id_back.value());
}

// --- serving through the facade --------------------------------------------

TEST(ApiServe, EngineServesFacadeIndex) {
  const Fixture& f = SharedFixture();
  auto built = Build(SpecFor(IndexKind::kStaticLvq, f), f.data.base);
  ASSERT_TRUE(built.ok());
  ServingOptions so;
  so.num_threads = 2;
  auto served = built.value().Serve(so);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  auto engine = std::move(served).value();
  ASSERT_NE(engine, nullptr);
  SearchOptions p;
  p.window = 64;
  Matrix<uint32_t> ids(f.data.queries.rows(), f.k);
  engine->SearchBatch(f.data.queries, f.k, p, ids.data());
  EXPECT_GE(MeanRecallAtK(ids, f.gt, f.k), 0.95);
}

// --- sharded stats through the facade (SearchBatchEx satellite) ------------

TEST(ApiSearch, ShardedSearchBatchExSurvivesMerge) {
  const Fixture& f = SharedFixture();
  auto built = Build(SpecFor(IndexKind::kSharded, f), f.data.base);
  ASSERT_TRUE(built.ok());
  const size_t nq = f.data.queries.rows();
  Matrix<uint32_t> ids(nq, f.k);
  MatrixF dists(nq, f.k);
  BatchStats stats;
  SearchOptions p;
  p.window = 64;
  built.value().SearchBatchEx(f.data.queries, f.k, p, ids.data(),
                              dists.data(), &stats);
  for (size_t i = 0; i < dists.size(); ++i) {
    EXPECT_FALSE(std::isnan(dists.data()[i])) << i;
  }
  EXPECT_GT(stats.distance_computations, 0u);
  EXPECT_GT(stats.hops, 0u);
}

// --- registry ---------------------------------------------------------------

TEST(Registry, BuildsFacadeKindsByName) {
  const Fixture& f = SharedFixture();
  IndexSpec spec = SpecFor(IndexKind::kStaticF32, f);  // kind is overridden
  auto idx = BuildNamed("static-lvq", spec, f.data.base);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value().kind(), IndexKind::kStaticLvq);
  EXPECT_TRUE(idx.value().has(kCapSave));
}

TEST(Registry, BaselinesComeBackSearchOnly) {
  const Fixture& f = SharedFixture();
  const IndexSpec spec = SpecFor(IndexKind::kStaticF32, f);
  SearchOptions graph_params;
  graph_params.window = 64;
  SearchOptions probe_params;
  probe_params.nprobe = 16;
  probe_params.reorder_k = 50;
  struct Case {
    const char* name;
    SearchOptions params;
    double floor;
  };
  for (const Case& c : {Case{"hnsw", graph_params, 0.9},
                        Case{"ivf-pq", probe_params, 0.5},
                        Case{"scann", probe_params, 0.5},
                        Case{"og-global", graph_params, 0.5}}) {
    auto idx = BuildNamed(c.name, spec, f.data.base);
    ASSERT_TRUE(idx.ok()) << c.name;
    EXPECT_TRUE(idx.value().has(kCapSearch)) << c.name;
    EXPECT_FALSE(idx.value().has(kCapSave)) << c.name;
    EXPECT_FALSE(idx.value().Save("/tmp/never_written").ok()) << c.name;
    EXPECT_FALSE(idx.value().Insert(f.data.base.row(0)).ok()) << c.name;
    const double recall =
        testutil::RecallOf(idx.value().AsSearchIndex(), f, c.params);
    EXPECT_GE(recall, c.floor) << c.name;
  }
}

// The baselines search through their own searchers: distances are the
// finite ones each ranked by (exact for HNSW; exact after a re-rank of at
// least k for the partitioned PQ indices), so they never decrease along a
// row; the work is counted; and a searcher answers what a batch answers.
TEST(Registry, BaselinesReportRankedDistancesAndWork) {
  const Fixture& f = SharedFixture();
  const IndexSpec spec = SpecFor(IndexKind::kStaticF32, f);
  SearchOptions graph_params;
  graph_params.window = 64;
  SearchOptions probe_params;
  probe_params.nprobe = 16;
  probe_params.reorder_k = 50;
  ThreadPool pool(2);
  const size_t nq = f.data.queries.rows();
  for (const auto& [name, params] :
       {std::pair{"hnsw", graph_params}, std::pair{"ivf-pq", probe_params},
        std::pair{"scann", probe_params}}) {
    auto built = BuildNamed(name, spec, f.data.base);
    ASSERT_TRUE(built.ok()) << name;
    const Index& idx = built.value();
    Matrix<uint32_t> ids(nq, f.k);
    MatrixF dists(nq, f.k);
    BatchStats stats;
    idx.SearchBatchEx(f.data.queries, f.k, params, ids.data(), dists.data(),
                      &stats, &pool);
    EXPECT_GT(stats.distance_computations, 0u) << name;
    for (size_t qi = 0; qi < nq; ++qi) {
      for (size_t j = 0; j < f.k; ++j) {
        ASSERT_TRUE(std::isfinite(dists(qi, j))) << name << " q" << qi;
        if (j > 0) {
          ASSERT_LE(dists(qi, j - 1), dists(qi, j)) << name;
        }
      }
    }
    auto searcher = idx.MakeSearcher();
    std::vector<uint32_t> row(f.k);
    for (size_t qi = 0; qi < nq; ++qi) {
      searcher->Search(f.data.queries.row(qi), f.k, params, row.data(),
                       nullptr, nullptr);
      for (size_t j = 0; j < f.k; ++j) {
        ASSERT_EQ(row[j], ids(qi, j)) << name << " q" << qi;
      }
    }
  }
}

TEST(Registry, SweepsARegistryIndexThroughTheHarness) {
  const Fixture& f = SharedFixture();
  auto idx = BuildNamed("static-lvq", SpecFor(IndexKind::kStaticLvq, f),
                        f.data.base);
  ASSERT_TRUE(idx.ok());
  HarnessOptions opts;
  opts.k = f.k;
  opts.best_of = 1;
  const auto settings = WindowSweep({32, 64});
  const auto points = RunSweep(idx.value().AsSearchIndex(), f.data.queries,
                               f.gt, settings, opts);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GE(points[1].recall, 0.95);
}

TEST(Registry, UnknownNameListsRegistered) {
  const Fixture& f = SharedFixture();
  auto idx = BuildNamed("nope", IndexSpec{}, f.data.base);
  ASSERT_FALSE(idx.ok());
  EXPECT_NE(idx.status().message().find("static-lvq"), std::string::npos);
}

TEST(Registry, RegisterRejectsDuplicatesAndAcceptsNew) {
  EXPECT_FALSE(RegisterIndexFactory(
      "static-lvq", [](const IndexSpec&, MatrixViewF, ThreadPool*) {
        return Result<Index>(Status::Internal("never"));
      }));
  const std::string name = "test-custom-factory";
  EXPECT_TRUE(RegisterIndexFactory(
      name, [](const IndexSpec& spec, MatrixViewF data, ThreadPool* pool) {
        IndexSpec s = spec;
        s.kind = IndexKind::kStaticF32;
        return Build(s, data, pool);
      }));
  const auto names = RegisteredIndexNames();
  EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
  const Fixture& f = SharedFixture();
  auto idx = BuildNamed(name, SpecFor(IndexKind::kStaticLvq, f), f.data.base);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value().kind(), IndexKind::kStaticF32);
}

}  // namespace
}  // namespace blink
