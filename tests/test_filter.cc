// Filtered search subsystem (DESIGN.md D15): predicate grammar and
// semantics, the metadata column store (owned and mmap-backed), the BLMD
// sidecar round trip, filtered recall against brute-force-filtered ground
// truth across selectivities and flavors, strategy selection, the facade
// capability wiring, and the dynamic upsert-vs-search concurrency contract
// (TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
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
    return MatchesPredicate(s, p.value(), id);
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
}

TEST(MatchesPredicate, TrivialPredicateMatchesEverything) {
  MetadataStore s(2, {});
  Predicate p;
  EXPECT_TRUE(p.Trivial());
  EXPECT_TRUE(MatchesPredicate(s, p, 0));
  EXPECT_TRUE(MatchesPredicate(s, p, 1));
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

TEST(ResolveFilterStrategyTest, CrossoverAndExplicitChoices) {
  MetadataStore s = MakeSyntheticMetadata(4096, {ColumnType::kF64}, 7);
  auto sparse = Predicate::Parse("num0<0.01");
  auto dense = Predicate::Parse("num0<0.5");
  ASSERT_TRUE(sparse.ok() && dense.ok());
  EXPECT_EQ(ResolveFilterStrategy(s, sparse.value(), FilterStrategy::kAuto),
            FilterStrategy::kInSearch);
  EXPECT_EQ(ResolveFilterStrategy(s, dense.value(), FilterStrategy::kAuto),
            FilterStrategy::kPostFilter);
  // Explicit requests are echoed regardless of selectivity.
  EXPECT_EQ(
      ResolveFilterStrategy(s, sparse.value(), FilterStrategy::kPostFilter),
      FilterStrategy::kPostFilter);
  EXPECT_EQ(ResolveFilterStrategy(s, dense.value(), FilterStrategy::kInSearch),
            FilterStrategy::kInSearch);
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
  EXPECT_TRUE(a.plan().push_down);
  EXPECT_EQ(b.plan().push_down, a.plan().push_down);
  EXPECT_EQ(b.plan().window0, a.plan().window0);
  EXPECT_NEAR(b.plan().selectivity, a.plan().selectivity, 1e-12);
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

}  // namespace
}  // namespace blink
