// Index::Calibrate (ISSUE 6 tentpole): deterministic knob search over
// SearchOptions. Everything here runs on the fixed-seed recall-floor
// dataset (n=3000, 150 queries, seed 77), so "meets the target" is a
// regression bar, not a flake: the same build + the same sample measure
// the same recall every run.
#include <gtest/gtest.h>

#include <map>

#include "api/calibrate.h"
#include "api/index.h"
#include "testutil.h"

namespace blink {
namespace {

using testutil::Fixture;

const Fixture& SharedFixture() {
  static const Fixture* f = new Fixture(MakeDeepLike(3000, 150, 77));
  return *f;
}

IndexSpec SpecFor(IndexKind kind, const Fixture& f) {
  IndexSpec spec;
  spec.kind = kind;
  spec.metric = f.data.metric;
  spec.bits1 = 4;
  spec.bits2 = 8;
  spec.graph = f.bp;
  spec.partition.num_shards = 4;
  spec.dynamic.initial_capacity = f.data.base.rows();
  return spec;
}

const Index& BuiltIndex(IndexKind kind) {
  // One build per flavor per test binary; Calibrate is read-only.
  static auto* cache = new std::map<IndexKind, Index>();
  auto it = cache->find(kind);
  if (it == cache->end()) {
    const Fixture& f = SharedFixture();
    Result<Index> built = Build(SpecFor(kind, f), f.data.base);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    it = cache->emplace(kind, std::move(built).value()).first;
  }
  return it->second;
}

CalibrationTarget TargetFor(const Fixture& f, double recall) {
  CalibrationTarget t;
  t.target_recall = recall;
  t.sample_queries = f.data.queries;
  t.groundtruth = &f.gt;
  t.k = f.k;
  return t;
}

double RecallWith(const Index& index, const Fixture& f,
                  const SearchOptions& options) {
  Matrix<uint32_t> ids(f.data.queries.rows(), f.k);
  index.SearchBatch(f.data.queries, f.k, options, ids.data());
  return MeanRecallAtK(ids, f.gt, f.k);
}

// --- the options meet the target -----------------------------------------

class CalibrateMeetsTarget : public ::testing::TestWithParam<IndexKind> {};

TEST_P(CalibrateMeetsTarget, OptionsMeetTargetRecall) {
  const Fixture& f = SharedFixture();
  const Index& index = BuiltIndex(GetParam());
  Result<SearchOptions> options =
      index.Calibrate(TargetFor(f, 0.95));
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  // The 0.01 slack covers FP drift across SIMD backends, nothing else:
  // on the calibration sample itself the options measured >= 0.95.
  EXPECT_GE(RecallWith(index, f, options.value()), 0.95 - 0.01)
      << KindName(GetParam());
  EXPECT_TRUE(options.value().Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Flavors, CalibrateMeetsTarget,
                         ::testing::Values(IndexKind::kStaticLvq,
                                           IndexKind::kSharded,
                                           IndexKind::kDynamicLvq),
                         [](const auto& info) {
                           std::string name = KindName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- determinism ----------------------------------------------------------

TEST(Calibrate, DeterministicAcrossRunsAndThreads) {
  const Fixture& f = SharedFixture();
  const Index& index = BuiltIndex(IndexKind::kStaticLvq);
  Result<SearchOptions> a = index.Calibrate(TargetFor(f, 0.95));
  Result<SearchOptions> b = index.Calibrate(TargetFor(f, 0.95));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().window, b.value().window);
  EXPECT_EQ(a.value().nprobe_shards, b.value().nprobe_shards);
  EXPECT_EQ(a.value().rerank_window, b.value().rerank_window);

  // Batch parallelism partitions by query and never changes results, so a
  // pooled calibration lands on the same options.
  ThreadPool pool(4);
  CalibrationTarget with_pool = TargetFor(f, 0.95);
  with_pool.pool = &pool;
  Result<SearchOptions> c = index.Calibrate(with_pool);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a.value().window, c.value().window);
  EXPECT_EQ(a.value().nprobe_shards, c.value().nprobe_shards);
  EXPECT_EQ(a.value().rerank_window, c.value().rerank_window);
}

// --- window behavior ------------------------------------------------------

TEST(Calibrate, WindowGrowsWithTargetRecall) {
  const Fixture& f = SharedFixture();
  const Index& index = BuiltIndex(IndexKind::kStaticLvq);
  uint32_t last_window = 0;
  for (double target : {0.80, 0.90, 0.97}) {
    Result<SearchOptions> options = index.Calibrate(TargetFor(f, target));
    ASSERT_TRUE(options.ok()) << "target " << target;
    EXPECT_GE(options.value().window, last_window) << "target " << target;
    EXPECT_GE(options.value().window, f.k);
    last_window = options.value().window;
  }
}

TEST(Calibrate, TraceGrowthPrefixIsMonotone) {
  const Fixture& f = SharedFixture();
  const Index& index = BuiltIndex(IndexKind::kStaticLvq);
  Result<CalibrationReport> report =
      CalibrateIndex(index, TargetFor(f, 0.95));
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report.value().trace.empty());
  // The exponential-growth prefix probes strictly increasing windows until
  // the first configuration that meets the target.
  uint32_t prev = 0;
  for (const CalibrationPoint& p : report.value().trace) {
    EXPECT_GT(p.options.window, prev);
    prev = p.options.window;
    if (p.recall >= 0.95) break;
  }
  // The winning configuration is the last word of the report.
  EXPECT_GE(report.value().achieved.recall, 0.95);
  EXPECT_EQ(report.value().achieved.options.window,
            report.value().options.window);
}

TEST(Calibrate, UnreachableTargetIsOutOfRange) {
  const Fixture& f = SharedFixture();
  // One-level LVQ-4 without re-ranking cannot hit perfect recall at
  // window == k; capping max_window there forces the unreachable branch.
  IndexSpec spec = SpecFor(IndexKind::kStaticLvq, f);
  spec.bits2 = 0;
  Result<Index> built = Build(spec, f.data.base);
  ASSERT_TRUE(built.ok());
  CalibrationTarget target = TargetFor(f, 1.0);
  target.max_window = static_cast<uint32_t>(f.k);
  Result<SearchOptions> options = built.value().Calibrate(target);
  ASSERT_FALSE(options.ok());
  EXPECT_EQ(options.status().code(), StatusCode::kOutOfRange);
}

// --- capability handling --------------------------------------------------

TEST(Calibrate, TuneOnWithoutCapabilityIsUnsupported) {
  const Fixture& f = SharedFixture();
  const Index& unsharded = BuiltIndex(IndexKind::kStaticLvq);
  CalibrationTarget shards = TargetFor(f, 0.9);
  shards.tune_shard_probes = TuneKnob::kOn;
  Result<SearchOptions> r1 = unsharded.Calibrate(shards);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kUnsupported);

  // Full-precision storage has no second level to re-rank with.
  IndexSpec spec = SpecFor(IndexKind::kStaticF32, f);
  Result<Index> f32 = Build(spec, f.data.base);
  ASSERT_TRUE(f32.ok());
  CalibrationTarget rerank = TargetFor(f, 0.9);
  rerank.tune_rerank = TuneKnob::kOn;
  Result<SearchOptions> r2 = f32.value().Calibrate(rerank);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kUnsupported);

  // kAuto on the same index degrades to "pinned" instead of erroring.
  Result<SearchOptions> r3 = f32.value().Calibrate(TargetFor(f, 0.9));
  EXPECT_TRUE(r3.ok()) << r3.status().ToString();
}

TEST(Calibrate, ShardProbeTuningStaysWithinShardCount) {
  const Fixture& f = SharedFixture();
  const Index& sharded = BuiltIndex(IndexKind::kSharded);
  Result<SearchOptions> options = sharded.Calibrate(TargetFor(f, 0.95));
  ASSERT_TRUE(options.ok());
  EXPECT_LT(options.value().nprobe_shards, 4u);  // 0 (= all) or a subset
}

// --- argument validation --------------------------------------------------

TEST(Calibrate, RejectsBadTargets) {
  const Fixture& f = SharedFixture();
  const Index& index = BuiltIndex(IndexKind::kStaticLvq);

  CalibrationTarget bad_recall = TargetFor(f, 1.5);
  EXPECT_EQ(index.Calibrate(bad_recall).status().code(),
            StatusCode::kInvalidArgument);

  CalibrationTarget no_gt = TargetFor(f, 0.9);
  no_gt.groundtruth = nullptr;
  EXPECT_EQ(index.Calibrate(no_gt).status().code(),
            StatusCode::kInvalidArgument);

  CalibrationTarget empty = TargetFor(f, 0.9);
  empty.sample_queries = MatrixViewF(nullptr, 0, f.data.queries.cols());
  EXPECT_EQ(index.Calibrate(empty).status().code(),
            StatusCode::kInvalidArgument);

  CalibrationTarget shallow_gt = TargetFor(f, 0.9);
  shallow_gt.k = f.gt.cols() + 1;
  EXPECT_EQ(index.Calibrate(shallow_gt).status().code(),
            StatusCode::kInvalidArgument);
}

// --- SearchOptions itself -------------------------------------------------

TEST(SearchOptionsTest, ValidateCatchesBadKnobs) {
  SearchOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.window = 0;
  EXPECT_FALSE(o.Validate().ok());
  o.window = 32;
  o.rerank_window = 33;
  EXPECT_FALSE(o.Validate().ok());
  o.rerank_window = 32;
  EXPECT_TRUE(o.Validate().ok());
  o.nprobe = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(SearchOptionsTest, ResolvedForNeutralizesMissingCapabilities) {
  SearchOptions o;
  o.window = 4;
  o.nprobe_shards = 3;
  o.rerank_window = 64;
  SearchOptions r = o.ResolvedFor(kCapSearch, /*k=*/10);
  EXPECT_EQ(r.window, 10u);          // clamped to k
  EXPECT_EQ(r.nprobe_shards, 0u);    // no kCapShardProbe
  EXPECT_FALSE(r.rerank);            // no kCapRerank
  EXPECT_EQ(r.rerank_window, 0u);

  SearchOptions full = o.ResolvedFor(
      kCapSearch | kCapShardProbe | kCapRerank, /*k=*/10);
  EXPECT_EQ(full.nprobe_shards, 3u);
  EXPECT_TRUE(full.rerank);
  EXPECT_EQ(full.rerank_window, 10u);  // clamped into [k, window]
}

}  // namespace
}  // namespace blink
