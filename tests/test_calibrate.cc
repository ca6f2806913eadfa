// Index::Calibrate (ISSUE 6 tentpole): deterministic knob search over
// SearchOptions. Everything here runs on the fixed-seed recall-floor
// dataset (n=3000, 150 queries, seed 77), so "meets the target" is a
// regression bar, not a flake: the same build + the same sample measure
// the same recall every run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "api/calibrate.h"
#include "api/index.h"
#include "simd/distance.h"
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

TEST(Calibrate, KnobWithoutCapabilityIsNotTuned) {
  const Fixture& f = SharedFixture();
  // Unsharded full-precision storage has no shards to probe and no second
  // level to re-rank with: neither knob moves, and calibration succeeds.
  IndexSpec spec = SpecFor(IndexKind::kStaticF32, f);
  Result<Index> f32 = Build(spec, f.data.base);
  ASSERT_TRUE(f32.ok());
  Result<SearchOptions> r3 = f32.value().Calibrate(TargetFor(f, 0.9));
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r3.value().nprobe_shards, 0u);
  EXPECT_EQ(r3.value().rerank_window, 0u);
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

// --- pinned calibration ---------------------------------------------------

/// The calibrated options and every trace step in probe order: the
/// options, the recall bits and the dists_per_query bits. QPS is timing,
/// so it is left out.
std::string TraceText(const CalibrationReport& report) {
  std::string out;
  char line[160];
  auto add_options = [&](const SearchOptions& o) {
    std::snprintf(line, sizeof(line), "w%u s%u r%d rw%u np%u rk%u", o.window,
                  o.nprobe_shards, o.rerank ? 1 : 0, o.rerank_window,
                  o.nprobe, o.reorder_k);
    out += line;
  };
  add_options(report.options);
  out += "\n";
  for (const CalibrationPoint& p : report.trace) {
    uint64_t recall = 0, dists = 0;
    std::memcpy(&recall, &p.recall, sizeof(recall));
    std::memcpy(&dists, &p.dists_per_query, sizeof(dists));
    add_options(p.options);
    std::snprintf(line, sizeof(line), " %016llx %016llx\n",
                  static_cast<unsigned long long>(recall),
                  static_cast<unsigned long long>(dists));
    out += line;
  }
  return out;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// What Calibrate picks and measures on every facade kind: a rewrite of the
// measurement under Calibrate must probe the same configurations in the
// same order and measure the same recall and work. On this fixture the
// words agree under every SIMD backend (BLINK_SIMD=scalar|avx2|avx512).
TEST(Calibrate, OptionsAndTraceArePinned) {
  const Fixture& f = SharedFixture();
  struct Pin {
    IndexKind kind;
    uint64_t word;
  };
  for (const Pin& pin : {
           Pin{IndexKind::kStaticF32, 0xe2a82b4798d56deb},
           Pin{IndexKind::kStaticF16, 0x289b7ac4462d5422},
           Pin{IndexKind::kStaticLvq, 0x4fce4f36569a921f},
           Pin{IndexKind::kSharded, 0x17f6f7aebaeffc37},
           Pin{IndexKind::kDynamicF32, 0x2e04d1b42bad1797},
           Pin{IndexKind::kDynamicLvq, 0xa543cc8996ff3ac1},
           Pin{IndexKind::kStaticLeanVec, 0x90f0dafbc9e2cb5b},
           Pin{IndexKind::kStaticLeanVecLvq, 0x032a59f94967fee7},
       }) {
    Result<CalibrationReport> report =
        CalibrateIndex(BuiltIndex(pin.kind), TargetFor(f, 0.95));
    ASSERT_TRUE(report.ok()) << KindName(pin.kind) << ": "
                             << report.status().ToString();
    const std::string text = TraceText(report.value());
    EXPECT_EQ(Fnv1a(text), pin.word)
        << KindName(pin.kind) << " (" << simd::BackendName() << "): 0x"
        << std::hex << Fnv1a(text) << "\n"
        << text;
  }
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
