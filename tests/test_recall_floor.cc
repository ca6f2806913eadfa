// Recall-floor regression tests (ISSUE 3 satellite): pinned recall@10 on a
// fixed-seed synthetic dataset with explicit floors, so hot-path changes
// (kernels, search loop, merge) cannot silently degrade quality. The
// floors sit ~3 points under the measured values at the time of writing;
// a failure here means search quality regressed, not flakiness — every
// input is deterministic.
#include <gtest/gtest.h>

#include "shard/sharded_index.h"
#include "testutil.h"

namespace blink {
namespace {

using testutil::DeepFixture;
using testutil::Fixture;

// One shared fixture: n=3000 deep-like vectors, 150 queries, seed 77.
const Fixture& SharedFixture() {
  static const Fixture* f = new Fixture(MakeDeepLike(3000, 150, 77));
  return *f;
}

TEST(RecallFloor, VamanaLvq8AtWindow64) {
  const Fixture& f = SharedFixture();
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp);
  SearchOptions p;
  p.window = 64;
  const double recall = testutil::RecallOf(*idx, f, p);
  // Measured 0.993 (Release, avx512); the floor leaves ~4 points of
  // headroom for backend-to-backend FP drift, not for quality loss.
  EXPECT_GE(recall, 0.95) << "Vamana+LVQ-8 recall floor broken";
}

TEST(RecallFloor, VamanaLvq4x8RerankAtWindow64) {
  const Fixture& f = SharedFixture();
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 4, 8, f.bp);
  SearchOptions p;
  p.window = 64;
  const double recall = testutil::RecallOf(*idx, f, p);
  // Measured 1.000: the two-level rerank recovers the 4-bit level-1 loss.
  EXPECT_GE(recall, 0.95) << "LVQ-4x8 rerank recall floor broken";
}

TEST(RecallFloor, ShardedS4Nprobe2AtWindow64) {
  const Fixture& f = SharedFixture();
  ShardedBuildParams sp;
  sp.partition.num_shards = 4;
  sp.graph = f.bp;
  sp.bits1 = 8;
  auto idx = BuildShardedLvq(f.data.base, f.data.metric, sp);
  SearchOptions p;
  p.window = 64;
  p.nprobe_shards = 2;
  const double recall = testutil::RecallOf(*idx, f, p);
  // Measured 0.993: two merged per-shard windows cover the partition loss.
  EXPECT_GE(recall, 0.95) << "sharded S=4/nprobe=2 recall floor broken";
}

}  // namespace
}  // namespace blink
