// sharded_scale — the sharded index's two claims (ISSUE 3):
//
//   1. Build-time speedup: S independent Vamana builds of n/S points are
//      cheaper than one build of n (per-insert search cost grows with
//      graph size) and run concurrently on the pool, so S=4 build
//      wall-clock must be measurably below S=1.
//   2. QPS/recall Pareto: the partition-then-probe trade at S in {1, 4, 8}
//      swept over (window, nprobe_shards) — probing fewer shards buys QPS,
//      merged windows buy recall.
//
// Scales with BLINK_SCALE like every bench.
#include "common.h"

namespace blinkbench {
namespace {

constexpr size_t kK = 10;

void Run() {
  Banner("sharded_scale",
         "sharded build speedup + QPS/recall Pareto at S in {1,4,8}");
  const size_t n = ScaledN(100000, 8000);
  const size_t nq = ScaledN(1000, 200);
  ThreadPool pool(NumThreads());
  Dataset data = MakeDeepLike(n, nq, /*seed=*/1234);
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, kK, data.metric, &pool);
  const VamanaBuildParams bp = GraphParams(32, data.metric);

  double s1_build = 0.0;
  std::printf("%-4s %-10s %-9s %-10s\n", "S", "build_s", "speedup", "MiB");
  std::vector<std::unique_ptr<ShardedIndex>> indices;
  ShardedBuildParams sp;
  sp.graph = bp;
  sp.bits1 = 8;
  ShardedBuilder builder(sp);
  for (size_t S : {1u, 4u, 8u}) {
    builder.params().partition.num_shards = S;
    auto idx = builder.Build(data.base, data.metric, &pool);
    const double secs = idx->build_seconds();
    if (S == 1) s1_build = secs;
    std::printf("%-4zu %-10.2f %-9.2f %-10.1f\n", S, secs,
                s1_build > 0.0 ? s1_build / secs : 1.0,
                Mib(idx->memory_bytes()));
    indices.push_back(std::move(idx));
  }
  std::printf("\n");

  HarnessOptions opts;
  opts.k = kK;
  opts.best_of = 3;
  opts.pool = &pool;
  for (const auto& idx : indices) {
    const size_t S = idx->num_shards();
    std::vector<uint32_t> nprobes;
    for (uint32_t p : {1u, 2u, 4u, 8u}) {
      if (p <= S && (nprobes.empty() || nprobes.back() != p)) nprobes.push_back(p);
    }
    for (uint32_t nprobe : nprobes) {
      std::vector<SearchOptions> settings =
          WindowSweep({10, 14, 20, 28, 40, 56, 80, 112});
      for (SearchOptions& p : settings) p.nprobe_shards = nprobe;
      auto pts = RunSweep(*idx, data.queries, gt, settings, opts);
      char label[64];
      std::snprintf(label, sizeof(label), "S=%zu nprobe=%u", S, nprobe);
      PrintCurve(label, pts);
    }
  }
}

}  // namespace
}  // namespace blinkbench

int main() {
  blinkbench::Run();
  return 0;
}
