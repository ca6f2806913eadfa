// Figure 7(a): throughput vs the software-prefetch schedule
// (prefetch-offset, prefetch-step) for graph search.
//
// The paper's grid: offset_step in {0_0 (none), 0_1, 0_2, 0_4, 0_8, 0_64,
// 1_1, 1_2, 1_4, 1_8, 2_1, ..., 4_8}. The lookahead offset+step counts
// unvisited candidates of the hop, not row positions, so 0_64 (the
// default) has every candidate of an R <= 64 hop in flight before the
// first distance (DESIGN.md D16). At paper scale the dataset is far out of
// cache and prefetching yields up to 2x; at bench scale the effect shrinks
// with the working set (EXPERIMENTS.md discusses the delta).
#include "common.h"

using namespace blinkbench;

int main() {
  Banner("Figure 7(a)", "prefetch-offset/prefetch-step sweep");
  const size_t n = ScaledN(40000), nq = 500, k = 10;
  Dataset data = MakeDeepLike(n, nq);
  Matrix<uint32_t> gt = ComputeGroundTruth(data.base, data.queries, k, data.metric);
  auto idx = BuildOgLvq(data.base, data.metric, 8, 0,
                        GraphParams(32, data.metric));
  std::printf("index: %s, n=%zu, working set %.1f MiB\n\n",
              idx->name().c_str(), n, Mib(idx->memory_bytes()));

  const std::pair<uint32_t, uint32_t> grid[] = {
      {0, 0}, {0, 1}, {0, 2}, {0, 4}, {0, 8}, {0, 64}, {1, 1}, {1, 2},
      {1, 4}, {1, 8}, {2, 1}, {2, 2}, {2, 4}, {2, 8}, {4, 1}, {4, 2},
      {4, 4}, {4, 8}};
  std::printf("%-18s %-12s %-10s\n", "offset_step", "QPS", "recall");
  double baseline = 0.0;
  for (const auto& [off, step] : grid) {
    std::vector<SearchOptions> setting = WindowSweep({40});
    setting[0].prefetch_offset = off;
    setting[0].prefetch_step = step;
    HarnessOptions opts;
    opts.best_of = 5;
    auto pts = RunSweep(*idx, data.queries, gt, setting, opts);
    if (off == 0 && step == 0) baseline = pts[0].qps;
    std::printf("%u_%-16u %-12.0f %-10.4f  (%.2fx vs no-prefetch)\n", off, step,
                pts[0].qps, pts[0].recall, pts[0].qps / baseline);
  }
  std::printf("\nPaper: up to 2x over no-prefetch; step=1 schedules gain\n"
              "little; offset>0 or step>1 unlock the benefit.\n");
  return 0;
}
