// Passage retrieval (the paper's DPR-768 scenario): inner-product search
// over high-dimensional LLM embeddings, where two-level LVQ-4x8 shines —
// the level-1 4-bit codes slash bandwidth during traversal and the 8-bit
// residuals recover accuracy in the final re-ranking (paper Fig. 13,
// Table 4).
//
// Run:  ./build/examples/passage_retrieval
#include <cstdio>

#include "blink.h"

int main() {
  using namespace blink;

  const size_t n = 6000, nq = 200, k = 10;
  Dataset data = MakeDprLike(n, nq);
  Matrix<uint32_t> gt = ComputeGroundTruth(data.base, data.queries, k, data.metric);
  std::printf("passage retrieval, %s: n=%zu d=%zu metric=%s\n",
              data.name.c_str(), n, data.base.cols(), MetricName(data.metric));

  VamanaBuildParams bp;
  bp.graph_max_degree = 32;
  bp.window_size = 64;
  bp.alpha = 0.95f;  // the paper's alpha for inner-product datasets

  auto f32 = BuildVamanaF32(data.base, data.metric, bp);
  auto lvq48 = BuildOgLvq(data.base, data.metric, /*bits1=*/4, /*bits2=*/8, bp);

  std::printf("footprints: float32 %.1f MiB -> LVQ-4x8 %.1f MiB (vectors CR %.2fx)\n",
              f32->memory_bytes() / 1048576.0,
              lvq48->memory_bytes() / 1048576.0,
              lvq48->storage().dataset().compression_ratio());

  const auto sweep = WindowSweep({10, 16, 24, 32, 48, 64, 96});
  HarnessOptions opts;
  opts.k = k;
  opts.best_of = 3;

  auto pts_f32 = RunSweep(*f32, data.queries, gt, sweep, opts);
  auto pts_lvq = RunSweep(*lvq48, data.queries, gt, sweep, opts);
  PrintSweep(f32->name(), pts_f32);
  PrintSweep(lvq48->name(), pts_lvq);

  // The rerank ablation: the same two-level index searched without its
  // second level loses accuracy at identical traversal cost.
  std::vector<SearchOptions> one_point = WindowSweep({32});
  auto with_rr = RunSweep(*lvq48, data.queries, gt, one_point, opts);
  one_point[0].rerank = false;
  auto without_rr = RunSweep(*lvq48, data.queries, gt, one_point, opts);
  std::printf("rerank ablation at W=32: with=%.4f, without=%.4f recall\n",
              with_rr[0].recall, without_rr[0].recall);
  return 0;
}
