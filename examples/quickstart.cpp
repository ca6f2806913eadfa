// Quickstart: build an OG-LVQ index and search it.
//
//   1. Get your vectors into a row-major float matrix.
//   2. Pick a metric and an LVQ setting (LVQ-8 is the sweet spot for
//      d <= ~200; LVQ-4x8 for very high dimensionality).
//   3. Build with BuildOgLvq and query with SearchBatch.
//
// Run:  ./build/examples/quickstart
#include <cstdio>

#include "blink.h"

int main() {
  using namespace blink;

  // A small cosine-similarity embedding workload (synthetic stand-in for
  // deep-96): 20k base vectors, 500 queries, d = 96, unit-normalized.
  Dataset data = MakeDeepLike(/*n=*/20000, /*nq=*/500);
  std::printf("dataset %s: n=%zu d=%zu metric=%s\n", data.name.c_str(),
              data.base.rows(), data.base.cols(), MetricName(data.metric));

  // Build an OG-LVQ index: LVQ-8 compression, graph out-degree R = 32.
  VamanaBuildParams bp;
  bp.graph_max_degree = 32;
  bp.window_size = 64;
  bp.alpha = 1.2f;
  auto index = BuildOgLvq(data.base, data.metric, /*bits1=*/8, /*bits2=*/0, bp);
  std::printf("built %s in %.2fs  (%.1f MiB: vectors %.1f + graph %.1f)\n",
              index->name().c_str(), index->build_seconds(),
              index->memory_bytes() / 1048576.0,
              index->storage().memory_bytes() / 1048576.0,
              index->graph().memory_bytes() / 1048576.0);

  // Search: W (the window) trades accuracy for speed.
  const size_t k = 10;
  RuntimeParams params;
  params.window = 32;
  Matrix<uint32_t> ids(data.queries.rows(), k);
  Timer t;
  SearchBatch(*index, data.queries, k, params, ids.data());
  const double qps = data.queries.rows() / t.Seconds();

  // Check accuracy against exact ground truth.
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, k, data.metric);
  std::printf("10-recall@10 = %.4f at %.0f QPS (single thread)\n",
              MeanRecallAtK(ids, gt, k), qps);

  // First query's neighbors:
  std::printf("query 0 nearest ids:");
  for (size_t j = 0; j < k; ++j) std::printf(" %u", ids(0, j));
  std::printf("\n");
  return 0;
}
