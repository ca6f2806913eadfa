// Quickstart: build an OG-LVQ index and search it.
//
//   1. Get your vectors into a row-major float matrix.
//   2. Describe the index in an IndexSpec: a kind, a metric and an LVQ
//      setting (LVQ-8 is the sweet spot for d <= ~200; LVQ-4x8 for very
//      high dimensionality).
//   3. Build it, then query the Index handle with SearchBatch.
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

  // An OG-LVQ index: LVQ-8 compression, graph out-degree R = 32.
  IndexSpec spec;
  spec.kind = IndexKind::kStaticLvq;
  spec.metric = data.metric;
  spec.bits1 = 8;
  spec.bits2 = 0;
  spec.graph.graph_max_degree = 32;
  spec.graph.window_size = 64;
  spec.graph.alpha = 1.2f;
  Timer build_timer;
  Result<Index> built = Build(spec, data.base);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const Index& index = built.value();
  std::printf("built %s in %.2fs  (%.1f MiB)\n", index.name().c_str(),
              build_timer.Seconds(), index.memory_bytes() / 1048576.0);

  // Search: W (the window) trades accuracy for speed.
  const size_t k = 10;
  SearchOptions params;
  params.window = 32;
  Matrix<uint32_t> ids(data.queries.rows(), k);
  Timer t;
  index.SearchBatch(data.queries, k, params, ids.data());
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
