// Image-embedding search (the paper's deep-96 scenario): cosine similarity
// over unit-normalized CNN embeddings. Demonstrates the LVQ value
// proposition end to end — same graph, same recall target, compare
// float32 / float16 / LVQ-8 on throughput and memory.
//
// Run:  ./build/examples/image_search
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "blink.h"

namespace {

struct Row {
  const char* label;
  double qps;
  double recall;
  double mib;
};

}  // namespace

int main() {
  using namespace blink;

  const size_t n = 20000, nq = 500, k = 10;
  Dataset data = MakeDeepLike(n, nq);
  Matrix<uint32_t> gt = ComputeGroundTruth(data.base, data.queries, k, data.metric);

  // One spec per encoding; everything else (graph, metric) is shared.
  auto build = [&](IndexKind kind) {
    IndexSpec spec;
    spec.kind = kind;
    spec.metric = data.metric;
    spec.graph.graph_max_degree = 32;
    spec.graph.window_size = 64;
    spec.graph.alpha = 1.2f;
    Result<Index> built = Build(spec, data.base);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(built).value();
  };
  const Index f32 = build(IndexKind::kStaticF32);
  const Index f16 = build(IndexKind::kStaticF16);
  const Index lvq8 = build(IndexKind::kStaticLvq);  // LVQ-8 by default

  // Find each encoding's throughput at 0.9 recall by sweeping the window.
  const auto sweep = WindowSweep({10, 16, 24, 32, 48, 64, 96, 128});
  HarnessOptions opts;
  opts.k = k;
  opts.best_of = 3;

  auto eval = [&](const Index& idx) -> Row {
    auto pts = RunSweep(idx.AsSearchIndex(), data.queries, gt, sweep, opts);
    const SweepPoint* at = PointAtRecall(pts, 0.9);
    return {"", at != nullptr ? at->qps : 0.0, at != nullptr ? at->recall : 0.0,
            idx.memory_bytes() / 1048576.0};
  };

  Row rows[3] = {eval(f32), eval(f16), eval(lvq8)};
  rows[0].label = "float32";
  rows[1].label = "float16";
  rows[2].label = "LVQ-8";

  std::printf("image search, %s, n=%zu, target 10-recall@10 >= 0.9\n",
              data.name.c_str(), n);
  std::printf("%-10s %12s %10s %12s %8s\n", "encoding", "QPS", "recall",
              "memory(MiB)", "speedup");
  for (const Row& r : rows) {
    std::printf("%-10s %12.0f %10.4f %12.1f %7.2fx\n", r.label, r.qps,
                r.recall, r.mib, rows[0].qps > 0 ? r.qps / rows[0].qps : 0.0);
  }
  return 0;
}
