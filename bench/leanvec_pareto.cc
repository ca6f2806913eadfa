// LeanVec pareto (DESIGN.md D14): QPS/recall on a d=768 DPR-like embedding
// workload, LeanVec (projected primary + full-dimension re-rank through the
// Reranker seam) against the paper's static two-level LVQ-4x8. High
// dimensionality is where searching a learned d' = d/4 projection pays:
// the acceptance bar is >= 2x batch QPS at iso-recall@10 >= 0.95.
//
// Prints one QPS/recall curve per flavor plus the QPS-at-0.95 ratio table;
// exits non-zero when LeanVec misses the 2x bar at full scale (CI smoke
// runs at BLINK_SCALE=0.1, where the bar is reported but not enforced —
// tiny datasets under-reward projection width).
#include <algorithm>
#include <cstdlib>

#include "common.h"

using namespace blinkbench;

namespace {

struct FlavorRun {
  std::string name;
  std::vector<SweepPoint> curve;
  double qps_at_target = 0.0;
};

FlavorRun RunFlavor(const char* kind_name, const Dataset& data,
                    const Matrix<uint32_t>& gt, double target_recall,
                    ThreadPool* pool) {
  IndexSpec spec;
  auto kind = ParseIndexKind(kind_name);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    std::exit(1);
  }
  spec.kind = kind.value();
  spec.metric = data.metric;
  spec.bits1 = 4;
  spec.bits2 = 8;
  spec.graph = GraphParams(32, data.metric);

  Timer t;
  Result<Index> index = Build(spec, data.base, pool);
  if (!index.ok()) {
    std::fprintf(stderr, "%s: %s\n", kind_name,
                 index.status().ToString().c_str());
    std::exit(1);
  }
  std::printf("built %-24s in %6.1fs  (%7.1f MiB, primary dim %zu)\n",
              index.value().name().c_str(), t.Seconds(),
              Mib(index.value().memory_bytes()),
              index.value().spec().leanvec_dim > 0
                  ? index.value().spec().leanvec_dim
                  : index.value().dim());

  HarnessOptions hopts;
  hopts.best_of = 3;
  hopts.pool = pool;
  FlavorRun run;
  run.name = index.value().name();
  run.curve = RunSweep(index.value().AsSearchIndex(), data.queries, gt,
                       DefaultWindowSweep(), hopts);
  const SweepPoint* at = PointAtRecall(run.curve, target_recall);
  run.qps_at_target = at != nullptr ? at->qps : 0.0;
  return run;
}

}  // namespace

int main() {
  Banner("LEANVEC-PARETO",
         "LeanVec vs OG-LVQ-4x8 on d=768 (QPS at 0.95 10-recall@10)");
  const double scale = BenchScale();
  const size_t n = std::max<size_t>(2000, static_cast<size_t>(20000 * scale));
  const size_t nq = std::max<size_t>(100, static_cast<size_t>(1000 * scale));
  const double target = 0.95;

  ThreadPool pool(NumThreads());
  Dataset data = MakeDprLike(n, nq, /*seed=*/77);
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, 10, data.metric, &pool);
  std::printf("%s: n=%zu nq=%zu d=%zu metric=%s\n\n", data.name.c_str(), n,
              nq, data.base.cols(), MetricName(data.metric));

  const FlavorRun lvq = RunFlavor("static-lvq", data, gt, target, &pool);
  const FlavorRun lv = RunFlavor("static-leanvec", data, gt, target, &pool);
  const FlavorRun lvl =
      RunFlavor("static-leanvec-lvq", data, gt, target, &pool);
  std::printf("\n");
  PrintCurve(lvq.name, lvq.curve);
  PrintCurve(lv.name, lv.curve);
  PrintCurve(lvl.name, lvl.curve);

  std::printf("=== QPS at %.2f 10-recall@10 ===\n", target);
  std::printf("%-28s %10s %8s\n", "flavor", "QPS", "vs LVQ");
  auto row = [&](const FlavorRun& r) {
    std::printf("%-28s %10.0f %7.2fx\n", r.name.c_str(), r.qps_at_target,
                lvq.qps_at_target > 0 ? r.qps_at_target / lvq.qps_at_target
                                      : 0.0);
  };
  row(lvq);
  row(lv);
  row(lvl);

  const double best =
      std::max(lv.qps_at_target, lvl.qps_at_target);
  const double ratio =
      lvq.qps_at_target > 0 ? best / lvq.qps_at_target : 0.0;
  const bool pass = ratio >= 2.0;
  std::printf("\nbest LeanVec speedup at iso-recall: %.2fx (bar: 2.00x) — %s\n",
              ratio, pass ? "PASS" : "FAIL");
  // Only full scale enforces the bar: sub-scale runs (CI smoke) keep the
  // report informational so a 0.1-scale dataset can't fail the pipeline.
  return pass || scale < 1.0 ? 0 : 1;
}
