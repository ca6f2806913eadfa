// Figure 1 / Figure 21(a): throughput vs memory footprint at 0.9
// 10-recall@10 for the deep-96 family.
//
// Graph methods appear at R = {32, 64, 128} (HNSW at M = R/2); the
// partition methods (IVFPQ+refine, ScaNN-like) have an essentially flat
// footprint across their runtime parameters. The paper's headline: the
// low-memory OG-LVQ configuration (LVQ-8, R = 32) beats everything with a
// fraction of the memory, and OG-LVQ at R = 128 is the throughput leader.
#include "common.h"

using namespace blinkbench;

namespace {

struct Row {
  std::string name;
  double mib;
  double qps_at_09;
  double best_recall;
};

Row Eval(const SearchIndex& idx, const Dataset& data,
         const Matrix<uint32_t>& gt, const std::vector<SearchOptions>& sweep) {
  HarnessOptions opts;
  opts.best_of = 3;
  auto pts = RunSweep(idx, data.queries, gt, sweep, opts);
  double best_recall = 0.0;
  for (const auto& p : pts) best_recall = std::max(best_recall, p.recall);
  const SweepPoint* at = PointAtRecall(pts, 0.9);
  return {idx.name(), Mib(idx.memory_bytes()), at != nullptr ? at->qps : 0.0,
          best_recall};
}

}  // namespace

int main() {
  Banner("Figure 1 / 21(a)", "QPS vs memory footprint @ 0.9 recall, deep-96");
  const size_t n = ScaledN(12000), nq = 400, k = 10;
  Dataset data = MakeDeepLike(n, nq);
  Matrix<uint32_t> gt = ComputeGroundTruth(data.base, data.queries, k, data.metric);

  std::vector<Row> rows;
  const auto graph_sweep = DefaultWindowSweep();

  for (uint32_t R : {32u, 64u, 128u}) {
    auto og = BuildOgLvq(data.base, data.metric, 8, 0, GraphParams(R, data.metric));
    rows.push_back(Eval(*og, data, gt, graph_sweep));
    auto vam = BuildVamanaF32(data.base, data.metric, GraphParams(R, data.metric));
    rows.push_back(Eval(*vam, data, gt, graph_sweep));
    HnswParams hp;
    hp.M = R / 2;
    hp.ef_construction = 120;
    HnswIndex hnsw(data.base, data.metric, hp);
    rows.push_back(Eval(hnsw, data, gt, graph_sweep));
  }
  {
    IvfPqParams ip;
    ip.nlist = std::max<size_t>(64, n / 256);
    ip.pq.num_segments = 48;
    IvfPqIndex ivf(data.base, data.metric, ip);
    rows.push_back(Eval(ivf, data, gt,
                        ProbeSweep({1, 4, 8, 16, 32, 64}, {0, 10, 100, 500})));
  }
  {
    ScannParams sp;
    ScannIndex scann(data.base, data.metric, sp);
    rows.push_back(
        Eval(scann, data, gt,
             ProbeSweep({2, 4, 8, 16, 32, 64, 128}, {20, 100, 500})));
  }

  std::printf("%-24s %12s %14s %12s\n", "method", "memory(MiB)", "QPS@0.9rec",
              "best recall");
  for (const Row& r : rows) {
    std::printf("%-24s %12.1f %14.0f %12.4f\n", r.name.c_str(), r.mib,
                r.qps_at_09, r.best_recall);
  }
  std::printf("\nPaper (deep-96-1B): OG-LVQ8/R32 beats Vamana, HNSWlib,\n"
              "IVFPQfs, ScaNN by 2.3x/2.2x/20.7x/43.6x QPS with 3.0/3.3/1.7/\n"
              "1.8x less memory; OG-LVQ8/R128 is the overall QPS leader.\n");
  return 0;
}
