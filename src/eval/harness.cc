#include "eval/harness.h"

#include <algorithm>
#include <cstdio>

#include "eval/metrics.h"
#include "util/stats.h"
#include "util/timer.h"

namespace blink {

SweepPoint MeasureSetting(const SearchIndex& index, MatrixViewF queries,
                          const Matrix<uint32_t>* truth, size_t k,
                          const SearchOptions& options,
                          const MeasureProtocol& protocol,
                          Matrix<uint32_t>* ids) {
  const size_t nq = queries.rows;
  Matrix<uint32_t> own;
  Matrix<uint32_t>& out = ids != nullptr ? *ids : own;
  if (out.rows() != nq || out.cols() != k) out = Matrix<uint32_t>(nq, k);
  // Batch-of-1 protocol: the latency path, one query at a time through
  // one warm searcher, no batch parallelism.
  std::unique_ptr<Searcher> searcher =
      protocol.single_query ? index.MakeSearcher() : nullptr;
  std::vector<double> micros(protocol.single_query ? nq : 0);
  std::vector<double> best_micros;
  BatchStats stats;
  double best_seconds = -1.0;
  for (int r = 0; r < std::max(1, protocol.best_of); ++r) {
    stats = BatchStats{};
    Timer t;
    if (searcher != nullptr) {
      double prev = 0.0;
      for (size_t qi = 0; qi < nq; ++qi) {
        searcher->Search(queries.row(qi), k, options, out.row(qi), nullptr,
                         &stats);
        const double now = t.Seconds();
        micros[qi] = (now - prev) * 1e6;
        prev = now;
      }
    } else {
      SearchBatch(index, queries, k, options, out.data(), nullptr, &stats,
                  protocol.pool);
    }
    const double s = t.Seconds();
    if (best_seconds < 0.0 || s < best_seconds) {
      best_seconds = s;
      best_micros = micros;
    }
  }
  SweepPoint pt;
  pt.params = options;
  if (truth != nullptr) pt.recall = MeanRecallAtK(out, *truth, k);
  if (nq > 0) {
    const double n = static_cast<double>(nq);
    pt.qps = best_seconds > 0.0 ? n / best_seconds : 0.0;
    pt.mean_latency_us = best_seconds * 1e6 / n;
    pt.dists_per_query = static_cast<double>(stats.distance_computations) / n;
    pt.hops_per_query = static_cast<double>(stats.hops) / n;
  }
  if (!best_micros.empty()) {
    pt.p50_us = Percentile(best_micros, 50.0);
    pt.p99_us = Percentile(best_micros, 99.0);
  }
  return pt;
}

std::vector<SweepPoint> RunSweep(const SearchIndex& index, MatrixViewF queries,
                                 const Matrix<uint32_t>& ground_truth,
                                 std::span<const SearchOptions> settings,
                                 const HarnessOptions& opts) {
  std::vector<SweepPoint> points;
  points.reserve(settings.size());
  for (const SearchOptions& params : settings) {
    points.push_back(
        MeasureSetting(index, queries, &ground_truth, opts.k, params, opts));
  }
  return points;
}

const SweepPoint* PointAtRecall(std::span<const SweepPoint> points,
                                double target_recall) {
  const SweepPoint* best = nullptr;
  for (const SweepPoint& p : points) {
    if (p.recall >= target_recall && (best == nullptr || p.qps > best->qps)) {
      best = &p;
    }
  }
  return best;
}

std::vector<SearchOptions> WindowSweep(std::initializer_list<uint32_t> windows) {
  return WindowSweep(std::vector<uint32_t>(windows));
}

std::vector<SearchOptions> WindowSweep(const std::vector<uint32_t>& windows) {
  std::vector<SearchOptions> out;
  out.reserve(windows.size());
  for (uint32_t w : windows) {
    SearchOptions p;
    p.window = w;
    out.push_back(p);
  }
  return out;
}

std::vector<SearchOptions> ProbeSweep(const std::vector<uint32_t>& nprobes,
                                      const std::vector<uint32_t>& reorder_ks) {
  std::vector<SearchOptions> out;
  out.reserve(nprobes.size() * reorder_ks.size());
  for (uint32_t np : nprobes) {
    for (uint32_t rk : reorder_ks) {
      SearchOptions p;
      p.nprobe = np;
      p.reorder_k = rk;
      out.push_back(p);
    }
  }
  return out;
}

void PrintSweep(const std::string& label, std::span<const SweepPoint> points) {
  std::printf("# %s\n", label.c_str());
  std::printf("%-10s %-12s %-12s\n", "recall", "QPS", "latency_us");
  for (const SweepPoint& p : points) {
    std::printf("%-10.4f %-12.1f %-12.2f\n", p.recall, p.qps, p.mean_latency_us);
  }
}

}  // namespace blink
