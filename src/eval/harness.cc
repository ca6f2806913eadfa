#include "eval/harness.h"

#include <algorithm>
#include <cstdio>

#include "eval/metrics.h"
#include "util/timer.h"

namespace blink {

std::vector<SweepPoint> RunSweep(const SearchIndex& index, MatrixViewF queries,
                                 const Matrix<uint32_t>& ground_truth,
                                 std::span<const SearchOptions> settings,
                                 const HarnessOptions& opts) {
  std::vector<SweepPoint> points;
  points.reserve(settings.size());
  const size_t nq = queries.rows;
  Matrix<uint32_t> ids(nq, opts.k);

  for (const SearchOptions& params : settings) {
    SweepPoint pt;
    pt.params = params;
    double best_seconds = -1.0;
    const int runs = std::max(1, opts.best_of);
    // Batch-of-1 protocol: the latency path, one query at a time through
    // one warm searcher, no batch parallelism.
    std::unique_ptr<Searcher> searcher =
        opts.single_query ? index.MakeSearcher() : nullptr;
    for (int r = 0; r < runs; ++r) {
      Timer t;
      if (searcher != nullptr) {
        SearchRows(*searcher, queries, 0, nq, opts.k, params, ids.data(),
                   nullptr, nullptr);
      } else {
        SearchBatch(index, queries, opts.k, params, ids.data(), nullptr,
                    nullptr, opts.pool);
      }
      const double s = t.Seconds();
      if (best_seconds < 0.0 || s < best_seconds) best_seconds = s;
    }
    pt.recall = MeanRecallAtK(ids, ground_truth, opts.k);
    pt.qps = best_seconds > 0.0 ? static_cast<double>(nq) / best_seconds : 0.0;
    pt.mean_latency_us =
        nq > 0 ? best_seconds * 1e6 / static_cast<double>(nq) : 0.0;
    points.push_back(pt);
  }
  return points;
}

namespace {
/// Pareto frontier in (recall asc, qps desc): for interpolation we want the
/// best qps achievable at each recall level.
std::vector<SweepPoint> ParetoByRecall(std::span<const SweepPoint> points) {
  std::vector<SweepPoint> sorted(points.begin(), points.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const SweepPoint& a, const SweepPoint& b) {
              return a.recall < b.recall;
            });
  // Keep points not dominated by a higher-recall, higher-qps point.
  std::vector<SweepPoint> frontier;
  double best_qps_right = -1.0;
  for (size_t i = sorted.size(); i-- > 0;) {
    if (sorted[i].qps > best_qps_right) {
      frontier.push_back(sorted[i]);
      best_qps_right = sorted[i].qps;
    }
  }
  std::reverse(frontier.begin(), frontier.end());  // ascending recall
  return frontier;
}
}  // namespace

double QpsAtRecall(std::span<const SweepPoint> points, double target_recall) {
  const auto frontier = ParetoByRecall(points);
  if (frontier.empty()) return 0.0;
  // Best QPS among points meeting the target: on the frontier, recall
  // ascends while qps descends, so it is the first point >= target.
  for (const SweepPoint& p : frontier) {
    if (p.recall >= target_recall) {
      // Interpolate against the previous (faster, lower-recall) point for a
      // smoother estimate when one exists.
      return p.qps;
    }
  }
  return 0.0;
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
