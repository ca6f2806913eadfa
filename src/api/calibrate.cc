#include "api/calibrate.h"

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "eval/harness.h"

namespace blink {

namespace {

// Measures one configuration over the whole sample, once (MeasureSetting,
// best of 1). Recall is deterministic (SearchBatch partitions by query, so
// thread count never changes results); QPS is a single wall-clock reading,
// indicative only.
class Measurer {
 public:
  Measurer(const Index& index, const CalibrationTarget& target)
      : index_(index), target_(target) {}

  const CalibrationPoint& Measure(const SearchOptions& options) {
    // The probe sequence revisits configurations (the bisection endpoints,
    // the full-window fallback); one batch search each is enough.
    const Key key = KeyOf(options);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;

    const SweepPoint measured = MeasureSetting(
        index_.AsSearchIndex(), target_.sample_queries, target_.groundtruth,
        target_.k, options, {.best_of = 1, .pool = target_.pool});
    CalibrationPoint point;
    point.options = options;
    point.recall = measured.recall;
    point.dists_per_query = measured.dists_per_query;
    point.qps = measured.qps;
    trace_.push_back(point);
    return cache_.emplace(key, point).first->second;
  }

  bool Meets(const SearchOptions& options) {
    return Measure(options).recall >= target_.target_recall;
  }

  std::vector<CalibrationPoint>& trace() { return trace_; }

 private:
  // The three knobs calibration moves; everything else is pinned to the
  // seed, so it cannot differentiate cache entries.
  using Key = std::tuple<uint32_t, uint32_t, uint32_t>;
  static Key KeyOf(const SearchOptions& o) {
    return {o.window, o.nprobe_shards, o.rerank_window};
  }

  const Index& index_;
  const CalibrationTarget& target_;
  std::map<Key, CalibrationPoint> cache_;
  std::vector<CalibrationPoint> trace_;
};

}  // namespace

Result<CalibrationReport> CalibrateIndex(const Index& index,
                                         const CalibrationTarget& target) {
  if (!index) return Status::InvalidArgument("Calibrate on an empty Index");
  const Capabilities caps = index.capabilities();
  if ((caps & kCapSearch) == 0) {
    return Status::Unsupported("index cannot search");
  }
  if (!(target.target_recall > 0.0) || target.target_recall > 1.0) {
    return Status::InvalidArgument("target_recall must be in (0, 1], got " +
                                   std::to_string(target.target_recall));
  }
  if (target.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (target.sample_queries.rows == 0) {
    return Status::InvalidArgument("sample_queries is empty");
  }
  if (target.sample_queries.cols != index.dim()) {
    return Status::InvalidArgument(
        "sample dim " + std::to_string(target.sample_queries.cols) +
        " != index dim " + std::to_string(index.dim()));
  }
  if (target.groundtruth == nullptr) {
    return Status::InvalidArgument("groundtruth is required");
  }
  if (target.groundtruth->rows() != target.sample_queries.rows) {
    return Status::InvalidArgument("groundtruth rows != sample rows");
  }
  if (target.groundtruth->cols() < target.k) {
    return Status::InvalidArgument("groundtruth has fewer than k columns");
  }

  // Only graph kinds answer to `window`; WrapSearchIndex()ed baselines are
  // accepted too (hnsw maps window to ef_search; the flat scans simply
  // plateau, and the plateau either meets the target at window = k or is
  // reported unreachable). The other knobs are tuned exactly where the
  // capabilities declare them.
  const bool tune_shards = (caps & kCapShardProbe) != 0;
  const bool tune_rerank = (caps & kCapRerank) != 0;

  const uint32_t k32 = static_cast<uint32_t>(target.k);
  const uint32_t max_window = std::max(target.max_window, k32);

  // Knobs this calibration owns start from their most-accurate setting so
  // the window phase measures the recall ceiling: probe all shards, re-rank
  // the full window.
  SearchOptions base = target.seed;
  if (tune_shards) base.nprobe_shards = 0;
  if (tune_rerank) {
    base.rerank = true;
    base.rerank_window = 0;
  }
  Status valid = base.Validate();
  if (!valid.ok()) return valid;

  Measurer measure(index, target);

  // Phase 1 — window. Exponential growth k, 2k, 4k, ... until the target is
  // met, then bisect down to the smallest window that still meets it.
  SearchOptions probe = base;
  probe.window = k32;
  // Windows below k are clamped to k by every search path, so k-1 is the
  // bisection floor — probing below it would re-measure the same config.
  uint32_t lo = k32 - 1;  // largest window treated as below target
  uint32_t hi = 0;        // smallest window known to meet it
  while (true) {
    if (measure.Meets(probe)) {
      hi = probe.window;
      break;
    }
    lo = probe.window;
    if (probe.window >= max_window) break;
    probe.window = std::min(max_window, probe.window * 2);
  }
  if (hi == 0) {
    double best = 0.0;
    for (const auto& p : measure.trace()) best = std::max(best, p.recall);
    return Status::OutOfRange(
        "target_recall " + std::to_string(target.target_recall) +
        " unreachable at max_window " + std::to_string(max_window) +
        " (best measured recall " + std::to_string(best) + ")");
  }
  while (hi - lo > 1) {
    probe.window = lo + (hi - lo) / 2;
    if (measure.Meets(probe)) {
      hi = probe.window;
    } else {
      lo = probe.window;
    }
  }
  SearchOptions best = base;
  best.window = hi;

  // Phase 2 — shard probes, cheapest first. nprobe_shards = 0 (all shards)
  // is what phase 1 measured, so it is the guaranteed fallback.
  if (tune_shards) {
    const size_t num_shards = index.spec().partition.num_shards;
    for (uint32_t np = 1; np + 1 <= num_shards; ++np) {
      probe = best;
      probe.nprobe_shards = np;
      if (measure.Meets(probe)) {
        best.nprobe_shards = np;
        break;
      }
    }
  }

  // Phase 3 — re-rank depth, cheapest first: k, 2k, 4k, ... strictly below
  // the window. The full window (0) is what the earlier phases measured,
  // so it is the guaranteed fallback.
  if (tune_rerank) {
    for (uint32_t depth = k32; depth < best.window; depth *= 2) {
      probe = best;
      probe.rerank_window = depth;
      if (measure.Meets(probe)) {
        best.rerank_window = depth;
        break;
      }
    }
  }

  CalibrationReport report;
  report.options = best;
  report.achieved = measure.Measure(best);
  report.trace = std::move(measure.trace());
  return report;
}

}  // namespace blink
