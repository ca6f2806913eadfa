// Self-calibrating runtime parameters (DESIGN.md D11): Index::Calibrate
// searches the SearchOptions space for the cheapest configuration meeting a
// recall target, so nobody hand-picks window / nprobe_shards / re-rank
// depth per dataset (the SVS/Faiss auto-tune workflow).
//
// The search is deterministic given the index and the sample:
//   1. Window: exponential growth from k until the target is met (recall
//      is monotone in the window up to FP noise), then binary search for
//      the smallest window that still meets it.
//   2. Shard probes (kCapShardProbe only): greedy ascent over
//      nprobe_shards = 1, 2, ... — the first (cheapest) probe count that
//      meets the target wins; all shards (0) is the fallback.
//   3. Re-rank depth (kCapRerank only): greedy doubling over
//      rerank_window = k, 2k, 4k, ... < window — the first (cheapest)
//      depth that meets the target wins; the full window (0) is the
//      fallback.
// Phases 2 and 3 run exactly where capabilities() declares the knob.
// Every probed configuration is measured once by MeasureSetting
// (eval/harness.h: recall against exact ground truth, distance
// computations per query, indicative QPS); the refinement directions all
// strictly reduce work, so "first that meets the target" is "cheapest that
// meets the target".
#pragma once

#include <vector>

#include "api/index.h"
#include "eval/interface.h"
#include "util/matrix.h"
#include "util/status.h"

namespace blink {

/// What to calibrate against. `sample_queries` should be held out from the
/// traffic the tuned options will serve (the CLI tools split their query
/// set); `groundtruth` holds the exact k nearest neighbors per sample row.
struct CalibrationTarget {
  double target_recall = 0.9;  ///< mean k-recall@k the options must meet
  MatrixViewF sample_queries;  ///< nq x dim held-out sample
  const Matrix<uint32_t>* groundtruth = nullptr;  ///< nq x >= k exact ids
  size_t k = 10;               ///< neighbors per query
  uint32_t max_window = 1024;  ///< give up above this window
  /// Starting values; knobs the calibration does not own (prefetch,
  /// visited set, IVF nprobe/reorder) pass through unchanged.
  SearchOptions seed;
  ThreadPool* pool = nullptr;  ///< batch parallelism during measurement
};

/// One measured configuration.
struct CalibrationPoint {
  SearchOptions options;
  double recall = 0.0;
  double dists_per_query = 0.0;  ///< from BatchStats (0 when untracked)
  double qps = 0.0;  ///< single measurement — indicative, not a benchmark
};

/// The winning configuration plus the full measurement trace, in probe
/// order (the window-growth prefix is monotonically increasing).
struct CalibrationReport {
  SearchOptions options;
  CalibrationPoint achieved;  ///< measurement of `options`
  std::vector<CalibrationPoint> trace;
};

/// Runs the calibration described above. Errors:
///   InvalidArgument — empty/mismatched sample, bad k or target_recall;
///   Unsupported     — an index that cannot search;
///   OutOfRange      — the target is unreachable at max_window (the
///                     message reports the best recall measured).
Result<CalibrationReport> CalibrateIndex(const Index& index,
                                         const CalibrationTarget& target);

}  // namespace blink
