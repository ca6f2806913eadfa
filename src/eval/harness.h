// QPS/recall measurement following the ANN-benchmarks protocol the paper
// adopts (Sec. 6.3): for each runtime setting, run the full query batch
// (or one query at a time in single-query mode), report the best throughput
// of `best_of` runs, and pair it with the achieved k-recall@k. Every QPS,
// recall and latency figure in the tree (the sweeps, blink_report's rows,
// Calibrate's probes, the tools) is taken by MeasureSetting below.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "eval/interface.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace blink {

/// One measured setting.
struct SweepPoint {
  SearchOptions params;
  double recall = 0.0;           ///< mean k-recall@k (0 without ground truth)
  double qps = 0.0;              ///< queries over the best run's wall time
  double mean_latency_us = 0.0;  ///< the best run's wall time per query
  /// Work per query from BatchStats (0 where the index does not count it).
  double dists_per_query = 0.0;
  double hops_per_query = 0.0;
  /// Per-query latency percentiles of the best run, in single-query mode
  /// only (a batch run times the batch, not its queries).
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// How one setting is timed.
struct MeasureProtocol {
  int best_of = 3;            ///< paper reports best of 5 runs
  bool single_query = false;  ///< batch-of-1 protocol (Table 3 right half)
  ThreadPool* pool = nullptr; ///< batch parallelism; unused in single-query
};

struct HarnessOptions : MeasureProtocol {
  size_t k = 10;
};

/// The one timing core behind every QPS, recall and latency figure: runs
/// `options` over the whole query batch `best_of` times and keeps the
/// fastest run. Batch mode splits the batch over `pool` (SearchBatch);
/// single-query mode runs one query at a time through one warm searcher
/// and times each query. Recall is scored against `truth` (nq x >= k,
/// may be null); the search is deterministic, so the ids and work
/// counters of any run stand for all. When `ids` is non-null it receives
/// the result ids (resized to nq x k).
SweepPoint MeasureSetting(const SearchIndex& index, MatrixViewF queries,
                          const Matrix<uint32_t>* truth, size_t k,
                          const SearchOptions& options,
                          const MeasureProtocol& protocol,
                          Matrix<uint32_t>* ids = nullptr);

/// MeasureSetting over every setting: one point per setting.
std::vector<SweepPoint> RunSweep(const SearchIndex& index, MatrixViewF queries,
                                 const Matrix<uint32_t>& ground_truth,
                                 std::span<const SearchOptions> settings,
                                 const HarnessOptions& opts);

/// QPS at recall: the fastest point whose recall is >= the target, or null
/// when no point reaches it.
const SweepPoint* PointAtRecall(std::span<const SweepPoint> points,
                                double target_recall);

/// Graph-index sweep: one SearchOptions per window value.
std::vector<SearchOptions> WindowSweep(std::initializer_list<uint32_t> windows);
std::vector<SearchOptions> WindowSweep(const std::vector<uint32_t>& windows);

/// IVF/ScaNN sweep: the cross product of probe counts and re-rank depths.
std::vector<SearchOptions> ProbeSweep(const std::vector<uint32_t>& nprobes,
                                      const std::vector<uint32_t>& reorder_ks);

/// Prints "recall qps" rows with a header, as the figures report them.
void PrintSweep(const std::string& label, std::span<const SweepPoint> points);

}  // namespace blink
