// The three perfbench workloads and the per-layer probes their traced runs
// share. See README.md for what each workload measures and why.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/index.h"
#include "filter/metadata.h"
#include "common.h"
#include "exact.h"
#include "gen.h"

namespace perfbench {

inline constexpr size_t kK = 10;              ///< neighbors per query
inline constexpr double kTargetRecall = 0.9;  ///< Calibrate target
inline constexpr size_t kCalibQueries = 200;  ///< calibration sample size

/// The calibration sample and its exact neighbours in one workload's base.
/// The queries come from a fixed stream, not the run seed: Calibrate picks
/// the smallest window that meets the target on its sample, and a
/// seed-dependent sample would tune every seed to a different window.
struct CalibrationSample {
  std::vector<float> queries;     ///< kCalibQueries x kDim
  blink::Matrix<uint32_t> truth;  ///< kCalibQueries x kK
  /// Index::Calibrate for recall@10 >= kTargetRecall on this sample.
  blink::Result<blink::SearchOptions> Tune(const blink::Index& index,
                                           blink::ThreadPool* pool) const;
};
CalibrationSample MakeCalibrationSample(const RowSource& base, size_t n,
                                        size_t threads);

/// The metadata store the filtered workloads attach: one kF64 column and
/// the tag mask of each row of `rows`.
std::shared_ptr<const blink::MetadataStore> MakeMetadataStore(
    const std::vector<MetaRow>& rows);

/// Builds the static-mem index artifact `<work_dir>/static-mem-<key>`
/// unless it is already there. Returns false (after printing why) on
/// failure.
bool PrepareStaticMem(const std::string& work_dir, const std::string& key);

void RunStaticMem(const RunContext& ctx, Report& rep, Tracer& tracer);
void RunServeNet(const RunContext& ctx, Report& rep, Tracer& tracer);
void RunDynChurn(const RunContext& ctx, Report& rep, Tracer& tracer);

// --- dyn-churn pieces, shared with perfbench_test ----------------------------

struct ChurnConfig {
  size_t initial = 10000;  ///< live vectors, inserted in setup
  size_t steps = 1000;     ///< op-sequence steps (see MakeChurnOps)
  double search_share = 0.5;
  size_t consolidate_every = 256;  ///< deletes between Consolidate calls
  size_t num_queries = 4000;
};
/// Everything the op phase consumes, generated from the seed.
struct ChurnInputs {
  ChurnConfig cfg;
  std::vector<Op> ops;
  std::vector<float> vectors;  ///< key k's vector at row k
  std::vector<float> queries;  ///< num_queries rows
};
/// Blocks of the op sequence (see RunChurnOps).
inline constexpr size_t kChurnBlocks = 10;
/// What one pass of the op sequence measured and verified.
struct ChurnOutcome {
  std::vector<std::vector<double>> search_us;  ///< per block
  std::vector<double> insert_us, delete_us, consolidate_ms;
  size_t searches = 0;
  double recall = 0.0;
  size_t recall_samples = 0;
  uint64_t attempted = 0, failed = 0;
  std::string first_failure;
  bool model_ok = true;
  std::string model_detail;
  uint64_t hops = 0, dists = 0;
  double peak_tombstone_ratio = 0.0;
  size_t consolidations = 0;
  size_t slots = 0;     ///< slot ids handed out (the id space)
  double wall_s = 0.0;  ///< the op loop alone, without the recall replay
};
ChurnInputs MakeChurnInputs(uint64_t seed, const ChurnConfig& cfg,
                            size_t threads);
/// The dynamic LVQ-8 index over the initial keys (ids 0..initial-1).
blink::Result<blink::Index> BuildChurnIndex(const ChurnInputs& in);
/// Runs the op sequence on `index` from one thread, checking every op
/// against the model; spans go to `lane` when it is set.
ChurnOutcome RunChurnOps(blink::Index& index, const ChurnInputs& in,
                         const blink::SearchOptions& opts, Tracer::Lane* lane);

/// Replays the op sequence on `index` while `readers` threads search
/// beside the writer; reports graph.dynamic.concurrent_query_p50_us.
void ConcurrentReplay(blink::Index& index, const ChurnInputs& in,
                      const blink::SearchOptions& opts, size_t readers,
                      Report& rep);

/// Cost figures the probes measure and trace.accounted_ratio sums.
struct LayerCosts {
  double ns_per_dist_mem_primary = 0.0;  ///< kernel of the primary codes
  double ns_per_dist_mem_rerank = 0.0;   ///< kernel of the re-rank codes
  double dists_per_query = 0.0;
  double rerank_rows_per_query = 0.0;
};

/// Inputs the per-layer probes run on: the workload's own index, its
/// calibrated options, some of its queries and a sample of its base rows.
struct ProbeInputs {
  blink::Index* index = nullptr;
  blink::SearchOptions options;
  const float* queries = nullptr;  ///< nq x kDim
  size_t nq = 0;
  const float* sample = nullptr;   ///< n_sample x kDim base rows
  size_t n_sample = 0;
  /// Spec of the static index a build probe makes from `sample`.
  blink::IndexSpec build_spec;
  size_t threads = 4;
  size_t llc_bytes = 0;
  std::string work_dir;
  /// Ids the index hands out (metadata must cover them); 0 = size().
  size_t id_space = 0;
};

// Each probe reports its metrics under the names listed in README.md.
LayerCosts ProbeSimd(const ProbeInputs& in, Report& rep);
void ProbeSearch(const ProbeInputs& in, Report& rep, LayerCosts* costs);
void ProbeBuild(const ProbeInputs& in, Report& rep);
/// Saves the index under work_dir and reopens it (api.open_s); returns the
/// reopened copy.
blink::Index ProbeReopen(const ProbeInputs& in, Report& rep);
/// Returns the mean async (Submit) latency in microseconds.
double ProbeServe(const ProbeInputs& in, Report& rep);
void ProbeFilter(const ProbeInputs& in, Report& rep);
void ProbeDynamic(const ProbeInputs& in, Report& rep);
/// Serves the index over loopback and returns net.search_overhead_us. It
/// consumes the index (BlinkServer takes the handle), so it runs last.
double ProbeNet(ProbeInputs& in, Report& rep);

/// Reports per-name span totals of `tracer` as info lines and writes the
/// spans to `<work_dir>/trace-<workload>-<seed>.jsonl`.
void DumpTrace(const RunContext& ctx, const Tracer& tracer, Report& rep);

}  // namespace perfbench
