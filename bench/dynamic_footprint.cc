// dynamic_footprint — compressed vs float32 dynamic index under churn.
//
// The tentpole claim (ISSUE 4): the streaming path gets the same LVQ
// footprint win as the static one. A fixed-seed insert/delete/search churn
// workload (dim=128, sift-like) runs against three dynamic indices —
// float32, LVQ-8, LVQ-4x8 — and reports vector-storage bytes (the
// compressed quantity; the adjacency arena is identical across encodings
// and printed once), process RSS growth across the build, search QPS, and
// recall@10 against float brute force over the live set.
//
// Acceptance: LVQ-8 storage <= 0.35x float32 at dim=128, recall@10 >= 0.95.
//
// Scales with BLINK_SCALE like every bench.
#include <map>

#include "common.h"

namespace blinkbench {
namespace {

constexpr size_t kK = 10;
constexpr uint32_t kWindow = 64;

struct ChurnResult {
  std::string name;
  size_t storage_bytes = 0;
  size_t graph_bytes = 0;
  size_t rss_growth = 0;
  double qps = 0.0;
  double recall = 0.0;
};

/// The fixed-seed churn: stream-insert the base, delete a third, purge,
/// re-insert fresh rows into the recycled slots. Returns live id -> row.
template <typename Index>
std::map<uint32_t, size_t> RunChurn(Index* idx, const Dataset& data) {
  const size_t n = data.base.rows();
  const size_t initial = n * 3 / 4, churn = n - initial;
  std::map<uint32_t, size_t> live;
  for (size_t i = 0; i < initial; ++i) {
    live[idx->Insert(data.base.row(i))] = i;
  }
  Rng rng(1234);
  for (size_t i = 0; i < churn; ++i) {
    auto it = live.begin();
    std::advance(it, rng.Bounded(live.size()));
    (void)idx->Delete(it->first);
    live.erase(it);
  }
  idx->ConsolidateDeletes();
  for (size_t i = initial; i < n; ++i) {
    live[idx->Insert(data.base.row(i))] = i;
  }
  return live;
}

/// The exact k nearest live ids of every query (float brute force).
Matrix<uint32_t> LiveGroundTruth(const Dataset& data,
                                 const std::map<uint32_t, size_t>& live) {
  const size_t dim = data.base.cols();
  Matrix<uint32_t> gt(data.queries.rows(), kK);
  for (size_t qi = 0; qi < data.queries.rows(); ++qi) {
    const float* q = data.queries.row(qi);
    std::vector<std::pair<float, uint32_t>> exact;
    exact.reserve(live.size());
    for (const auto& [id, row] : live) {
      exact.push_back({simd::L2Sqr(q, data.base.row(row), dim), id});
    }
    std::sort(exact.begin(), exact.end());
    for (size_t j = 0; j < kK; ++j) {
      gt(qi, j) = j < exact.size() ? exact[j].second : kInvalidId;
    }
  }
  return gt;
}

/// Search QPS (one query at a time through one warm searcher, best of 3)
/// and recall@k over the live set.
template <typename Storage>
ChurnResult Measure(DynamicGraphIndex<Storage>* idx, const std::string& name,
                    const Dataset& data) {
  ChurnResult r;
  r.name = name;
  const size_t rss_before = CurrentRssBytes();
  const auto live = RunChurn(idx, data);
  r.rss_growth = CurrentRssBytes() - std::min(CurrentRssBytes(), rss_before);
  r.storage_bytes = idx->storage().memory_bytes();
  r.graph_bytes = idx->graph().memory_bytes();
  const Matrix<uint32_t> gt = LiveGroundTruth(data, live);
  SearchOptions options;
  options.window = kWindow;
  const SweepPoint pt =
      MeasureSetting(DynamicView<Storage>(idx), data.queries, &gt, kK, options,
                     {.best_of = 3, .single_query = true});
  r.qps = pt.qps;
  r.recall = pt.recall;
  return r;
}

void Run() {
  const size_t n = ScaledN(40000, 4000);
  const size_t nq = ScaledN(200, 50);
  Dataset data = MakeSiftLike(n, nq, /*seed=*/7);  // dim = 128
  const size_t dim = data.base.cols();
  std::printf("churn workload: %zu inserts (25%% through recycled slots), "
              "%zu deletes + purge, d=%zu, W=%u, k=%zu\n\n",
              n, n / 4, dim, kWindow, kK);

  DynamicOptions opts;
  opts.graph_max_degree = 32;
  opts.build_window = 64;
  opts.metric = data.metric;
  opts.alpha = 1.2f;
  opts.initial_capacity = n;  // identical arenas: ratio reflects encoding

  std::vector<ChurnResult> rows;
  {
    DynamicIndex f32(dim, opts);
    rows.push_back(Measure(&f32, "float32", data));
  }
  for (const auto& [b1, b2] : {std::pair<int, int>{8, 0}, {4, 8}}) {
    LvqDataset ds(ComputeMean(data.base, kDynamicMeanSampleRows),
                  {.bits = b1, .bits2 = b2});
    DynamicLvqIndex lvq(dim, opts, LvqStorage(std::move(ds), data.metric));
    rows.push_back(Measure(
        &lvq, b2 > 0 ? "LVQ-" + std::to_string(b1) + "x" + std::to_string(b2)
                     : "LVQ-" + std::to_string(b1),
        data));
  }

  const double f32_storage = static_cast<double>(rows[0].storage_bytes);
  std::printf("%-10s %12s %8s %12s %10s %10s %9s\n", "encoding",
              "storage MiB", "ratio", "rss-grow MiB", "QPS", "recall@10",
              "graph MiB");
  for (const ChurnResult& r : rows) {
    std::printf("%-10s %12.1f %8.3f %12.1f %10.0f %10.4f %9.1f\n",
                r.name.c_str(), Mib(r.storage_bytes),
                static_cast<double>(r.storage_bytes) / f32_storage,
                Mib(r.rss_growth), r.qps, r.recall, Mib(r.graph_bytes));
  }
  std::printf("\n(acceptance: LVQ-8 storage ratio <= 0.35 at d=128, "
              "recall@10 >= 0.95 under churn)\n");
}

}  // namespace
}  // namespace blinkbench

int main() {
  blinkbench::Banner("dynamic_footprint",
                     "compressed dynamic index: footprint and recall under "
                     "insert/delete/search churn");
  blinkbench::Run();
  return 0;
}
