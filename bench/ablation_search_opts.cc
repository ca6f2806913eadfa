// Ablations the paper narrates without a dedicated figure (DESIGN.md
// D3-D5):
//   1. visited-set on/off (Sec. 5: disabling it gains 2-20% depending on
//      CPU and dimensionality),
//   2. sorted linear buffer vs binary heap for the candidate queue
//      (Sec. 5: the buffer is faster for practical W),
//   3. two-level re-ranking on/off at fixed window (Sec. 3.2).
#include <queue>

#include "common.h"

using namespace blinkbench;

namespace {

/// Heap-based greedy search — the "common implementation" the paper's
/// sorted linear buffer replaces. Same storage, same graph, same visited
/// tracking; only the queue structure differs.
template <typename Storage>
class HeapSearcher {
 public:
  HeapSearcher(const FlatGraph* g, const Storage* s) : graph_(g), storage_(s) {}

  void Search(const float* query, size_t k, uint32_t entry, uint32_t window,
              std::vector<uint32_t>* out) {
    storage_->PrepareQuery(query, &q_);
    if (visited_.size() != storage_->size()) {
      visited_.assign(storage_->size(), 0);
      epoch_ = 0;
    }
    ++epoch_;
    using C = std::pair<float, uint32_t>;
    std::priority_queue<C, std::vector<C>, std::greater<>> frontier;
    std::priority_queue<C> best;  // max-heap of current top-window
    const float d0 = storage_->Distance(q_, entry);
    frontier.push({d0, entry});
    best.push({d0, entry});
    visited_[entry] = epoch_;
    while (!frontier.empty()) {
      const C c = frontier.top();
      if (best.size() >= window && c.first > best.top().first) break;
      frontier.pop();
      const uint32_t* nbrs = graph_->neighbors(c.second);
      const uint32_t deg = graph_->degree(c.second);
      for (uint32_t t = 0; t < deg; ++t) {
        const uint32_t cand = nbrs[t];
        if (visited_[cand] == epoch_) continue;
        visited_[cand] = epoch_;
        const float dist = storage_->Distance(q_, cand);
        if (best.size() < window || dist < best.top().first) {
          frontier.push({dist, cand});
          best.push({dist, cand});
          if (best.size() > window) best.pop();
        }
      }
    }
    std::vector<C> sorted;
    sorted.reserve(best.size());
    while (!best.empty()) {
      sorted.push_back(best.top());
      best.pop();
    }
    std::sort(sorted.begin(), sorted.end());
    out->clear();
    for (size_t i = 0; i < std::min(k, sorted.size()); ++i) {
      out->push_back(sorted[i].second);
    }
  }

 private:
  const FlatGraph* graph_;
  const Storage* storage_;
  typename Storage::Query q_;
  std::vector<uint32_t> visited_;
  uint32_t epoch_ = 0;
};

}  // namespace

int main() {
  Banner("Search-engine ablations", "visited set / queue structure / rerank");
  const size_t n = ScaledN(30000), nq = 1000, k = 10;
  Dataset data = MakeDeepLike(n, nq);
  Matrix<uint32_t> gt = ComputeGroundTruth(data.base, data.queries, k, data.metric);
  auto idx = BuildOgLvq(data.base, data.metric, 8, 0, GraphParams(32, data.metric));
  HarnessOptions opts;
  opts.best_of = 5;

  // --- D5: visited set on/off ---
  std::printf("D5: visited-set ablation (W=40)\n");
  for (bool visited : {true, false}) {
    std::vector<SearchOptions> s = WindowSweep({40});
    s[0].use_visited_set = visited;
    auto pts = RunSweep(*idx, data.queries, gt, s, opts);
    std::printf("  visited=%-5s QPS=%8.0f recall=%.4f\n",
                visited ? "on" : "off", pts[0].qps, pts[0].recall);
  }

  // --- D4: sorted linear buffer vs binary heap ---
  std::printf("\nD4: queue-structure ablation (W=40, visited set on for both)\n");
  {
    std::vector<SearchOptions> s = WindowSweep({40});
    s[0].use_visited_set = true;
    auto pts = RunSweep(*idx, data.queries, gt, s, opts);
    std::printf("  sorted-linear-buffer QPS=%8.0f recall=%.4f\n", pts[0].qps,
                pts[0].recall);
  }
  {
    HeapSearcher<LvqStorage> heap(&idx->graph(), &idx->storage());
    std::vector<uint32_t> out;
    Matrix<uint32_t> ids(nq, k);
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      Timer t;
      for (size_t q = 0; q < nq; ++q) {
        heap.Search(data.queries.row(q), k, idx->entry_point(), 40, &out);
        for (size_t j = 0; j < k; ++j) {
          ids(q, j) = j < out.size() ? out[j] : UINT32_MAX;
        }
      }
      best = std::max(best, static_cast<double>(nq) / t.Seconds());
    }
    std::printf("  binary-heap          QPS=%8.0f recall=%.4f\n", best,
                MeanRecallAtK(ids, gt, k));
  }

  // --- D3: re-ranking on/off for a two-level index ---
  std::printf("\nD3: two-level re-rank ablation (LVQ-4x8, W=40)\n");
  auto idx2 = BuildOgLvq(data.base, data.metric, 4, 8, GraphParams(32, data.metric));
  for (bool rerank : {true, false}) {
    std::vector<SearchOptions> s = WindowSweep({40});
    s[0].rerank = rerank;
    auto pts = RunSweep(*idx2, data.queries, gt, s, opts);
    std::printf("  rerank=%-5s QPS=%8.0f recall=%.4f\n", rerank ? "on" : "off",
                pts[0].qps, pts[0].recall);
  }
  return 0;
}
