#include "baselines/hnsw.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>

#include "simd/distance.h"
#include "util/prng.h"

namespace blink {

HnswIndex::HnswIndex(MatrixViewF data, Metric metric, const HnswParams& params,
                     ThreadPool* /*pool*/)
    : n_(data.rows), d_(data.cols), metric_(metric), params_(params) {
  vectors_ = MatrixF(n_, d_);
  for (size_t i = 0; i < n_; ++i) {
    std::memcpy(vectors_.row(i), data.row(i), d_ * sizeof(float));
  }
  levels_.resize(n_);
  links_.resize(n_);
  build_visits_.stamps.assign(n_, 0);

  // Exponential level assignment: floor(-ln(U) * mult), mult = 1/ln(M).
  Rng rng(params.seed);
  const double mult = 1.0 / std::log(static_cast<double>(params.M));
  for (size_t i = 0; i < n_; ++i) {
    double u = rng.UniformDouble();
    if (u < 1e-12) u = 1e-12;
    levels_[i] = static_cast<int>(-std::log(u) * mult);
    links_[i].resize(levels_[i] + 1);
  }

  // Sequential insertion (construction is inherently order-dependent).
  for (size_t i = 0; i < n_; ++i) {
    Insert(static_cast<uint32_t>(i), levels_[i]);
  }
}

float HnswIndex::Dist(const float* q, uint32_t id) const {
  const float* v = vectors_.row(id);
  return metric_ == Metric::kL2 ? simd::L2Sqr(q, v, d_)
                                : simd::IpDist(q, v, d_);
}

uint32_t HnswIndex::Descend(const float* q, uint32_t ep, int level,
                            uint64_t* computed) const {
  for (int lc = max_level_; lc > level; --lc) {
    bool changed = true;
    float d_ep = Dist(q, ep);
    ++*computed;
    while (changed) {
      changed = false;
      const auto& nbrs = links_[ep][lc];
      *computed += nbrs.size();
      for (uint32_t nb : nbrs) {
        const float dist = Dist(q, nb);
        if (dist < d_ep) {
          d_ep = dist;
          ep = nb;
          changed = true;
        }
      }
    }
  }
  return ep;
}

void HnswIndex::SearchLayer(const float* q, uint32_t ep, size_t ef, int level,
                            VisitStamps* visits, std::vector<Candidate>* out,
                            uint64_t* computed) const {
  // Min-heap of frontier candidates; max-heap of the ef best results.
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> frontier;
  std::priority_queue<Candidate> best;
  visits->Next();
  std::vector<uint32_t>& visited_stamps = visits->stamps;
  const uint32_t stamp = visits->stamp;

  const float d0 = Dist(q, ep);
  ++*computed;
  frontier.push({d0, ep});
  best.push({d0, ep});
  visited_stamps[ep] = stamp;

  while (!frontier.empty()) {
    const Candidate c = frontier.top();
    if (c.dist > best.top().dist && best.size() >= ef) break;
    frontier.pop();
    const auto& nbrs = links_[c.id][level];
    for (uint32_t nb : nbrs) {
      if (visited_stamps[nb] == stamp) continue;
      visited_stamps[nb] = stamp;
      const float dist = Dist(q, nb);
      ++*computed;
      if (best.size() < ef || dist < best.top().dist) {
        frontier.push({dist, nb});
        best.push({dist, nb});
        if (best.size() > ef) best.pop();
      }
    }
  }
  out->resize(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    (*out)[i] = best.top();
    best.pop();
  }
}

void HnswIndex::SelectNeighborsHeuristic(
    const std::vector<Candidate>& candidates, size_t m,
    std::vector<uint32_t>* out) const {
  out->clear();
  // Candidates arrive in ascending distance to the query point. Keep e only
  // if it is closer to the query than to every already-selected neighbor
  // (diversity pruning, HNSW Algorithm 4).
  for (const Candidate& e : candidates) {
    if (out->size() >= m) break;
    bool keep = true;
    const float* ve = vectors_.row(e.id);
    for (uint32_t r : *out) {
      const float d_er = metric_ == Metric::kL2
                             ? simd::L2Sqr(ve, vectors_.row(r), d_)
                             : simd::IpDist(ve, vectors_.row(r), d_);
      if (d_er < e.dist) {
        keep = false;
        break;
      }
    }
    if (keep) out->push_back(e.id);
  }
}

void HnswIndex::Insert(uint32_t id, int level) {
  if (max_level_ < 0) {  // first node
    entry_point_ = id;
    max_level_ = level;
    return;
  }
  const float* q = vectors_.row(id);
  // Greedy descent through layers above the node's level.
  uint64_t computed = 0;  // build work is not reported
  uint32_t ep = Descend(q, entry_point_, level, &computed);

  // Connect at each layer from min(level, max_level_) down to 0.
  std::vector<Candidate> candidates;
  std::vector<uint32_t> selected;
  std::vector<Candidate> shrink_cands;
  std::vector<uint32_t> shrunk;
  for (int lc = std::min(level, max_level_); lc >= 0; --lc) {
    SearchLayer(q, ep, params_.ef_construction, lc, &build_visits_,
                &candidates, &computed);
    const uint32_t bound = DegreeBound(lc);
    SelectNeighborsHeuristic(candidates, params_.M, &selected);
    links_[id][lc] = selected;

    for (uint32_t nb : selected) {
      auto& back = links_[nb][lc];
      back.push_back(id);
      if (back.size() > bound) {
        // Shrink with the same heuristic, rebuilding candidates around nb.
        const float* vnb = vectors_.row(nb);
        shrink_cands.clear();
        shrink_cands.reserve(back.size());
        for (uint32_t e : back) {
          shrink_cands.push_back({Dist(vnb, e), e});
        }
        std::sort(shrink_cands.begin(), shrink_cands.end());
        SelectNeighborsHeuristic(shrink_cands, bound, &shrunk);
        back = shrunk;
      }
    }
    if (!candidates.empty()) ep = candidates.front().id;
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = id;
  }
}

size_t HnswIndex::memory_bytes() const {
  size_t bytes = vectors_.size() * sizeof(float);
  for (const auto& node : links_) {
    for (const auto& layer : node) {
      bytes += layer.size() * sizeof(uint32_t) + sizeof(void*);
    }
    bytes += sizeof(void*);
  }
  return bytes;
}

double HnswIndex::AverageDegree(int level) const {
  size_t total = 0, nodes = 0;
  for (size_t i = 0; i < n_; ++i) {
    if (levels_[i] >= level) {
      total += links_[i][level].size();
      ++nodes;
    }
  }
  return nodes > 0 ? static_cast<double>(total) / static_cast<double>(nodes) : 0.0;
}

/// ef-bounded layer-0 search after the greedy descent; the visit stamps
/// and candidate buffer survive across queries.
class HnswIndex::HnswSearcher : public Searcher {
 public:
  explicit HnswSearcher(const HnswIndex* index)
      : Searcher(index->d_), index_(index) {
    visits_.stamps.assign(index_->n_, 0);
  }

 private:
  void SearchFinite(const float* q, size_t k, const SearchOptions& params,
                    uint32_t* ids, float* dists, BatchStats* stats) override {
    const size_t ef = std::max<size_t>(params.window, k);
    uint64_t computed = 0;
    const uint32_t ep = index_->Descend(q, index_->entry_point_, 0, &computed);
    index_->SearchLayer(q, ep, ef, 0, &visits_, &results_, &computed);
    const size_t count = std::min(k, results_.size());
    row_ids_.resize(count);
    row_dists_.resize(count);
    for (size_t j = 0; j < count; ++j) {
      row_ids_[j] = results_[j].id;
      row_dists_[j] = results_[j].dist;
    }
    WritePaddedRow(row_ids_.data(), row_dists_.data(), count, k, ids, dists);
    if (stats != nullptr) stats->distance_computations += computed;
  }

  const HnswIndex* index_;
  VisitStamps visits_;
  std::vector<Candidate> results_;
  std::vector<uint32_t> row_ids_;
  std::vector<float> row_dists_;
};

std::unique_ptr<Searcher> HnswIndex::MakeSearcher() const {
  return std::make_unique<HnswSearcher>(this);
}

}  // namespace blink
