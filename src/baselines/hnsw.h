// Hierarchical Navigable Small World graphs (Malkov & Yashunin [39]) — the
// HNSWlib stand-in baseline (Figs. 1, 9, 10, 21).
//
// Faithful to the original algorithm: exponentially-distributed node
// levels (mult = 1/ln(M)), greedy descent through the upper layers,
// ef-bounded best-first search at layer 0, and the diversity heuristic
// (Algorithm 4 of the HNSW paper) for neighbor selection. Vectors are
// stored in full precision, as HNSWlib serves them.
//
// The paper maps graph parameters as R = 2M (layer-0 degree); its
// R = {32, 64, 128} sweeps correspond to M = {16, 32, 64}.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "eval/interface.h"
#include "graph/storage.h"
#include "util/matrix.h"

namespace blink {

struct HnswParams {
  uint32_t M = 16;                 ///< upper-layer degree; layer 0 uses 2M
  uint32_t ef_construction = 200;  ///< build-time beam width
  uint64_t seed = 100;
};

class HnswIndex : public SearchIndex {
 public:
  HnswIndex(MatrixViewF data, Metric metric, const HnswParams& params,
            ThreadPool* pool = nullptr);

  std::string name() const override {
    return "HNSW-M" + std::to_string(params_.M);
  }
  size_t size() const override { return n_; }
  size_t dim() const override { return d_; }
  size_t memory_bytes() const override;

  /// SearchOptions::window is ef-search. Reports the exact distances it
  /// ranked by and counts every distance it computes.
  std::unique_ptr<Searcher> MakeSearcher() const override;

  int max_level() const { return max_level_; }
  uint32_t entry_point() const { return entry_point_; }
  double AverageDegree(int level) const;

 private:
  class HnswSearcher;

  float Dist(const float* q, uint32_t id) const;

  struct Candidate {
    float dist;
    uint32_t id;
    bool operator<(const Candidate& o) const { return dist < o.dist; }
    bool operator>(const Candidate& o) const { return dist > o.dist; }
  };

  /// Per-node visit stamps: a node is visited iff its stamp equals the
  /// current one, so starting a new search is a counter bump.
  struct VisitStamps {
    std::vector<uint32_t> stamps;
    uint32_t stamp = 0;
    void Next() {
      if (++stamp == 0) {
        std::fill(stamps.begin(), stamps.end(), 0u);
        stamp = 1;
      }
    }
  };

  /// Greedy descent from `ep` through the layers above `level`; returns
  /// the entry point for `level`. Adds its distance count to `*computed`.
  uint32_t Descend(const float* q, uint32_t ep, int level,
                   uint64_t* computed) const;

  /// Best-first search of one layer under a fresh stamp of `visits`;
  /// returns up to ef candidates (ascending distance) and adds its
  /// distance count to `*computed`.
  void SearchLayer(const float* q, uint32_t ep, size_t ef, int level,
                   VisitStamps* visits, std::vector<Candidate>* out,
                   uint64_t* computed) const;

  /// HNSW Algorithm 4: greedy diversity selection.
  void SelectNeighborsHeuristic(const std::vector<Candidate>& candidates,
                                size_t m, std::vector<uint32_t>* out) const;

  void Insert(uint32_t id, int level);

  uint32_t DegreeBound(int level) const { return level == 0 ? 2 * params_.M : params_.M; }

  size_t n_ = 0;
  size_t d_ = 0;
  Metric metric_ = Metric::kL2;
  HnswParams params_;
  MatrixF vectors_;
  std::vector<int> levels_;
  /// links_[i][l]: adjacency of node i at layer l (l <= levels_[i]).
  std::vector<std::vector<std::vector<uint32_t>>> links_;
  uint32_t entry_point_ = 0;
  int max_level_ = -1;
  VisitStamps build_visits_;  ///< single-threaded construction
};

}  // namespace blink
