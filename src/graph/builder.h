// Vamana graph construction (paper Sec. 2.1, following Subramanya et al.
// [28]): for each node, greedy-search the current graph with the node as
// query, then run the single-node update on the candidate pool: prune it
// with the relaxed rule of Algorithm 2, publish the node's out-neighbors,
// then insert backward edges and re-prune any node that exceeds the degree
// bound R. Two passes are made: the first with relaxation alpha = 1.0, the
// second with the configured alpha. The update and its prune are written
// once, here, and the dynamic index runs them too (DESIGN.md D17).
//
// Because the builder is templated on Storage, graphs can be built directly
// from LVQ-compressed vectors (paper Sec. 4): node queries are decoded on
// the fly and all candidate distances use the storage's fused kernels.
//
// Parallelism: nodes are processed in batches. Within a batch all searches
// run concurrently against a frozen graph snapshot (phase 1); the updates
// are applied serially between batches (phase 2). Given a fixed seed the
// result is the same for any thread count up to 8 (batches of 64 nodes);
// more workers widen the batch and so change the graph.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "graph/graph.h"
#include "graph/search.h"
#include "graph/storage.h"
#include "util/prng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace blink {

struct VamanaBuildParams {
  uint32_t graph_max_degree = 64;  ///< R
  uint32_t window_size = 128;      ///< W for the build-time searches
  float alpha = 1.2f;              ///< second-pass relaxation (use <1 for IP)
  uint32_t max_candidates = 512;   ///< cap on the pruning candidate pool
  uint64_t seed = 0x5eed;
  bool two_passes = true;
  bool use_huge_pages = true;
};

/// A built graph plus the search entry point.
struct BuiltGraph {
  FlatGraph graph;
  uint32_t entry_point = 0;
  double build_seconds = 0.0;
};

namespace detail {

struct Candidate {
  float dist;  // distance to the node being wired (lower = more similar)
  uint32_t id;
  bool operator<(const Candidate& o) const {
    return dist < o.dist || (dist == o.dist && id < o.id);
  }
};

/// RobustPrune's `max_cands` when the whole pool is pruned.
inline constexpr size_t kNoPoolCap = std::numeric_limits<size_t>::max();

/// Algorithm 2 (neighborhood pruning) in distance space: the one prune of
/// the builder and the dynamic index. `cands` is the pool of the target
/// node x in any order, without x, with distances to x. It is sorted by
/// (dist, id), deduplicated by id and cut to `max_cands`; then at most R
/// survivors go to `out_neighbors`, nearest first. The rule
/// "alpha * sim(x*, x') >= sim(x, x')" with sim = -dist becomes
/// "alpha * dist(x*, x') <= dist(x, x')" for L2 (alpha >= 1) and stays in
/// similarity form for IP (alpha <= 1); we evaluate it in similarity space
/// so one code path serves both metrics. Each selected x* is decoded into
/// `decode_buf` and prepared as `star`; `removed` holds the pruned flags.
template <typename Storage>
void RobustPrune(const Storage& storage, std::vector<Candidate>& cands,
                 float alpha, uint32_t R, size_t max_cands,
                 std::vector<float>& decode_buf,
                 typename Storage::Query& star, std::vector<char>& removed,
                 std::vector<uint32_t>* out_neighbors) {
  std::sort(cands.begin(), cands.end());
  cands.erase(std::unique(cands.begin(), cands.end(),
                          [](const Candidate& a, const Candidate& b) {
                            return a.id == b.id;
                          }),
              cands.end());
  if (cands.size() > max_cands) cands.resize(max_cands);
  out_neighbors->clear();
  removed.assign(cands.size(), 0);
  for (size_t s = 0; s < cands.size(); ++s) {
    if (removed[s]) continue;
    out_neighbors->push_back(cands[s].id);
    if (out_neighbors->size() == R) break;
    // Prepare x* as a query to measure dist(x*, x') for the prune rule.
    storage.DecodeVector(cands[s].id, decode_buf.data());
    storage.PrepareQuery(decode_buf.data(), &star);
    for (size_t t = s + 1; t < cands.size(); ++t) {
      if (removed[t]) continue;
      const float d_star_prime = storage.Distance(star, cands[t].id);
      // similarity form: alpha * sim(x*, x') >= sim(x, x')  =>  remove x'
      if (alpha * (-d_star_prime) >= -cands[t].dist) removed[t] = 1;
    }
  }
}

/// The uncapped prune with caller-owned x* scratch (the merge step of the
/// benchmark's static-mem build calls it).
template <typename Storage>
void RobustPrune(const Storage& storage, [[maybe_unused]] uint32_t x,
                 std::vector<Candidate>& cands, float alpha, uint32_t R,
                 std::vector<float>& decode_buf,
                 typename Storage::Query& qstate,
                 std::vector<uint32_t>* out_neighbors) {
  std::vector<char> removed;
  RobustPrune(storage, cands, alpha, R, kNoPoolCap, decode_buf, qstate,
              removed, out_neighbors);
}

/// Reusable scratch of the neighborhood update, one per writer: the
/// builder's phase 2 and the dynamic index's (serialized) writer.
template <typename Storage>
struct PruneScratch {
  explicit PruneScratch(size_t dim = 0) : decode(dim) {}

  /// Decodes stored vector `id` and prepares `query` for distances to it.
  void PrepareStored(const Storage& storage, uint32_t id) {
    storage.DecodeVector(id, decode.data());
    storage.PrepareQuery(decode.data(), &query);
  }

  std::vector<float> decode;      ///< a decoded stored vector (dim floats)
  typename Storage::Query query;  ///< a row's owner, then each x*
  std::vector<char> removed;      ///< Algorithm 2's pruned flags
  std::vector<Candidate> pool;    ///< the pool being pruned
  std::vector<uint32_t> row;      ///< the updated node's new row
  std::vector<uint32_t> nb_row;   ///< a re-pruned neighbor's new row
};

/// Prunes `s->pool` (cut to `max_cands`) into `*row` and publishes it as
/// x's out-neighbors.
template <typename Storage>
void PruneAndPublish(const Storage& storage, FlatGraph* graph, uint32_t x,
                     float alpha, size_t max_cands, PruneScratch<Storage>* s,
                     std::vector<uint32_t>* row) {
  RobustPrune(storage, s->pool, alpha, graph->max_degree(), max_cands,
              s->decode, s->query, s->removed, row);
  graph->PublishNeighbors(x, row->data(), static_cast<uint32_t>(row->size()));
}

/// The Vamana single-node update, shared by BuildVamana's phase 2 and
/// DynamicGraphIndex::Insert. Prunes x's candidate pool `s->pool` (as
/// RobustPrune takes it) into x's row, then adds the backward edge to x
/// in each new neighbor's row; a full row is re-pruned over its R
/// neighbors plus x, uncapped. Rows are written through FlatGraph's
/// Publish* calls, so the dynamic index's concurrent readers see whole
/// ids; the builder has no readers, and a release store is a plain store
/// on x86.
template <typename Storage>
void UpdateNeighborhood(const Storage& storage, FlatGraph* graph, uint32_t x,
                        float alpha, size_t max_cands,
                        PruneScratch<Storage>* s) {
  PruneAndPublish(storage, graph, x, alpha, max_cands, s, &s->row);
  for (uint32_t nb : s->row) {
    // Skip if the backward edge already exists (e.g. wired during an
    // earlier batch or pass).
    const uint32_t* nbrs = graph->neighbors(nb);
    const uint32_t deg = graph->degree(nb);
    if (std::find(nbrs, nbrs + deg, x) != nbrs + deg) continue;
    if (graph->PublishAddNeighbor(nb, x)) continue;
    s->PrepareStored(storage, nb);
    s->pool.clear();
    for (uint32_t e = 0; e < deg; ++e) {
      s->pool.push_back({storage.Distance(s->query, nbrs[e]), nbrs[e]});
    }
    s->pool.push_back({storage.Distance(s->query, x), x});
    PruneAndPublish(storage, graph, nb, alpha, kNoPoolCap, s, &s->nb_row);
  }
}

}  // namespace detail

/// Builds a Vamana graph over `storage`. The returned entry point is the
/// medoid (the vector closest to the dataset mean).
template <typename Storage>
BuiltGraph BuildVamana(const Storage& storage, const VamanaBuildParams& params,
                       ThreadPool* pool = nullptr) {
  const size_t n = storage.size();
  const size_t d = storage.dim();
  const uint32_t R = params.graph_max_degree;
  BuiltGraph out;
  out.graph = FlatGraph(n, R, params.use_huge_pages);
  if (n == 0) return out;

  Timer build_timer;

  // Entry point: medoid. Compute the decoded mean, then the closest vector.
  {
    std::vector<double> acc(d, 0.0);
    std::vector<float> buf(d);
    for (size_t i = 0; i < n; ++i) {
      storage.DecodeVector(i, buf.data());
      for (size_t j = 0; j < d; ++j) acc[j] += buf[j];
    }
    std::vector<float> mean(d);
    for (size_t j = 0; j < d; ++j) {
      mean[j] = static_cast<float>(acc[j] / static_cast<double>(n));
    }
    typename Storage::Query q;
    storage.PrepareQuery(mean.data(), &q);
    float best = storage.Distance(q, 0);
    uint32_t best_id = 0;
    for (size_t i = 1; i < n; ++i) {
      const float di = storage.Distance(q, i);
      if (di < best) {
        best = di;
        best_id = static_cast<uint32_t>(i);
      }
    }
    out.entry_point = best_id;
  }

  // Random insertion order, fixed by seed.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  {
    Rng rng(params.seed);
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Bounded(i + 1)]);
    }
  }

  const size_t num_workers = pool != nullptr ? pool->num_threads() : 1;
  const size_t batch = std::max<size_t>(num_workers * 8, 64);

  SearchParams sp;
  sp.window = std::max(params.window_size, R + 1);
  sp.use_visited_set = true;  // build-time searches favor fewer recomputes

  // Phase-1 state of one worker thread.
  struct Worker {
    std::vector<float> decode;
    typename Storage::Query query;
    TraversalState traversal;
  };
  std::vector<Worker> workers(num_workers);
  for (Worker& w : workers) w.decode.resize(d);
  detail::PruneScratch<Storage> prune(d);  // phase 2 (serial)
  // Candidate pools of the current batch, collected in parallel.
  std::vector<std::vector<detail::Candidate>> batch_cands(batch);

  const int passes = params.two_passes ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    const float alpha = (pass + 1 == passes) ? params.alpha : 1.0f;

    for (size_t begin = 0; begin < n; begin += batch) {
      const size_t end = std::min(n, begin + batch);
      const size_t m = end - begin;

      // Phase 1 (parallel, frozen graph): search each node.
      auto search_one = [&](Worker& w, size_t t) {
        const uint32_t node = order[begin + t];
        storage.DecodeVector(node, w.decode.data());
        storage.PrepareQuery(w.decode.data(), &w.query);
        Traverse<PlainRows>(out.graph, storage, w.query, out.entry_point, sp,
                            &w.traversal);
        auto& cands = batch_cands[t];
        cands.clear();
        const SearchBuffer& buf = w.traversal.buffer;
        for (size_t i = 0; i < buf.size(); ++i) {
          if (buf[i].id != node) cands.push_back({buf[i].dist, buf[i].id});
        }
      };
      if (pool != nullptr && num_workers > 1) {
        // One task per worker over a contiguous slice: worker state stays
        // thread-private, and slicing is deterministic for any thread count.
        pool->ParallelFor(num_workers, [&](size_t widx) {
          const size_t lo = m * widx / num_workers;
          const size_t hi = m * (widx + 1) / num_workers;
          for (size_t t = lo; t < hi; ++t) search_one(workers[widx], t);
        });
      } else {
        for (size_t t = 0; t < m; ++t) search_one(workers[0], t);
      }

      // Phase 2 (serial): the single-node update of each node in turn.
      for (size_t t = 0; t < m; ++t) {
        const uint32_t node = order[begin + t];
        // Merge in current out-neighbors (C ∪ N(x), Algorithm 2 line 1).
        prune.pool.swap(batch_cands[t]);
        prune.PrepareStored(storage, node);
        const uint32_t* nbrs = out.graph.neighbors(node);
        for (uint32_t e = 0; e < out.graph.degree(node); ++e) {
          prune.pool.push_back(
              {storage.Distance(prune.query, nbrs[e]), nbrs[e]});
        }
        detail::UpdateNeighborhood(storage, &out.graph, node, alpha,
                                   params.max_candidates, &prune);
      }
    }
  }

  out.build_seconds = build_timer.Seconds();
  return out;
}

}  // namespace blink
