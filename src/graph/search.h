// Greedy graph search (paper Algorithm 1) with the Sec. 5 optimizations:
// sorted linear buffer, optional visited set, and software prefetching
// with a tunable (prefetch-offset, prefetch-step) schedule. Once the index
// outgrows the cache, search is bound by memory latency, so the schedule
// matters more than the kernels: Traverse gathers each hop's unvisited
// neighbours first and, by default, puts all of their vector fetches in
// flight before scoring the first one (DESIGN.md D16). GreedySearcher adds
// the final two-level re-ranking gather when the storage has compressed
// residuals (Sec. 3.2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "eval/interface.h"
#include "filter/metadata.h"
#include "graph/graph.h"
#include "graph/reranker.h"
#include "graph/search_buffer.h"

namespace blink {

/// Runtime knobs of one search. The window W trades accuracy for speed;
/// the prefetch pair reproduces Fig. 7(a); `use_visited_set` reproduces the
/// Sec. 5 visited-set ablation.
struct SearchParams {
  uint32_t window = 32;  ///< W: candidate-queue capacity (>= k)
  /// Prefetch schedule: the prefetch pointer runs `prefetch_offset +
  /// prefetch_step` unvisited candidates ahead of the scoring pointer;
  /// (0, 0) disables prefetching. The default lookahead of 64 covers every
  /// row of a graph with R <= 64, i.e. the whole hop is in flight before
  /// its first distance (Fig. 7(a) point 0_64).
  uint32_t prefetch_offset = 0;
  uint32_t prefetch_step = 64;
  /// Track visited ids (Sec. 5 ablation). The paper disables its
  /// associative visited structure for small d; our epoch-stamped array is
  /// cheap enough that keeping it on measures faster on this substrate
  /// (see bench/ablation_search_opts and EXPERIMENTS.md), so on is the
  /// default. The knob reproduces the paper's ablation either way.
  bool use_visited_set = true;
  bool rerank = true;            ///< use the second level when available
  /// Re-rank depth: candidates re-scored at full two-level precision before
  /// the top-k selection. 0 = all W candidates (the historical behavior);
  /// otherwise clamped into [k, W]. Only meaningful when `rerank` is set
  /// and the storage has a second level.
  uint32_t rerank_window = 0;
  /// Metadata predicate restricting results (null = unfiltered); see
  /// DESIGN.md D15. The view must outlive the search call.
  const FilterView* filter = nullptr;
  /// With a filter set: true = in-search push-down (failing vertices are
  /// excluded from the result set per candidate but still traversed,
  /// filtered-Vamana style); false = post-filter (failing vertices are
  /// dropped at extraction, callers widen the window adaptively).
  bool filter_push_down = false;
};

/// The graph-search knobs of `p` for a top-`k` query (window floored at
/// k). The filter fields stay unset: each index binds the predicate to its
/// own metadata store.
inline SearchParams ToSearchParams(const SearchOptions& p, size_t k) {
  SearchParams sp;
  sp.window = std::max<uint32_t>(p.window, static_cast<uint32_t>(k));
  sp.prefetch_offset = p.prefetch_offset;
  sp.prefetch_step = p.prefetch_step;
  sp.use_visited_set = p.use_visited_set;
  sp.rerank = p.rerank;
  sp.rerank_window = p.rerank_window;
  return sp;
}

/// Disposition of one served query. Search paths always produce kOk; the
/// serving layer uses the other values so a rejected or shutdown-raced
/// query is distinguishable from a real zero-hit answer (which is kOk with
/// all-padded ids). Checked by the loadgen/recall accounting in
/// tools/blink_serve and mapped onto wire status codes by src/net/.
enum class SearchOutcome : uint8_t {
  kOk = 0,        ///< the query ran; ids/dists are a real answer
  kRejected = 1,  ///< admission control refused it (queue at capacity)
  kShutdown = 2,  ///< the engine was stopping; the query never ran
};

struct SearchResult {
  std::vector<uint32_t> ids;
  std::vector<float> dists;
  size_t distance_computations = 0;
  size_t hops = 0;  ///< nodes expanded
  SearchOutcome outcome = SearchOutcome::kOk;
};

/// Row policy for adjacency no other thread mutates during the traversal:
/// static graphs, the builder's frozen batch snapshot, and the dynamic
/// index's own (serialized) writer.
struct PlainRows {
  template <typename Fn>
  static void ForEach(const FlatGraph& graph, uint32_t node, Fn&& fn) {
    const uint32_t* nbrs = graph.neighbors(node);
    const uint32_t deg = graph.degree(node);
    for (uint32_t t = 0; t < deg; ++t) fn(nbrs[t]);
  }
};

/// Row policy for dynamic-index readers racing the writer: every row word
/// is an acquire load (FlatGraph's D6 protocol), so each id read
/// synchronizes with the writer's publication of its vector.
struct AcquireRows {
  template <typename Fn>
  static void ForEach(const FlatGraph& graph, uint32_t node, Fn&& fn) {
    graph.ForEachNeighborAcquire(node, fn);
  }
};

/// Per-searcher state of Traverse: the candidate buffers, the visited
/// stamps, the unvisited neighbours of the current hop, and the work
/// counters of the last run. Reused across queries, never shared.
struct TraversalState {
  SearchBuffer buffer;
  SearchBuffer passing;  ///< predicate-passing results (push-down mode)
  VisitedSet visited;
  std::vector<uint32_t> pending;  ///< unvisited neighbours of one hop
  size_t distance_computations = 0;
  size_t hops = 0;
};

/// Dead predicate of a traversal over a graph without tombstones: static
/// search, the Vamana builder and the dynamic index's writer.
struct NoDead {
  constexpr bool operator()(uint32_t) const { return false; }
};

/// The one greedy traversal (paper Algorithm 1) behind every graph search:
/// static queries, the Vamana builder, and the dynamic index's writer and
/// readers. Fills `st->buffer` (and, for a push-down filter,
/// `st->passing`) with up to `params.window` live candidates in ascending
/// distance, and counts hops and distances. `params.window` is used as
/// given, `params.rerank*` are ignored; `query` must be prepared for
/// `storage` and `entry_point` must be a valid row of `graph`.
///
/// `dead(id)` names the ids that stay navigable but are never results (a
/// dynamic index's tombstones). They enter `st->buffer` as dead entries,
/// which are expanded but never count toward the window, so the buffer
/// ends with `params.window` live entries however many tombstones lie
/// near the query (SearchBuffer, DESIGN.md D16); `st->passing` never
/// holds them. With the default NoDead the buffer is the plain one.
///
/// Each hop runs in two passes. Pass 1 reads the row through `Rows` and
/// keeps the ids not yet visited (marking them) in `st->pending`. Pass 2
/// scores `pending` in row order. The Sec. 5 prefetch schedule runs over
/// `pending`: the prefetch pointer stays `prefetch_offset + prefetch_step`
/// *unvisited candidates* ahead of the scoring pointer, and (0, 0) turns
/// prefetching off. With a lookahead of at least the degree, as the
/// default has, the whole hop's misses are in flight before the first
/// distance, so they overlap instead of serializing (DESIGN.md D16).
/// Prefetches never change what is scored or in which order, so ids and
/// distances are the same under every schedule.
template <typename Rows, typename Storage, typename Dead = NoDead>
void Traverse(const FlatGraph& graph, const Storage& storage,
              const typename Storage::Query& query, uint32_t entry_point,
              const SearchParams& params, TraversalState* st,
              Dead dead = {}) {
  SearchBuffer& buffer = st->buffer;
  buffer.Reset(params.window);
  // In-search push-down keeps a second sorted buffer holding only
  // predicate-passing candidates: the traversal (buffer) still routes
  // through failing vertices so connectivity is preserved, while the
  // result set is drawn from passing at extraction.
  const bool push_down = params.filter != nullptr && params.filter_push_down;
  if (push_down) st->passing.Reset(params.window);
  const bool use_visited = params.use_visited_set;
  if (use_visited) {
    if (st->visited.size() != graph.size()) st->visited.Resize(graph.size());
    st->visited.NextQuery();
  }
  st->pending.resize(graph.max_degree());
  uint32_t* pending = st->pending.data();
  st->distance_computations = 0;
  st->hops = 0;

  auto score = [&](uint32_t id) {
    const float d = storage.Distance(query, id);
    ++st->distance_computations;
    const bool is_dead = dead(id);
    buffer.Insert(d, id, is_dead);
    if (push_down && !is_dead && params.filter->Pass(id)) {
      st->passing.Insert(d, id);
    }
  };
  score(entry_point);
  if (use_visited) st->visited.CheckAndMark(entry_point);

  // Safety bound: without a visited set a node can be re-expanded after
  // buffer eviction; convergence is monotone but we cap hops anyway.
  const size_t max_hops = 64 * static_cast<size_t>(params.window) + 256;
  const size_t lookahead =
      size_t{params.prefetch_offset} + params.prefetch_step;

  long idx;
  while ((idx = buffer.NextUnexplored()) >= 0 && st->hops < max_hops) {
    const uint32_t node = buffer[static_cast<size_t>(idx)].id;
    buffer.MarkExplored(static_cast<size_t>(idx));
    ++st->hops;

    // Next-hop prefetch: NextUnexplored() is an idempotent cursor peek,
    // so the likely next expansion is known now — issue its adjacency
    // row and vector fetch to overlap with this node's distance
    // computations. On a mapped (out-of-core) index this is what turns a
    // cold page fault into work hidden behind compute; on a resident
    // index it is an ordinary cache-line prefetch. An Insert below can
    // still supersede the peeked candidate — the prefetch is then merely
    // wasted, never wrong.
    if (lookahead > 0) {
      const long next = buffer.NextUnexplored();
      if (next >= 0) {
        const uint32_t next_node = buffer[static_cast<size_t>(next)].id;
        graph.PrefetchAdjacency(next_node);
        storage.Prefetch(next_node);
      }
    }

    // Pass 1: the hop's unvisited neighbours, in row order.
    size_t np = 0;
    Rows::ForEach(graph, node, [&](uint32_t id) {
      if (!use_visited || st->visited.CheckAndMark(id)) pending[np++] = id;
    });

    // Pass 2: score them, keeping the prefetch pointer `lookahead`
    // candidates ahead of the scoring pointer.
    size_t pf = 0;
    for (size_t t = 0; t < np; ++t) {
      if (lookahead > 0) {
        for (const size_t target = std::min(np, t + 1 + lookahead);
             pf < target; ++pf) {
          storage.Prefetch(pending[pf]);
        }
      }
      score(pending[t]);
    }
  }
}

/// The filtered extraction pool of a finished traversal: the passing
/// buffer (push-down: already predicate-gated) or the predicate-surviving
/// entries of the traversal buffer (post-filter), in ascending distance.
inline void CollectSurvivors(const TraversalState& st, const FilterView& filter,
                             bool push_down,
                             std::vector<SearchBuffer::Entry>* out) {
  out->clear();
  const SearchBuffer& from = push_down ? st.passing : st.buffer;
  for (size_t i = 0; i < from.size(); ++i) {
    if (push_down || filter.Pass(from[i].id)) out->push_back(from[i]);
  }
}

/// Reusable single-query searcher over one (graph, storage) pair. Not
/// thread-safe; create one per worker thread (batch parallelism is across
/// queries, as in the paper).
template <typename Storage>
class GreedySearcher {
 public:
  GreedySearcher(const FlatGraph* graph, const Storage* storage)
      : graph_(graph), storage_(storage), scratch_(storage->dim()) {}

  /// Runs Algorithm 1 from `entry_point`, returning the k best candidates.
  void Search(const float* query, size_t k, uint32_t entry_point,
              const SearchParams& params, SearchResult* out) {
    SearchParams p = params;
    p.window = std::max<uint32_t>(params.window, k);
    storage_->PrepareQuery(query, &query_state_);
    Traverse<PlainRows>(*graph_, *storage_, query_state_, entry_point, p,
                        &st_);
    out->distance_computations = st_.distance_computations;
    out->hops = st_.hops;
    ExtractTopK(k, params, out);
  }

  /// Accumulated candidates of the last search (ids in ascending-distance
  /// order), the whole window before the top-k extraction.
  const SearchBuffer& buffer() const { return st_.buffer; }

  const typename Storage::Query& query_state() const { return query_state_; }

 private:
  /// Selects the k results. With a second level present and rerank enabled,
  /// re-scores the top `rerank_window` candidates (all W when 0) through the
  /// shared Reranker seam (graph/reranker.h) first. The pool is sorted by
  /// primary distance, so a partial depth re-ranks the most promising
  /// prefix. Filtered searches select from the predicate survivors only, so
  /// the re-rank never spends FullDistance gathers on failing candidates.
  void ExtractTopK(size_t k, const SearchParams& params, SearchResult* out) {
    if (params.filter != nullptr) {
      CollectSurvivors(st_, *params.filter, params.filter_push_down,
                       &survivors_);
      EmitTopK(survivors_, k, params, out);
    } else {
      EmitTopK(st_.buffer, k, params, out);
    }
  }

  template <typename Pool>
  void EmitTopK(const Pool& pool, size_t k, const SearchParams& params,
                SearchResult* out) {
    const size_t m = RerankDepth(pool.size(), k, params.rerank_window);
    const size_t kk = std::min(k, m);
    if (params.rerank && storage_->has_second_level() && m > 0) {
      RescoreCandidates(*storage_, query_state_, pool, m,
                        /*sorted_prefix=*/kk, scratch_.data(), &rerank_);
      EmitRescored(
          rerank_, kk, [](uint32_t) { return false; }, &out->ids, &out->dists);
      return;
    }
    out->ids.resize(kk);
    out->dists.resize(kk);
    for (size_t i = 0; i < kk; ++i) {
      out->ids[i] = pool[i].id;
      out->dists[i] = pool[i].dist;
    }
  }

  const FlatGraph* graph_;
  const Storage* storage_;
  TraversalState st_;
  typename Storage::Query query_state_;
  std::vector<float> scratch_;
  std::vector<std::pair<float, uint32_t>> rerank_;
  std::vector<SearchBuffer::Entry> survivors_;  ///< filtered extraction pool
};

/// Adaptive widening loop shared by every filtered search path: runs
/// `run(window, out)` with geometrically growing windows until the result
/// holds k survivors (out->ids, pre-padding) or the window reaches
/// `widen_cap` (see ResolveWidenCap in filter/metadata.h). Work counters
/// accumulate across retries so QPS/work accounting reflects total cost.
template <typename RunFn>
void RunWidened(size_t k, uint32_t window0, uint32_t widen_cap, RunFn&& run,
                SearchResult* out) {
  size_t dc = 0;
  size_t hops = 0;
  uint32_t w = std::max<uint32_t>(window0, 1);
  for (;;) {
    run(w, out);
    dc += out->distance_computations;
    hops += out->hops;
    if (out->ids.size() >= k || w >= widen_cap) break;
    w = static_cast<uint32_t>(
        std::min<uint64_t>(widen_cap, uint64_t{w} * 2));
  }
  out->distance_computations = dc;
  out->hops = hops;
}

}  // namespace blink
