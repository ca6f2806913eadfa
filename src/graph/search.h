// Greedy graph search (paper Algorithm 1) with the Sec. 5 optimizations:
// sorted linear buffer, optional visited set, and software prefetching
// with a tunable (prefetch-offset, prefetch-step) schedule. Once the index
// outgrows the cache, search is bound by memory latency, so the schedule
// matters more than the kernels: Traverse gathers each hop's unvisited
// neighbours first and, by default, puts all of their vector fetches in
// flight before scoring the first one (DESIGN.md D16). GraphSearcher, the
// one searcher of the static and the dynamic index, adds the filter plan
// and the final two-level re-ranking gather when the storage has
// compressed residuals (Sec. 3.2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
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
/// counters of the last run (of all its steps, when resumed). Reused
/// across queries, never shared. A WideningState's traversal can be
/// resumed at a wider window.
template <typename Buffer>
struct BasicTraversalState {
  Buffer buffer;
  Buffer passing;  ///< predicate-passing results (push-down mode)
  VisitedSet visited;
  std::vector<uint32_t> pending;  ///< unvisited neighbours of one hop
  size_t distance_computations = 0;
  size_t hops = 0;
};
using TraversalState = BasicTraversalState<SearchBuffer>;
using WideningState = BasicTraversalState<WideningBuffer>;

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
///
/// With `resume` set, a WideningState's last traversal is widened to
/// `params.window` and continued, keeping its buffers, visited stamps and
/// counters. It ends with the buffers, ids and distance bits of a fresh
/// traversal at that window, scoring every node once (DESIGN.md D16). The
/// buffers' SetLimit must cover the widest window asked for.
template <typename Rows, typename Storage, typename Dead = NoDead,
          typename Buffer = SearchBuffer>
void Traverse(const FlatGraph& graph, const Storage& storage,
              const typename Storage::Query& query, uint32_t entry_point,
              const SearchParams& params, BasicTraversalState<Buffer>* st,
              Dead dead = {}, bool resume = false) {
  Buffer& buffer = st->buffer;
  // In-search push-down keeps a second sorted buffer holding only
  // predicate-passing candidates: the traversal (buffer) still routes
  // through failing vertices so connectivity is preserved, while the
  // result set is drawn from passing at extraction.
  const bool push_down = params.filter != nullptr && params.filter_push_down;
  const bool use_visited = params.use_visited_set;
  // Inlined like SearchBuffer::Insert: the per-candidate work.
  auto score = [&](uint32_t id) __attribute__((always_inline)) {
    const float d = storage.Distance(query, id);
    ++st->distance_computations;
    const bool is_dead = dead(id);
    buffer.Insert(d, id, is_dead);
    if (push_down && !is_dead && params.filter->Pass(id)) {
      st->passing.Insert(d, id);
    }
  };
  if constexpr (Buffer::kWidening) {
    if (resume) {
      buffer.Widen(params.window);
      if (push_down) st->passing.Widen(params.window);
    }
  }
  if (!Buffer::kWidening || !resume) {
    buffer.Reset(params.window);
    if (push_down) st->passing.Reset(params.window);
    if (use_visited) {
      if (st->visited.size() != graph.size()) st->visited.Resize(graph.size());
      st->visited.NextQuery();
    }
    st->distance_computations = 0;
    st->hops = 0;
    score(entry_point);
    if (use_visited) st->visited.CheckAndMark(entry_point);
  }
  st->pending.resize(graph.max_degree());
  uint32_t* pending = st->pending.data();

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

/// Entry point of a graph with nothing to search (a dynamic index with no
/// live vector), and the read guard of an index no thread mutates.
inline constexpr uint32_t kNoEntryPoint = UINT32_MAX;
struct NoReadGuard {};

/// The plan of a filtered query (DESIGN.md D15): PlanFilter's answer and
/// the selectivity estimate it was made from.
struct QueryPlan : FilterPlan {
  double selectivity = 1.0;  ///< unused (1) under explicit post-filtering
};

/// The one graph searcher of the static and the dynamic index (paper
/// Sec. 5; DESIGN.md D7, D16). It owns the per-thread state (prepared
/// query, traversal states, filter plan, re-rank scratch) and reads its
/// index through a small read view: types StorageT, Rows, Dead; dim();
/// Lock(), the read guard; and, under it, graph(), storage(), metadata()
/// (null: filtered queries fail closed), entry_point() (kNoEntryPoint
/// only if kMayBeEmpty), rows() in use, live_rows() and dead(). Static:
/// PlainRows / NoDead / NoReadGuard (graph/index.h); dynamic: AcquireRows
/// / tombstones / the epoch read lock (graph/dynamic.h). Not thread-safe:
/// one per worker thread, as batch parallelism is across queries.
template <typename View>
class GraphSearcher final : public Searcher {
 public:
  using Storage = typename View::StorageT;

  explicit GraphSearcher(View view)
      : Searcher(view.dim()), view_(view), decode_(view.dim()) {}

  /// One query as Searcher::Search runs it, without the padding: a
  /// filtered query runs under the filter plan (a scan, or a traversal
  /// widened until it has k survivors), and fails closed (no ids, no
  /// work) when the index has no usable metadata. `out` holds at most k
  /// ids and the work counters. The query must be finite
  /// (Searcher::Search checks that).
  void Run(const float* query, size_t k, const SearchOptions& options,
           SearchResult* out) {
    [[maybe_unused]] const auto guard = view_.Lock();
    SearchParams sp;
    sp.window = std::max<uint32_t>(options.window, static_cast<uint32_t>(k));
    sp.prefetch_offset = options.prefetch_offset;
    sp.prefetch_step = options.prefetch_step;
    sp.use_visited_set = options.use_visited_set;
    sp.rerank = options.rerank;
    sp.rerank_window = options.rerank_window;
    if (options.filter != nullptr && !ResolvePlan(options, k, &sp)) {
      Clear(out);
      return;
    }
    if (options.filter != nullptr && plan_.kind == FilterPlan::kScan) {
      Scan(query, k, sp, out);
      return;
    }
    RunLocked(query, k, sp, plan_.widen_cap, out);
  }

  /// One query at explicit graph knobs, bypassing the filter plan:
  /// `params.filter` (bound by the caller) and `filter_push_down` are
  /// used as given, and a filtered query widens from `params.window` up
  /// to `widen_cap` (no further than the window when 0).
  void Run(const float* query, size_t k, const SearchParams& params,
           SearchResult* out, uint32_t widen_cap = 0) {
    [[maybe_unused]] const auto guard = view_.Lock();
    RunLocked(query, k, params, widen_cap, out);
  }

  /// The candidate buffer of the last unfiltered traversal (or scan), the
  /// whole window in ascending distance, before the result epilogue.
  const SearchBuffer& buffer() const { return st_.buffer; }
  /// The same for the last filtered traversal, at its last window.
  const WideningBuffer& widened_buffer() const { return wide_.buffer; }
  /// The last query, as prepared for the storage.
  const typename Storage::Query& query_state() const { return query_; }
  /// The filter plan of the last filtered query.
  const QueryPlan& plan() const { return plan_; }

 private:
  using Dead = typename View::Dead;
  static constexpr bool kHasDead = !std::is_same_v<Dead, NoDead>;

  void SearchFinite(const float* query, size_t k, const SearchOptions& options,
                    uint32_t* ids, float* dists, BatchStats* stats) override {
    Run(query, k, options, &res_);
    WritePaddedRow(res_.ids.data(), res_.dists.data(), res_.ids.size(), k,
                   ids, dists);
    if (stats != nullptr) {
      stats->distance_computations += res_.distance_computations;
      stats->hops += res_.hops;
    }
  }

  static void Clear(SearchResult* out) {
    out->ids.clear();
    out->dists.clear();
    out->distance_computations = 0;
    out->hops = 0;
  }

  /// Binds `options.filter` to the index's metadata and resolves the plan
  /// (PlanFilter) into plan_ and `sp`: filter, push-down, start window.
  /// False (fail closed) without metadata or when the predicate names a
  /// column the store lacks; ValidateFor rejects both at the boundaries.
  bool ResolvePlan(const SearchOptions& options, size_t k, SearchParams* sp) {
    const MetadataStore* md = view_.metadata();
    const Predicate& filter = *options.filter;
    if (md == nullptr || !filter.ValidateFor(md->num_columns()).ok()) {
      return false;
    }
    const size_t live = view_.live_rows();
    plan_.selectivity = 1.0;
    if (options.filter_strategy != FilterStrategy::kPostFilter) {
      plan_.selectivity = CachedSelectivity(*md, filter, live);
    }
    static_cast<FilterPlan&>(plan_) =
        PlanFilter(options.filter_strategy, plan_.selectivity, live, k,
                   sp->window, options.filter_widen_cap);
    filter_ = FilterView{md, &filter};
    sp->filter = &filter_;
    sp->filter_push_down = plan_.kind == FilterPlan::kInSearch;
    sp->window = plan_.window0;
    return true;
  }

  /// EstimateSelectivity over the rows in use, cached for the last few
  /// predicates by value (a server decodes a fresh Predicate per request)
  /// and the live rows (a mutating index re-samples as it changes).
  double CachedSelectivity(const MetadataStore& md, const Predicate& filter,
                           size_t live) {
    for (const Estimate& e : estimates_) {
      if (e.live_rows == live && e.filter == filter) return e.selectivity;
    }
    if (estimates_.size() == 4) estimates_.erase(estimates_.begin());
    estimates_.push_back(
        {filter, live, EstimateSelectivity(md, filter, view_.rows())});
    return estimates_.back().selectivity;
  }

  void RunLocked(const float* query, size_t k, SearchParams sp,
                 uint32_t widen_cap, SearchResult* out) {
    Clear(out);
    const uint32_t ep = view_.entry_point();
    if constexpr (View::kMayBeEmpty) {
      if (ep == kNoEntryPoint) return;  // nothing live: all padding
    }
    const FlatGraph& graph = view_.graph();
    const Storage& storage = view_.storage();
    const Dead dead = view_.dead();
    storage.PrepareQuery(query, &query_);
    auto window_for = [k](uint32_t w) {
      return static_cast<uint32_t>(std::min<size_t>(
          std::max<size_t>(w, k), std::numeric_limits<uint32_t>::max()));
    };
    if (sp.filter == nullptr) {
      sp.window = window_for(sp.window);
      Traverse<typename View::Rows>(graph, storage, query_, ep, sp, &st_,
                                    dead);
      out->distance_computations = st_.distance_computations;
      out->hops = st_.hops;
      Emit(st_.buffer, k, sp, dead, out);
      return;
    }
    // Filtered: widen geometrically until the result holds k survivors or
    // the window reaches the cap, resuming one traversal (DESIGN.md D16).
    const uint32_t cap = std::max(widen_cap, sp.window);
    wide_.buffer.SetLimit(window_for(cap));
    wide_.passing.SetLimit(window_for(cap));
    uint32_t w = std::max<uint32_t>(sp.window, 1);
    for (bool resume = false;; resume = true) {
      sp.window = window_for(w);
      Traverse<typename View::Rows>(graph, storage, query_, ep, sp, &wide_,
                                    dead, resume);
      // Select from the predicate survivors only, so the re-rank never
      // spends a FullDistance gather on a failing id: the passing buffer
      // (push-down) or the passing part of the buffer.
      const WideningBuffer& from =
          sp.filter_push_down ? wide_.passing : wide_.buffer;
      survivors_.clear();
      for (size_t i = 0; i < from.size(); ++i) {
        if (sp.filter_push_down || sp.filter->Pass(from[i].id)) {
          survivors_.push_back(from[i]);
        }
      }
      Emit(survivors_, k, sp, dead, out);
      if (out->ids.size() >= k || w >= cap) break;
      w = static_cast<uint32_t>(std::min<uint64_t>(cap, uint64_t{w} * 2));
    }
    out->distance_computations = wide_.distance_computations;
    out->hops = wide_.hops;
  }

  /// The scan plan (DESIGN.md D15): no traversal. Every live row in use
  /// that passes is scored into the buffer, whose capacity (the plan's
  /// start window) the estimated passing rows fit, and the same epilogue
  /// gives the exact filtered top-k, with no hops.
  void Scan(const float* query, size_t k, const SearchParams& sp,
            SearchResult* out) {
    const Storage& storage = view_.storage();
    const Dead dead = view_.dead();
    storage.PrepareQuery(query, &query_);
    st_.buffer.Reset(sp.window);
    const size_t passing = MatchingRows(*filter_.store, *filter_.pred,
                                        view_.rows(), &matches_);
    size_t scored = 0;
    for (size_t i = 0; i < passing; ++i) {
      const uint32_t id = matches_[i];
      if (dead(id)) continue;
      st_.buffer.Insert(storage.Distance(query_, id), id);
      ++scored;
    }
    Clear(out);
    out->distance_computations = scored;
    Emit(st_.buffer, k, sp, dead, out);
  }

  /// The one result epilogue: the k nearest entries of `pool` (sorted by
  /// primary distance) that are not dead now. With a second level and
  /// `rerank` set, the top `rerank_window` live entries (all when 0) are
  /// first re-scored at full precision through the Reranker seam (paper
  /// Sec. 3.2, graph/reranker.h); the depth's slack is the pool's own dead
  /// count. Without dead ids only the k emitted pairs are sorted,
  /// otherwise the whole depth, so the dead-id skip may pass any prefix.
  /// Only primary distances count as distance computations.
  template <typename Pool>
  void Emit(const Pool& pool, size_t k, const SearchParams& sp,
            const Dead& dead, SearchResult* out) {
    out->ids.clear();
    out->dists.clear();
    const Storage& storage = view_.storage();
    if (sp.rerank && storage.has_second_level() && pool.size() > 0) {
      size_t slack = 0;
      if constexpr (kHasDead) {
        if (sp.rerank_window != 0) {
          for (size_t i = 0; i < pool.size(); ++i) slack += pool[i].dead;
        }
      }
      const size_t m = RerankDepth(pool.size(), k, sp.rerank_window, slack);
      RescoreCandidates(storage, query_, pool, m,
                        /*sorted_prefix=*/kHasDead ? m : k, decode_.data(),
                        &rerank_);
      EmitRescored(rerank_, k, dead, &out->ids, &out->dists);
      return;
    }
    for (size_t i = 0; i < pool.size() && out->ids.size() < k; ++i) {
      if (dead(pool[i].id)) continue;
      out->ids.push_back(pool[i].id);
      out->dists.push_back(pool[i].dist);
    }
  }

  struct Estimate {
    Predicate filter;
    size_t live_rows;
    double selectivity;
  };

  View view_;
  TraversalState st_;    ///< unfiltered traversals and scans
  WideningState wide_;   ///< filtered (widened) traversals
  typename Storage::Query query_;
  QueryPlan plan_;
  std::vector<Estimate> estimates_;  ///< the last four, oldest first
  FilterView filter_;  ///< the plan's filter bound to the metadata
  SearchResult res_;
  std::vector<float> decode_;  ///< dim floats (two-level re-rank)
  std::vector<std::pair<float, uint32_t>> rerank_;
  std::vector<SearchBuffer::Entry> survivors_;  ///< filtered extraction pool
  std::vector<uint32_t> matches_;  ///< a scan's passing rows
};

}  // namespace blink
