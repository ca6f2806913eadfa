// Traversal equivalence: every graph search now runs through the one
// Traverse loop (graph/search.h), and every index query through the one
// GraphSearcher. Before Traverse, the traversal existed three
// times — GreedySearcher::Search (static search and the builder),
// DynamicGraphIndex::CollectCandidates (the dynamic writer) and
// DynamicGraphIndex::CollectIntoScratch (the dynamic readers). This suite
// keeps verbatim frozen copies of those three loops, plus the builder and
// dynamic writer that embed them, and asserts that the production code
// produces identical ids AND distance bit patterns (and identical work
// counters and adjacency rows) on fixed-seed inputs. Prefetching cannot
// change what is scored or in which order, so every schedule must match.
// The builder and dynamic-writer cases also pin the one neighbourhood
// update (graph/builder.h) that both now share. Dynamic readers are pinned
// wherever no navigable tombstone exists; over tombstones the live-aware
// buffer deliberately differs from the frozen loop's window slack, so that
// step checks the result contract instead. Every input is deterministic; a
// failure here means behavior changed, not flakiness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "filter/predicate.h"
#include "filter/synthetic.h"
#include "graph/dynamic.h"
#include "graph/index.h"
#include "graph/search.h"
#include "testutil.h"
#include "util/prng.h"
#include "util/thread_pool.h"

namespace blink {
namespace {

using testutil::Fixture;

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// The same ids and distance bits, whatever the work.
void ExpectSameAnswer(const SearchResult& got, const SearchResult& want,
                      const std::string& what) {
  ASSERT_EQ(got.ids.size(), want.ids.size()) << what;
  ASSERT_EQ(got.dists.size(), want.dists.size()) << what;
  for (size_t i = 0; i < want.ids.size(); ++i) {
    ASSERT_EQ(got.ids[i], want.ids[i]) << what << " id at rank " << i;
    ASSERT_EQ(Bits(got.dists[i]), Bits(want.dists[i]))
        << what << " dist bits at rank " << i;
  }
}

void ExpectSameResult(const SearchResult& got, const SearchResult& want,
                      const std::string& what) {
  ASSERT_NO_FATAL_FAILURE(ExpectSameAnswer(got, want, what));
  ASSERT_EQ(got.distance_computations, want.distance_computations) << what;
  ASSERT_EQ(got.hops, want.hops) << what;
}

template <typename GotBuffer, typename WantBuffer>
void ExpectSameBuffer(const GotBuffer& got, const WantBuffer& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << what << " buffer id at " << i;
    ASSERT_EQ(Bits(got[i].dist), Bits(want[i].dist))
        << what << " buffer dist bits at " << i;
  }
}

/// The prefetch schedules every path is pinned under: off, the old
/// default (1, 2)-style lookahead, and the current default.
std::vector<std::pair<uint32_t, uint32_t>> Schedules() {
  const SearchParams defaults;
  return {{0, 0}, {1, 2}, {defaults.prefetch_offset, defaults.prefetch_step}};
}

std::string ScheduleName(const std::pair<uint32_t, uint32_t>& s) {
  return std::to_string(s.first) + "_" + std::to_string(s.second);
}

// ===========================================================================
// Frozen copy 1: the pre-Traverse GreedySearcher (static search + builder).
// ===========================================================================

/// Reusable single-query searcher over one (graph, storage) pair. Not
/// thread-safe; create one per worker thread (batch parallelism is across
/// queries, as in the paper).
template <typename Storage>
class OldGreedySearcher {
 public:
  OldGreedySearcher(const FlatGraph* graph, const Storage* storage)
      : graph_(graph), storage_(storage), scratch_(storage->dim()) {}

  /// Runs Algorithm 1 from `entry_point`, returning the k best candidates.
  void Search(const float* query, size_t k, uint32_t entry_point,
              const SearchParams& params, SearchResult* out) {
    const uint32_t window = std::max<uint32_t>(params.window, k);
    buffer_.Reset(window);
    // In-search push-down keeps a second sorted buffer holding only
    // predicate-passing candidates: the traversal (buffer_) still routes
    // through failing vertices so connectivity is preserved, while the
    // result set is drawn from passing_ at extraction.
    const bool push_down =
        params.filter != nullptr && params.filter_push_down;
    if (push_down) passing_.Reset(window);
    storage_->PrepareQuery(query, &query_state_);
    if (params.use_visited_set) {
      EnsureVisitedCapacity();
      visited_.NextQuery();
    }
    out->distance_computations = 0;
    out->hops = 0;

    const float d0 = storage_->Distance(query_state_, entry_point);
    ++out->distance_computations;
    buffer_.Insert(d0, entry_point);
    if (push_down && params.filter->Pass(entry_point)) {
      passing_.Insert(d0, entry_point);
    }
    if (params.use_visited_set) visited_.CheckAndMark(entry_point);

    // Safety bound: without a visited set a node can be re-expanded after
    // buffer eviction; convergence is monotone but we cap hops anyway.
    const size_t max_hops = 64 * static_cast<size_t>(window) + 256;

    long idx;
    while ((idx = buffer_.NextUnexplored()) >= 0 && out->hops < max_hops) {
      const uint32_t node = buffer_[static_cast<size_t>(idx)].id;
      buffer_.MarkExplored(static_cast<size_t>(idx));
      ++out->hops;

      const uint32_t* nbrs = graph_->neighbors(node);
      const uint32_t deg = graph_->degree(node);

      // Software prefetch schedule (Sec. 5): keep the prefetch pointer
      // `offset + step` vectors ahead of the compute pointer. step==0 and
      // offset==0 disables prefetching entirely.
      const uint32_t lookahead = params.prefetch_offset + params.prefetch_step;

      // Next-hop prefetch: NextUnexplored() is an idempotent cursor peek,
      // so the likely next expansion is known now — issue its adjacency
      // row and vector fetch to overlap with this node's distance
      // computations. On a mapped (out-of-core) index this is what turns a
      // cold page fault into work hidden behind compute; on a resident
      // index it is an ordinary cache-line prefetch. An Insert below can
      // still supersede the peeked candidate — the prefetch is then merely
      // wasted, never wrong.
      if (lookahead > 0) {
        const long next = buffer_.NextUnexplored();
        if (next >= 0) {
          const uint32_t next_node = buffer_[static_cast<size_t>(next)].id;
          graph_->PrefetchAdjacency(next_node);
          storage_->Prefetch(next_node);
        }
      }
      uint32_t pf = 0;
      if (lookahead > 0) {
        const uint32_t warm = std::min(deg, lookahead);
        for (; pf < warm; ++pf) storage_->Prefetch(nbrs[pf]);
      }
      for (uint32_t t = 0; t < deg; ++t) {
        if (lookahead > 0) {
          const uint32_t target = std::min(deg, t + 1 + lookahead);
          for (; pf < target; ++pf) storage_->Prefetch(nbrs[pf]);
        }
        const uint32_t cand = nbrs[t];
        if (params.use_visited_set && !visited_.CheckAndMark(cand)) continue;
        const float d = storage_->Distance(query_state_, cand);
        ++out->distance_computations;
        buffer_.Insert(d, cand);
        if (push_down && params.filter->Pass(cand)) passing_.Insert(d, cand);
      }
    }

    ExtractTopK(k, params, out);
  }

  /// Accumulated candidates of the last search (ids in ascending-distance
  /// order); used by the graph builder as the pruning candidate pool.
  const SearchBuffer& buffer() const { return buffer_; }

  const typename Storage::Query& query_state() const { return query_state_; }

 private:
  void EnsureVisitedCapacity() {
    if (visited_capacity_ != storage_->size()) {
      visited_.Resize(storage_->size());
      visited_capacity_ = storage_->size();
    }
  }

  /// Selects the k results. With a second level present and rerank enabled,
  /// re-scores the top `rerank_window` candidates (all W when 0) through the
  /// shared Reranker seam (graph/reranker.h) first. The buffer is sorted by
  /// primary distance, so a partial depth re-ranks the most promising
  /// prefix.
  void ExtractTopK(size_t k, const SearchParams& params, SearchResult* out) {
    if (params.filter != nullptr) {
      ExtractTopKFiltered(k, params, out);
      return;
    }
    const size_t m = RerankDepth(buffer_.size(), k, params.rerank_window);
    const size_t kk = std::min(k, m);
    if (params.rerank && storage_->has_second_level() && m > 0) {
      RescoreCandidates(*storage_, query_state_, buffer_, m,
                        /*sorted_prefix=*/kk, scratch_.data(), &rerank_);
      EmitRescored(
          rerank_, kk, [](uint32_t) { return false; }, &out->ids, &out->dists);
      return;
    }
    out->ids.resize(kk);
    out->dists.resize(kk);
    for (size_t i = 0; i < kk; ++i) {
      out->ids[i] = buffer_[i].id;
      out->dists[i] = buffer_[i].dist;
    }
  }

  /// Filtered selection. Survivors come from the passing_ buffer (push-down:
  /// already predicate-gated) or from filtering buffer_ (post-filter), and
  /// only those survivors enter the two-level re-score — the re-rank
  /// epilogue never spends FullDistance gathers on failing candidates.
  void ExtractTopKFiltered(size_t k, const SearchParams& params,
                           SearchResult* out) {
    survivors_.clear();
    if (params.filter_push_down) {
      for (size_t i = 0; i < passing_.size(); ++i) {
        survivors_.push_back(passing_[i]);
      }
    } else {
      for (size_t i = 0; i < buffer_.size(); ++i) {
        if (params.filter->Pass(buffer_[i].id)) {
          survivors_.push_back(buffer_[i]);
        }
      }
    }
    const size_t m = RerankDepth(survivors_.size(), k, params.rerank_window);
    const size_t kk = std::min(k, m);
    if (params.rerank && storage_->has_second_level() && m > 0) {
      RescoreCandidates(*storage_, query_state_, survivors_, m,
                        /*sorted_prefix=*/kk, scratch_.data(), &rerank_);
      EmitRescored(
          rerank_, kk, [](uint32_t) { return false; }, &out->ids, &out->dists);
      return;
    }
    out->ids.resize(kk);
    out->dists.resize(kk);
    for (size_t i = 0; i < kk; ++i) {
      out->ids[i] = survivors_[i].id;
      out->dists[i] = survivors_[i].dist;
    }
  }

  const FlatGraph* graph_;
  const Storage* storage_;
  SearchBuffer buffer_;
  SearchBuffer passing_;  ///< predicate-passing results (push-down mode)
  typename Storage::Query query_state_;
  VisitedSet visited_;
  size_t visited_capacity_ = 0;
  std::vector<float> scratch_;
  std::vector<std::pair<float, uint32_t>> rerank_;
  std::vector<SearchBuffer::Entry> survivors_;  ///< filtered extraction pool
};

// ===========================================================================
// Frozen copy of the builder around it (serial: the suite builds without a
// pool, and the pool only partitions phase 1 deterministically).
// ===========================================================================

struct OldCandidate {
  float dist;
  uint32_t id;
  bool operator<(const OldCandidate& o) const {
    return dist < o.dist || (dist == o.dist && id < o.id);
  }
};

template <typename Storage>
void OldBuilderPrune(const Storage& storage, std::vector<OldCandidate>& cands,
                     float alpha, uint32_t R, std::vector<float>& decode_buf,
                     typename Storage::Query& qstate,
                     std::vector<uint32_t>* out_neighbors) {
  out_neighbors->clear();
  std::vector<char> removed(cands.size(), 0);
  for (size_t s = 0; s < cands.size(); ++s) {
    if (removed[s]) continue;
    const OldCandidate star = cands[s];
    out_neighbors->push_back(star.id);
    if (out_neighbors->size() == R) break;
    storage.DecodeVector(star.id, decode_buf.data());
    storage.PrepareQuery(decode_buf.data(), &qstate);
    for (size_t t = s + 1; t < cands.size(); ++t) {
      if (removed[t]) continue;
      const float d_star_prime = storage.Distance(qstate, cands[t].id);
      if (alpha * (-d_star_prime) >= -cands[t].dist) removed[t] = 1;
    }
  }
}

template <typename Storage>
BuiltGraph OldBuildVamana(const Storage& storage,
                          const VamanaBuildParams& params) {
  const size_t n = storage.size();
  const size_t d = storage.dim();
  const uint32_t R = params.graph_max_degree;
  BuiltGraph out;
  out.graph = FlatGraph(n, R, params.use_huge_pages);
  if (n == 0) return out;
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
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  {
    Rng rng(params.seed);
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Bounded(i + 1)]);
    }
  }
  const size_t batch = 64;
  SearchParams sp;
  sp.window = std::max(params.window_size, R + 1);
  sp.use_visited_set = true;
  sp.rerank = false;
  sp.prefetch_offset = 0;  // the pre-Traverse default schedule
  sp.prefetch_step = 2;

  OldGreedySearcher<Storage> searcher(&out.graph, &storage);
  SearchResult result;
  std::vector<float> decode_buf(d);
  typename Storage::Query prune_query;
  std::vector<OldCandidate> cands;
  std::vector<uint32_t> pruned, pruned_nb;
  const int passes = params.two_passes ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    const float alpha = (pass + 1 == passes) ? params.alpha : 1.0f;
    std::vector<std::vector<OldCandidate>> batch_cands(batch);
    for (size_t begin = 0; begin < n; begin += batch) {
      const size_t end = std::min(n, begin + batch);
      const size_t m = end - begin;
      for (size_t t = 0; t < m; ++t) {
        const uint32_t node = order[begin + t];
        storage.DecodeVector(node, decode_buf.data());
        searcher.Search(decode_buf.data(), sp.window, out.entry_point, sp,
                        &result);
        auto& bc = batch_cands[t];
        bc.clear();
        const SearchBuffer& buf = searcher.buffer();
        for (size_t i = 0; i < buf.size(); ++i) {
          if (buf[i].id != node) bc.push_back({buf[i].dist, buf[i].id});
        }
      }
      for (size_t t = 0; t < m; ++t) {
        const uint32_t node = order[begin + t];
        cands = batch_cands[t];
        {
          storage.DecodeVector(node, decode_buf.data());
          typename Storage::Query nq;
          storage.PrepareQuery(decode_buf.data(), &nq);
          const uint32_t* nbrs = out.graph.neighbors(node);
          for (uint32_t e = 0; e < out.graph.degree(node); ++e) {
            cands.push_back({storage.Distance(nq, nbrs[e]), nbrs[e]});
          }
        }
        std::sort(cands.begin(), cands.end());
        cands.erase(std::unique(cands.begin(), cands.end(),
                                [](const OldCandidate& a,
                                   const OldCandidate& b) {
                                  return a.id == b.id;
                                }),
                    cands.end());
        if (cands.size() > params.max_candidates) {
          cands.resize(params.max_candidates);
        }
        OldBuilderPrune(storage, cands, alpha, R, decode_buf, prune_query,
                        &pruned);
        out.graph.SetNeighbors(node, pruned.data(),
                               static_cast<uint32_t>(pruned.size()));
        for (uint32_t nb : pruned) {
          const uint32_t* nb_nbrs = out.graph.neighbors(nb);
          const uint32_t nb_deg = out.graph.degree(nb);
          bool present = false;
          for (uint32_t e = 0; e < nb_deg; ++e) {
            if (nb_nbrs[e] == node) {
              present = true;
              break;
            }
          }
          if (present) continue;
          if (!out.graph.AddNeighbor(nb, node)) {
            storage.DecodeVector(nb, decode_buf.data());
            typename Storage::Query nq;
            storage.PrepareQuery(decode_buf.data(), &nq);
            std::vector<OldCandidate> nb_cands;
            const uint32_t* nbrs = out.graph.neighbors(nb);
            for (uint32_t e = 0; e < out.graph.degree(nb); ++e) {
              nb_cands.push_back({storage.Distance(nq, nbrs[e]), nbrs[e]});
            }
            nb_cands.push_back({storage.Distance(nq, node), node});
            std::sort(nb_cands.begin(), nb_cands.end());
            OldBuilderPrune(storage, nb_cands, alpha, R, decode_buf,
                            prune_query, &pruned_nb);
            out.graph.SetNeighbors(nb, pruned_nb.data(),
                                   static_cast<uint32_t>(pruned_nb.size()));
          }
        }
      }
    }
  }
  return out;
}

// ===========================================================================
// Frozen copy of the restarting widening loop (RunWidened) that filtered
// searches ran before GraphSearcher resumed one traversal: every window
// step started over from the entry point.
// ===========================================================================

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

// ===========================================================================
// Frozen copy 2: DynamicGraphIndex::CollectIntoScratch (dynamic readers),
// over the index's public state, with the pre-Traverse Search driver and
// the one-level extraction epilogue around it.
// ===========================================================================

template <typename Storage>
struct OldReaderScratch {
  SearchBuffer buffer;
  SearchBuffer passing;
  VisitedSet visited;
  size_t visited_capacity = 0;
  std::vector<uint32_t> neighbors;
  typename Storage::Query query;
  uint64_t distance_computations = 0;
  uint64_t hops = 0;
};

/// The removed FlatGraph::CopyNeighborsAcquire, by its replacement.
uint32_t CopyNeighborsAcquire(const FlatGraph& graph, uint32_t node,
                              uint32_t* out) {
  uint32_t deg = 0;
  graph.ForEachNeighborAcquire(node, [&](uint32_t id) { out[deg++] = id; });
  return deg;
}

template <typename Storage>
void OldCollectIntoScratch(const DynamicGraphIndex<Storage>& idx,
                           const float* query, uint32_t window,
                           OldReaderScratch<Storage>* scratch,
                           const FilterView* filter = nullptr,
                           bool push_down = false) {
  const FlatGraph& graph_ = idx.graph();
  const Storage& storage_ = idx.storage();
  const size_t capacity_ = idx.capacity();
  const bool push = filter != nullptr && push_down;
  scratch->buffer.Reset(window);
  if (push) scratch->passing.Reset(window);
  scratch->distance_computations = 0;
  scratch->hops = 0;
  const uint32_t ep = idx.entry_point();
  if (ep == DynamicGraphIndex<Storage>::kNoEntry) return;
  storage_.PrepareQuery(query, &scratch->query);
  if (scratch->visited_capacity != capacity_) {
    scratch->visited.Resize(capacity_);
    scratch->visited_capacity = capacity_;
  }
  scratch->visited.NextQuery();
  scratch->neighbors.resize(graph_.max_degree());
  uint32_t* nbrs = scratch->neighbors.data();

  const float d0 = storage_.Distance(scratch->query, ep);
  scratch->buffer.Insert(d0, ep);
  if (push && filter->Pass(ep)) scratch->passing.Insert(d0, ep);
  scratch->visited.CheckAndMark(ep);
  ++scratch->distance_computations;
  long idx_;
  while ((idx_ = scratch->buffer.NextUnexplored()) >= 0) {
    const uint32_t node = scratch->buffer[static_cast<size_t>(idx_)].id;
    scratch->buffer.MarkExplored(static_cast<size_t>(idx_));
    ++scratch->hops;
    const uint32_t deg = CopyNeighborsAcquire(graph_, node, nbrs);
    for (uint32_t t = 0; t < deg; ++t) {
      const uint32_t cand = nbrs[t];
      if (!scratch->visited.CheckAndMark(cand)) continue;
      const float d = storage_.Distance(scratch->query, cand);
      scratch->buffer.Insert(d, cand);
      if (push && filter->Pass(cand)) scratch->passing.Insert(d, cand);
      ++scratch->distance_computations;
    }
  }
}

/// The pre-Traverse DynamicGraphIndex::Search for a storage without a
/// second level: tombstone-slack window, the frozen traversal, survivor
/// pool (filtered), tombstone-skipping top-k, adaptive widening, padding.
template <typename Storage>
void OldDynamicSearch(const DynamicGraphIndex<Storage>& idx,
                      const float* query, size_t k, uint32_t window,
                      const FilterView* filter, bool push_down,
                      uint32_t widen_cap, OldReaderScratch<Storage>* scratch,
                      SearchResult* out) {
  out->ids.clear();
  out->dists.clear();
  out->distance_computations = 0;
  out->hops = 0;
  const size_t tomb = idx.num_tombstones();
  auto run_one = [&](uint32_t base_window, SearchResult* res) {
    const size_t want = std::max<size_t>(base_window, k + tomb);
    const uint32_t w = static_cast<uint32_t>(
        std::min<size_t>(want, std::numeric_limits<uint32_t>::max()));
    OldCollectIntoScratch(idx, query, w, scratch, filter, push_down);
    res->distance_computations = scratch->distance_computations;
    res->hops = scratch->hops;
    std::vector<SearchBuffer::Entry> pool;
    const SearchBuffer& from =
        filter != nullptr && push_down ? scratch->passing : scratch->buffer;
    for (size_t i = 0; i < from.size(); ++i) {
      if (filter == nullptr || push_down || filter->Pass(from[i].id)) {
        pool.push_back(from[i]);
      }
    }
    res->ids.clear();
    res->dists.clear();
    for (const SearchBuffer::Entry& e : pool) {
      if (idx.IsDeleted(e.id)) continue;
      res->ids.push_back(e.id);
      res->dists.push_back(e.dist);
      if (res->ids.size() == k) break;
    }
  };
  if (filter == nullptr) {
    run_one(window, out);
  } else {
    RunWidened(k, window, std::max(widen_cap, window), run_one, out);
  }
  out->ids.resize(k, kInvalidId);
  out->dists.resize(k, kInvalidDist);
}

// ===========================================================================
// Frozen copy 3: DynamicGraphIndex::CollectCandidates, inside a frozen
// single-threaded copy of the writer (Insert / Delete / ConsolidateDeletes)
// so the adjacency it produces can be compared row by row.
// ===========================================================================

template <typename Storage>
class OldDynamicWriter {
 public:
  static constexpr uint32_t kNoEntry = UINT32_MAX;
  static constexpr uint8_t kLive = 0, kTombstone = 1, kPurged = 2;

  OldDynamicWriter(size_t dim, const DynamicOptions& opts, Storage storage)
      : opts_(opts), storage_(std::move(storage)), writer_decode_(dim) {
    Grow(std::max<size_t>(opts.initial_capacity, 16));
  }

  uint32_t Insert(const float* vec) {
    uint32_t id;
    bool recycled = false;
    if (!free_slots_.empty()) {
      id = free_slots_.back();
      free_slots_.pop_back();
      recycled = true;
    } else {
      Grow(n_ + 1);
      id = static_cast<uint32_t>(n_);
    }
    storage_.Set(id, vec);
    if (recycled) {
      deleted_[id] = kLive;
      --num_deleted_;
    } else {
      ++n_;
    }
    if (n_ - num_deleted_ == 1) {
      graph_.Clear(id);
      entry_point_ = id;
      return id;
    }
    std::vector<OldCandidate> cands;
    CollectCandidates(
        vec, std::max(opts_.build_window, opts_.graph_max_degree + 1), &cands);
    cands.erase(std::remove_if(cands.begin(), cands.end(),
                               [&](const OldCandidate& c) { return c.id == id; }),
                cands.end());
    std::vector<uint32_t> pruned;
    RobustPrune(cands, &pruned);
    graph_.SetNeighbors(id, pruned.data(), static_cast<uint32_t>(pruned.size()));
    std::vector<OldCandidate> nb_cands;
    std::vector<uint32_t> nb_pruned;
    for (uint32_t nb : pruned) {
      const uint32_t* nbrs = graph_.neighbors(nb);
      const uint32_t deg = graph_.degree(nb);
      bool present = false;
      for (uint32_t e = 0; e < deg; ++e) {
        if (nbrs[e] == id) {
          present = true;
          break;
        }
      }
      if (present) continue;
      if (!graph_.AddNeighbor(nb, id)) {
        nb_cands.clear();
        PrepareStored(nb, &writer_query_);
        for (uint32_t e = 0; e < deg; ++e) {
          nb_cands.push_back(
              {storage_.Distance(writer_query_, nbrs[e]), nbrs[e]});
        }
        nb_cands.push_back({storage_.Distance(writer_query_, id), id});
        RobustPrune(nb_cands, &nb_pruned);
        graph_.SetNeighbors(nb, nb_pruned.data(),
                            static_cast<uint32_t>(nb_pruned.size()));
      }
    }
    return id;
  }

  void Delete(uint32_t id) {
    deleted_[id] = kTombstone;
    ++num_deleted_;
    ++num_tombstones_;
    if (id == entry_point_) {
      entry_point_ = kNoEntry;
      for (size_t i = 0; i < n_; ++i) {
        if (deleted_[i] == kLive) {
          entry_point_ = static_cast<uint32_t>(i);
          break;
        }
      }
    }
  }

  void ConsolidateDeletes() {
    if (num_tombstones_ == 0) return;
    std::vector<OldCandidate> cands;
    std::vector<uint32_t> pruned;
    for (size_t i = 0; i < n_; ++i) {
      if (deleted_[i] != kLive) continue;
      const uint32_t* nbrs = graph_.neighbors(i);
      const uint32_t deg = graph_.degree(i);
      bool touches_deleted = false;
      for (uint32_t e = 0; e < deg; ++e) {
        if (deleted_[nbrs[e]] != kLive) {
          touches_deleted = true;
          break;
        }
      }
      if (!touches_deleted) continue;
      cands.clear();
      PrepareStored(static_cast<uint32_t>(i), &writer_query_);
      for (uint32_t e = 0; e < deg; ++e) {
        const uint32_t nb = nbrs[e];
        if (deleted_[nb] == kLive) {
          cands.push_back({storage_.Distance(writer_query_, nb), nb});
          continue;
        }
        const uint32_t* second = graph_.neighbors(nb);
        for (uint32_t s = 0; s < graph_.degree(nb); ++s) {
          const uint32_t nn = second[s];
          if (deleted_[nn] == kLive && nn != i) {
            cands.push_back({storage_.Distance(writer_query_, nn), nn});
          }
        }
      }
      RobustPrune(cands, &pruned);
      graph_.SetNeighbors(i, pruned.data(),
                          static_cast<uint32_t>(pruned.size()));
    }
    for (size_t i = 0; i < n_; ++i) {
      if (deleted_[i] == kTombstone) {
        graph_.Clear(i);
        free_slots_.push_back(static_cast<uint32_t>(i));
        deleted_[i] = kPurged;
        --num_tombstones_;
      }
    }
  }

  const FlatGraph& graph() const { return graph_; }
  size_t size() const { return n_; }
  uint32_t entry_point() const { return entry_point_; }
  const std::vector<uint32_t>& free_slots() const { return free_slots_; }

 private:
  void Grow(size_t min_capacity) {
    if (min_capacity <= capacity_) return;
    const size_t new_cap = std::max<size_t>(capacity_ * 2, min_capacity);
    storage_.Grow(new_cap);
    deleted_.resize(new_cap, 0);
    FlatGraph bigger(new_cap, opts_.graph_max_degree, false);
    for (size_t i = 0; i < n_; ++i) {
      bigger.SetNeighbors(i, graph_.neighbors(i), graph_.degree(i));
    }
    graph_ = std::move(bigger);
    capacity_ = new_cap;
  }

  void PrepareStored(uint32_t id, typename Storage::Query* q) {
    storage_.DecodeVector(id, writer_decode_.data());
    storage_.PrepareQuery(writer_decode_.data(), q);
  }

  // The frozen loop itself (verbatim apart from member names).
  void CollectCandidates(const float* query, uint32_t window,
                         std::vector<OldCandidate>* out) {
    out->clear();
    const uint32_t ep = entry_point_;
    if (ep == kNoEntry) return;
    storage_.PrepareQuery(query, &writer_query_);
    SearchBuffer buffer(window);
    VisitedSet visited(capacity_);
    visited.NextQuery();
    buffer.Insert(storage_.Distance(writer_query_, ep), ep);
    visited.CheckAndMark(ep);
    long idx;
    while ((idx = buffer.NextUnexplored()) >= 0) {
      const uint32_t node = buffer[static_cast<size_t>(idx)].id;
      buffer.MarkExplored(static_cast<size_t>(idx));
      const uint32_t* nbrs = graph_.neighbors(node);
      const uint32_t deg = graph_.degree(node);
      for (uint32_t t = 0; t < deg; ++t) {
        const uint32_t cand = nbrs[t];
        if (!visited.CheckAndMark(cand)) continue;
        buffer.Insert(storage_.Distance(writer_query_, cand), cand);
      }
    }
    out->reserve(buffer.size());
    for (size_t i = 0; i < buffer.size(); ++i) {
      out->push_back({buffer[i].dist, buffer[i].id});
    }
  }

  void RobustPrune(std::vector<OldCandidate>& cands,
                   std::vector<uint32_t>* out) {
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end(),
                            [](const OldCandidate& a, const OldCandidate& b) {
                              return a.id == b.id;
                            }),
                cands.end());
    out->clear();
    std::vector<char> removed(cands.size(), 0);
    const float alpha = opts_.alpha;
    for (size_t s = 0; s < cands.size(); ++s) {
      if (removed[s]) continue;
      out->push_back(cands[s].id);
      if (out->size() == opts_.graph_max_degree) break;
      PrepareStored(cands[s].id, &prune_query_);
      for (size_t t = s + 1; t < cands.size(); ++t) {
        if (removed[t]) continue;
        if (alpha * (-storage_.Distance(prune_query_, cands[t].id)) >=
            -cands[t].dist) {
          removed[t] = 1;
        }
      }
    }
  }

  DynamicOptions opts_;
  size_t capacity_ = 0;
  size_t n_ = 0;
  size_t num_deleted_ = 0;
  size_t num_tombstones_ = 0;
  Storage storage_;
  FlatGraph graph_;
  std::vector<uint8_t> deleted_;
  std::vector<uint32_t> free_slots_;
  uint32_t entry_point_ = kNoEntry;
  typename Storage::Query writer_query_;
  typename Storage::Query prune_query_;
  std::vector<float> writer_decode_;
};

void ExpectSameRows(const FlatGraph& got, const FlatGraph& want, size_t n,
                    const std::string& what) {
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got.degree(i), want.degree(i)) << what << " degree of row " << i;
    for (uint32_t e = 0; e < want.degree(i); ++e) {
      ASSERT_EQ(got.neighbors(i)[e], want.neighbors(i)[e])
          << what << " row " << i << " slot " << e;
    }
  }
}

// ===========================================================================
// Static search: f32 and LVQ-4x8, visited set on and off, every schedule.
// ===========================================================================

template <typename Storage>
void CheckStaticSearch(const VamanaIndex<Storage>& idx, MatrixViewF queries,
                       const FilterView* filter, bool push_down,
                       const std::string& name) {
  GraphSearcher now(idx.read_view());
  OldGreedySearcher<Storage> old(&idx.graph(), &idx.storage());
  for (bool visited : {true, false}) {
    for (const auto& sched : Schedules()) {
      SearchParams sp;
      sp.window = 40;
      sp.use_visited_set = visited;
      sp.prefetch_offset = sched.first;
      sp.prefetch_step = sched.second;
      sp.filter = filter;
      sp.filter_push_down = push_down;
      for (size_t qi = 0; qi < queries.rows; ++qi) {
        const std::string what = name + " visited=" + std::to_string(visited) +
                                 " schedule " + ScheduleName(sched) +
                                 " query " + std::to_string(qi);
        SearchResult got, want;
        now.Run(queries.row(qi), 10, sp, &got);
        old.Search(queries.row(qi), 10, idx.entry_point(), sp, &want);
        ASSERT_NO_FATAL_FAILURE(ExpectSameResult(got, want, what));
        if (filter == nullptr) {
          ASSERT_NO_FATAL_FAILURE(
              ExpectSameBuffer(now.buffer(), old.buffer(), what));
        } else {
          ASSERT_NO_FATAL_FAILURE(
              ExpectSameBuffer(now.widened_buffer(), old.buffer(), what));
        }
      }
    }
  }
}

TEST(TraverseEquivalence, StaticF32MatchesFrozenLoop) {
  const Fixture f(MakeDeepLike(1200, 40, 401));
  auto idx = BuildVamanaF32(f.data.base, f.data.metric, f.bp);
  CheckStaticSearch(*idx, f.data.queries, nullptr, false, "f32");
}

TEST(TraverseEquivalence, StaticLvq4x8MatchesFrozenLoop) {
  const Fixture f(MakeDeepLike(1200, 40, 402));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 4, 8, f.bp);
  CheckStaticSearch(*idx, f.data.queries, nullptr, false, "lvq4x8");
}

TEST(TraverseEquivalence, StaticFilteredMatchesFrozenLoop) {
  const Fixture f(MakeDeepLike(1200, 30, 403));
  auto idx = BuildOgLvq(f.data.base, f.data.metric, 4, 8, f.bp);
  const MetadataStore md =
      MakeSyntheticMetadata(f.data.base.rows(), {ColumnType::kF64}, 17);
  const Predicate pred = Predicate::Parse("num0<0.1").value();
  const FilterView view{&md, &pred};
  for (bool push_down : {true, false}) {
    CheckStaticSearch(*idx, f.data.queries, &view, push_down,
                      push_down ? "push-down" : "post-filter");
  }
}

// ===========================================================================
// Builder: the graph bytes of a small build.
// ===========================================================================

/// The production build (serial, or over `pool`) against the serial frozen
/// copy: up to 8 threads the batches, and so the graph, are the same.
template <typename Storage>
void CheckBuild(const Storage& storage, const VamanaBuildParams& bp,
                const std::string& name, ThreadPool* pool = nullptr) {
  const BuiltGraph got = BuildVamana(storage, bp, pool);
  const BuiltGraph want = OldBuildVamana(storage, bp);
  ASSERT_EQ(got.entry_point, want.entry_point) << name;
  ExpectSameRows(got.graph, want.graph, storage.size(), name);
}

TEST(TraverseEquivalence, BuildVamanaGraphIsUnchanged) {
  const Fixture f(MakeDeepLike(700, 1, 404));
  CheckBuild(FloatStorage(f.data.base, f.data.metric), f.bp, "f32 build");
  CheckBuild(LvqStorage(f.data.base, f.data.metric, 8), f.bp, "lvq8 build");
  const LvqStorage lvq4x8(f.data.base, f.data.metric, 4, 8, 32);
  CheckBuild(lvq4x8, f.bp, "lvq4x8 build");
  // Inner product: the Fixture's alpha is 0.95, the similarity-form rule.
  const Fixture ip(MakeT2iLike(700, 1, 407));
  ASSERT_EQ(ip.data.metric, Metric::kInnerProduct);
  CheckBuild(FloatStorage(ip.data.base, ip.data.metric), ip.bp, "ip f32 build");
  CheckBuild(LvqStorage(ip.data.base, ip.data.metric, 8), ip.bp,
             "ip lvq8 build");
  ThreadPool pool(4);
  CheckBuild(FloatStorage(f.data.base, f.data.metric), f.bp,
             "f32 build, 4 threads", &pool);
  CheckBuild(lvq4x8, f.bp, "lvq4x8 build, 4 threads", &pool);
}

// ===========================================================================
// Dynamic indexes (f32, LVQ-8, LVQ-4x8): writer adjacency and reader results
// through a seeded insert / delete / consolidate / recycle sequence.
// ===========================================================================

/// A dynamic reader's answer as the frozen search gives it: padded to k.
template <typename View>
void RunPadded(GraphSearcher<View>& searcher, const float* query, size_t k,
               const SearchParams& sp, uint32_t widen_cap, SearchResult* out) {
  searcher.Run(query, k, sp, out, widen_cap);
  out->ids.resize(k, kInvalidId);
  out->dists.resize(k, kInvalidDist);
}

/// Readers against the frozen one-level loop. The frozen epilogue has no
/// re-rank, so the comparison runs with `rerank` off (a no-op for storages
/// without a second level). Filtered modes widen: the frozen loop starts
/// over at every window, the searcher resumes, so there the ids, distance
/// bits and final buffer must match while the work may only be smaller.
template <typename Storage>
void CheckDynamicSearch(const DynamicGraphIndex<Storage>& idx,
                        MatrixViewF queries, const std::string& name) {
  const Predicate pred = Predicate::Parse("num0<0.1").value();
  const FilterView view{idx.metadata(), &pred};
  struct Mode {
    const FilterView* filter;
    bool push_down;
    const char* name;
  };
  const Mode modes[] = {{nullptr, false, "unfiltered"},
                        {&view, true, "push-down"},
                        {&view, false, "post-filter"}};
  const uint32_t widen_cap = 512;
  for (const Mode& mode : modes) {
    for (const auto& sched : Schedules()) {
      GraphSearcher now(idx.read_view());
      OldReaderScratch<Storage> old_scratch;
      SearchParams sp;
      sp.window = 40;
      sp.prefetch_offset = sched.first;
      sp.prefetch_step = sched.second;
      sp.rerank = false;
      sp.filter = mode.filter;
      sp.filter_push_down = mode.push_down;
      for (size_t qi = 0; qi < queries.rows; ++qi) {
        const std::string what = name + " " + mode.name + " schedule " +
                                 ScheduleName(sched) + " query " +
                                 std::to_string(qi);
        SearchResult got, want;
        RunPadded(now, queries.row(qi), 10, sp, widen_cap, &got);
        OldDynamicSearch(idx, queries.row(qi), 10, sp.window, mode.filter,
                         mode.push_down, widen_cap, &old_scratch, &want);
        if (mode.filter == nullptr) {
          ASSERT_NO_FATAL_FAILURE(ExpectSameResult(got, want, what));
          ASSERT_NO_FATAL_FAILURE(
              ExpectSameBuffer(now.buffer(), old_scratch.buffer, what));
          continue;
        }
        ASSERT_LE(got.distance_computations, want.distance_computations)
            << what;
        ASSERT_LE(got.hops, want.hops) << what;
        ASSERT_NO_FATAL_FAILURE(ExpectSameAnswer(got, want, what));
        ASSERT_NO_FATAL_FAILURE(
            ExpectSameBuffer(now.widened_buffer(), old_scratch.buffer, what));
      }
    }
  }
}

/// Readers over navigable tombstones. The frozen loop widened every
/// window by the index-wide tombstone count; the live-aware buffer expands
/// tombstones without counting them toward the window, so its ids may
/// differ. What it must give instead: k distinct live ids (passing the
/// filter), none tombstoned, in ascending distance, each with the distance
/// bits of a fresh Distance, for fewer distance computations over all the
/// step's searches than the frozen loop spent. (Post-filtering alone can
/// cost more: its widening now starts from the caller's window rather than
/// one inflated by the tombstone count.)
template <typename Storage>
void CheckTombstonedSearch(const DynamicGraphIndex<Storage>& idx,
                           MatrixViewF queries, const std::string& name) {
  const Predicate pred = Predicate::Parse("num0<0.1").value();
  const FilterView view{idx.metadata(), &pred};
  struct Mode {
    const FilterView* filter;
    bool push_down;
    const char* name;
  };
  const Mode modes[] = {{nullptr, false, "unfiltered"},
                        {&view, true, "push-down"},
                        {&view, false, "post-filter"}};
  const uint32_t widen_cap = 512;
  const size_t k = 10;
  typename Storage::Query fresh;
  size_t got_distances = 0, frozen_distances = 0;
  for (const Mode& mode : modes) {
    for (const auto& sched : Schedules()) {
      GraphSearcher now(idx.read_view());
      OldReaderScratch<Storage> old_scratch;
      SearchParams sp;
      sp.window = 40;
      sp.prefetch_offset = sched.first;
      sp.prefetch_step = sched.second;
      sp.rerank = false;
      sp.filter = mode.filter;
      sp.filter_push_down = mode.push_down;
      for (size_t qi = 0; qi < queries.rows; ++qi) {
        const std::string what = name + " " + mode.name + " schedule " +
                                 ScheduleName(sched) + " query " +
                                 std::to_string(qi);
        SearchResult got, frozen;
        RunPadded(now, queries.row(qi), k, sp, widen_cap, &got);
        OldDynamicSearch(idx, queries.row(qi), k, sp.window, mode.filter,
                         mode.push_down, widen_cap, &old_scratch, &frozen);
        got_distances += got.distance_computations;
        frozen_distances += frozen.distance_computations;
        idx.storage().PrepareQuery(queries.row(qi), &fresh);
        ASSERT_EQ(got.ids.size(), k) << what;
        for (size_t r = 0; r < k; ++r) {
          const uint32_t id = got.ids[r];
          ASSERT_NE(id, kInvalidId) << what << " padded at rank " << r;
          ASSERT_FALSE(idx.IsDeleted(id)) << what << " tombstone " << id;
          ASSERT_EQ(std::count(got.ids.begin(), got.ids.end(), id), 1)
              << what << " repeats " << id;
          if (mode.filter != nullptr) {
            ASSERT_TRUE(mode.filter->Pass(id)) << what << " fails " << id;
          }
          ASSERT_EQ(Bits(got.dists[r]),
                    Bits(idx.storage().Distance(fresh, id)))
              << what << " dist bits at rank " << r;
          if (r > 0) {
            ASSERT_LE(got.dists[r - 1], got.dists[r]) << what;
          }
        }
      }
    }
  }
  ASSERT_LT(got_distances, frozen_distances) << name;
}

/// Drives the production index and the frozen writer through the same
/// sequence; `make_storage()` returns an empty storage for each.
template <typename Storage, typename MakeStorage>
void CheckDynamicSequence(const Dataset& data, MakeStorage make_storage,
                          const std::string& name) {
  const size_t dim = data.base.cols();
  DynamicOptions opts;
  opts.graph_max_degree = 16;
  opts.build_window = 40;
  opts.metric = data.metric;
  opts.initial_capacity = 64;  // several Grow()s along the way
  DynamicGraphIndex<Storage> idx(dim, opts, make_storage());
  OldDynamicWriter<Storage> old(dim, opts, make_storage());

  size_t next_row = 0;
  auto insert = [&](size_t count) {
    for (size_t i = 0; i < count; ++i, ++next_row) {
      const uint32_t a = idx.Insert(data.base.row(next_row));
      const uint32_t b = old.Insert(data.base.row(next_row));
      ASSERT_EQ(a, b) << name << " insert " << next_row;
    }
  };
  auto check_rows = [&](const std::string& step) {
    const std::string what = name + " " + step;
    ASSERT_EQ(idx.size(), old.size()) << what;
    ASSERT_EQ(idx.entry_point(), old.entry_point()) << what;
    ASSERT_EQ(idx.free_slots(), old.free_slots()) << what;
    ExpectSameRows(idx.graph(), old.graph(), idx.size(), what);
    const Status invariants = idx.CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << what << ": " << invariants.ToString();
  };

  insert(500);
  ASSERT_NO_FATAL_FAILURE(check_rows("after 500 inserts"));
  // Tombstone a seeded slice, the entry point (id 0) included, then insert
  // through the tombstones.
  Rng rng(406);
  for (uint32_t id = 0; id < 500; ++id) {
    if (id == 0 || rng.Bounded(6) == 0) {
      ASSERT_TRUE(idx.Delete(id).ok());
      old.Delete(id);
    }
  }
  ASSERT_NO_FATAL_FAILURE(check_rows("after deletes"));
  insert(150);
  ASSERT_NO_FATAL_FAILURE(check_rows("inserts over tombstones"));
  ASSERT_GT(idx.num_tombstones(), 0u);
  ASSERT_TRUE(idx.AttachMetadata(std::make_shared<MetadataStore>(
                                     MakeSyntheticMetadata(
                                         idx.size(), {ColumnType::kF64}, 19)))
                  .ok());
  CheckTombstonedSearch(idx, data.queries, name + " tombstoned");

  idx.ConsolidateDeletes();
  old.ConsolidateDeletes();
  ASSERT_NO_FATAL_FAILURE(check_rows("after consolidate"));
  CheckDynamicSearch(idx, data.queries, name + " consolidated");

  insert(data.base.rows() - next_row);  // recycles every purged slot
  ASSERT_NO_FATAL_FAILURE(check_rows("after recycling inserts"));
  CheckDynamicSearch(idx, data.queries, name + " recycled");
}

TEST(TraverseEquivalence, DynamicLvq8WriterAndReadersMatchFrozenLoops) {
  const Dataset data = MakeDeepLike(900, 30, 405);
  const std::vector<float> mean =
      ComputeMean(data.base, kDynamicMeanSampleRows);
  CheckDynamicSequence<LvqStorage>(
      data,
      [&] { return LvqStorage(LvqDataset(mean, {.bits = 8}), data.metric); },
      "lvq8");
  CheckDynamicSequence<LvqStorage>(
      data,
      [&] {
        return LvqStorage(LvqDataset(mean, {.bits = 4, .bits2 = 8}),
                          data.metric);
      },
      "lvq4x8");
  CheckDynamicSequence<FloatStorage>(
      data, [&] { return FloatStorage(data.base.cols(), data.metric); },
      "f32");
}

// ===========================================================================
// The static index against the same rows and graph frozen as a dynamic
// index: one GraphSearcher, two read views.
// ===========================================================================

/// Restores a dynamic index, with no deletes, over a copy of `idx`: the
/// same rows encoded again (encoding is deterministic) and the same rows of
/// adjacency, with `md` attached.
std::unique_ptr<DynamicLvqIndex> FrozenDynamicCopy(
    const VamanaIndex<LvqStorage>& idx, MatrixViewF base,
    const MetadataStore& md) {
  const LvqStorage& s = idx.storage();
  LvqStorage storage(base, s.metric(), s.bits1(), s.bits2(), /*padding=*/32);
  const size_t n = storage.size();
  FlatGraph graph(n, idx.graph().max_degree(), /*use_huge_pages=*/false);
  for (size_t i = 0; i < n; ++i) {
    graph.SetNeighbors(i, idx.graph().neighbors(i), idx.graph().degree(i));
  }
  DynamicOptions opts;
  opts.graph_max_degree = idx.graph().max_degree();
  opts.metric = s.metric();
  auto dyn = DynamicLvqIndex::Restore(base.cols, opts, std::move(storage),
                                      std::move(graph), {}, {}, n, 0,
                                      idx.entry_point());
  EXPECT_TRUE(dyn->CheckInvariants().ok());
  EXPECT_TRUE(
      dyn->AttachMetadata(std::make_shared<MetadataStore>(md)).ok());
  return dyn;
}

TEST(TraverseEquivalence, StaticMatchesFrozenDynamic) {
  const Fixture f(MakeDeepLike(1000, 30, 408));
  const MetadataStore md =
      MakeSyntheticMetadata(f.data.base.rows(), {ColumnType::kF64}, 23);
  const auto common = std::make_shared<const Predicate>(
      Predicate::Parse("num0<0.1").value());
  const auto rare = std::make_shared<const Predicate>(
      Predicate::Parse("num0<0.03").value());
  struct Mode {
    std::shared_ptr<const Predicate> filter;
    FilterStrategy strategy;
    const char* name;
  };
  const Mode modes[] = {{nullptr, FilterStrategy::kAuto, "unfiltered"},
                        {common, FilterStrategy::kPostFilter, "post-filter"},
                        {common, FilterStrategy::kInSearch, "in-search"},
                        {rare, FilterStrategy::kAuto, "auto (rare)"}};
  for (int bits2 : {0, 8}) {
    auto idx = BuildOgLvq(f.data.base, f.data.metric, bits2 == 0 ? 8 : 4,
                          bits2, f.bp);
    ASSERT_TRUE(
        idx->AttachMetadata(std::make_shared<const MetadataStore>(md)).ok());
    const auto dyn = FrozenDynamicCopy(*idx, f.data.base, md);
    GraphSearcher fixed(idx->read_view());
    GraphSearcher frozen(dyn->read_view());
    size_t in_search = 0;
    for (const Mode& mode : modes) {
      for (uint32_t window : {10u, 24u, 64u}) {
        for (const auto& sched : Schedules()) {
          SearchOptions o;
          o.window = window;
          o.prefetch_offset = sched.first;
          o.prefetch_step = sched.second;
          o.filter = mode.filter;
          o.filter_strategy = mode.strategy;
          for (size_t qi = 0; qi < f.data.queries.rows(); ++qi) {
            const std::string what =
                idx->name() + " " + mode.name + " W" +
                std::to_string(window) + " schedule " + ScheduleName(sched) +
                " query " + std::to_string(qi);
            SearchResult got, want;
            frozen.Run(f.data.queries.row(qi), 10, o, &got);
            fixed.Run(f.data.queries.row(qi), 10, o, &want);
            ASSERT_EQ(got.ids.size(), 10u) << what;
            ASSERT_NO_FATAL_FAILURE(ExpectSameResult(got, want, what));
            if (mode.filter == nullptr) continue;
            ASSERT_EQ(frozen.plan().kind, fixed.plan().kind) << what;
            ASSERT_EQ(frozen.plan().window0, fixed.plan().window0) << what;
            in_search += fixed.plan().kind != FilterPlan::kPostFilter;
          }
        }
      }
    }
    // Both strategies ran, and kAuto did not post-filter the rare filter
    // (~30 passing rows: it scans them).
    EXPECT_EQ(in_search, 2 * 3 * 3 * f.data.queries.rows()) << idx->name();
  }
}

// ===========================================================================
// Resumed widening against the frozen restarting loop, at every window step.
// ===========================================================================

/// Filtered searches of `now` widened from window 10 with the cap at each
/// window step in turn, so every step's answer is seen. At each cap the
/// resumed search must give the ids, distance bits and final buffer of the
/// frozen RunWidened over `restart` (one traversal from the entry point at
/// the given window), for post-filtering and push-down, with the visited
/// set on and off. Its work must be no more than the restarting loop's,
/// and in fact exactly that of the last step alone: every node is scored
/// (and expanded) once.
template <typename View, typename Restart>
void CheckResumeAtEveryStep(GraphSearcher<View>& now, MatrixViewF queries,
                            const FilterView* filter, Restart restart,
                            const std::string& name) {
  const uint32_t w0 = 10;
  const size_t k = 10;
  size_t widened = 0;
  for (bool push_down : {false, true}) {
    for (bool visited : {true, false}) {
      SearchParams sp;
      sp.window = w0;
      sp.filter = filter;
      sp.filter_push_down = push_down;
      sp.use_visited_set = visited;
      for (uint32_t cap = w0; cap <= 320; cap *= 2) {
        for (size_t qi = 0; qi < queries.rows; ++qi) {
          const std::string what =
              name + (push_down ? " push-down" : " post-filter") +
              " visited=" + std::to_string(visited) + " cap " +
              std::to_string(cap) + " query " + std::to_string(qi);
          SearchResult got, want, last;
          now.Run(queries.row(qi), k, sp, &got, cap);
          const SearchBuffer* last_buffer = nullptr;
          RunWidened(
              k, w0, cap,
              [&](uint32_t w, SearchResult* res) {
                SearchParams p = sp;
                p.window = w;
                last_buffer = &restart(queries.row(qi), k, p, res);
                last = *res;
              },
              &want);
          ASSERT_NO_FATAL_FAILURE(ExpectSameAnswer(got, want, what));
          ASSERT_NO_FATAL_FAILURE(
              ExpectSameBuffer(now.widened_buffer(), *last_buffer, what));
          ASSERT_LE(got.distance_computations, want.distance_computations)
              << what;
          ASSERT_EQ(got.distance_computations, last.distance_computations)
              << what;
          ASSERT_EQ(got.hops, last.hops) << what;
          widened += got.distance_computations < want.distance_computations;
        }
      }
    }
  }
  EXPECT_GT(widened, 0u) << name << ": no query widened";
}

template <typename Storage>
void CheckStaticResume(const VamanaIndex<Storage>& idx, MatrixViewF queries,
                       const std::string& name) {
  const MetadataStore md =
      MakeSyntheticMetadata(idx.storage().size(), {ColumnType::kF64}, 31);
  const Predicate pred = Predicate::Parse("num0<0.1").value();
  const FilterView view{&md, &pred};
  GraphSearcher now(idx.read_view());
  OldGreedySearcher<Storage> old(&idx.graph(), &idx.storage());
  auto restart = [&](const float* q, size_t k, const SearchParams& p,
                     SearchResult* res) -> const SearchBuffer& {
    old.Search(q, k, idx.entry_point(), p, res);
    return old.buffer();
  };
  CheckResumeAtEveryStep(now, queries, &view, restart, name);
}

TEST(TraverseEquivalence, StaticResumeMatchesRestartAtEveryStep) {
  const Fixture f(MakeDeepLike(1200, 20, 409));
  CheckStaticResume(*BuildVamanaF32(f.data.base, f.data.metric, f.bp),
                    f.data.queries, "f32");
  CheckStaticResume(*BuildOgLvq(f.data.base, f.data.metric, 8, 0, f.bp),
                    f.data.queries, "lvq8");
  CheckStaticResume(*BuildOgLvq(f.data.base, f.data.metric, 4, 8, f.bp),
                    f.data.queries, "lvq4x8");
}

/// The dynamic index under navigable tombstones. The restarting reference
/// is one fresh traversal per step: the searcher with no widening.
TEST(TraverseEquivalence, DynamicTombstonedResumeMatchesRestartAtEveryStep) {
  const Dataset data = MakeDeepLike(900, 20, 410);
  DynamicOptions opts;
  opts.graph_max_degree = 16;
  opts.build_window = 40;
  opts.metric = data.metric;
  DynamicLvqIndex idx(
      data.base.cols(), opts,
      LvqStorage(LvqDataset(ComputeMean(data.base, kDynamicMeanSampleRows),
                            {.bits = 8}),
                 data.metric));
  for (size_t i = 0; i < data.base.rows(); ++i) idx.Insert(data.base.row(i));
  Rng rng(411);
  for (uint32_t id = 0; id < data.base.rows(); ++id) {
    if (id == 0 || rng.Bounded(5) == 0) {
      ASSERT_TRUE(idx.Delete(id).ok());
    }
  }
  ASSERT_GT(idx.num_tombstones(), 0u);
  ASSERT_TRUE(idx.AttachMetadata(std::make_shared<MetadataStore>(
                                     MakeSyntheticMetadata(
                                         idx.size(), {ColumnType::kF64}, 37)))
                  .ok());
  const Predicate pred = Predicate::Parse("num0<0.1").value();
  const FilterView view{idx.metadata(), &pred};
  GraphSearcher now(idx.read_view());
  GraphSearcher fresh(idx.read_view());
  SearchBuffer copy;
  auto restart = [&](const float* q, size_t k, const SearchParams& p,
                     SearchResult* res) -> const SearchBuffer& {
    fresh.Run(q, k, p, res, /*widen_cap=*/0);
    // The step's buffer, as a plain buffer for the comparison.
    const WideningBuffer& b = fresh.widened_buffer();
    copy.Reset(b.size());
    for (size_t i = 0; i < b.size(); ++i) copy.Insert(b[i].dist, b[i].id);
    return copy;
  };
  CheckResumeAtEveryStep(now, data.queries, &view, restart, "dynamic lvq8");
}

}  // namespace
}  // namespace blink
