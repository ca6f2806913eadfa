// Type-erased index interface shared by OG-LVQ and every baseline, so the
// evaluation harness can sweep them under identical conditions (the paper's
// same-harness ablation methodology, Sec. 6.7).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "filter/predicate.h"
#include "util/matrix.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace blink {

/// What an index can do, as a bitmask. Declared here (not in api/index.h)
/// because SearchOptions defaulting is capability-aware: knobs that a flavor
/// cannot honor are neutralized in one place instead of being silently
/// ignored at N call sites.
enum : uint32_t {
  kCapSearch = 1u << 0,       ///< MakeSearcher / SearchBatch
  kCapSave = 1u << 1,         ///< Save(path) round-trips through Open
  kCapInsert = 1u << 2,       ///< Insert(vec)
  kCapDelete = 1u << 3,       ///< Delete(id)
  kCapConsolidate = 1u << 4,  ///< Consolidate()
  kCapShardProbe = 1u << 5,   ///< honors SearchOptions::nprobe_shards
  kCapRerank = 1u << 6,       ///< two-level re-ranking (honors rerank knobs)
  kCapFilter = 1u << 7,       ///< metadata attached; honors SearchOptions
                              ///< filter fields (src/filter/, DESIGN.md D15)
};
using Capabilities = uint32_t;

/// Named search-time options (per query batch). Each index reads the fields
/// relevant to it; sweeping `window` traces a graph index's QPS/recall
/// Pareto curve, sweeping (nprobe, reorder_k) traces an IVF/ScaNN curve.
/// `Index::Calibrate` searches this space for the cheapest configuration
/// meeting a recall target (api/calibrate.h).
struct SearchOptions {
  uint32_t window = 32;          ///< graph W / HNSW ef-search
  bool rerank = true;            ///< two-level final re-ranking (LVQ-B1xB2)
  uint32_t nprobe = 8;           ///< IVF/ScaNN: partitions probed
  uint32_t reorder_k = 0;        ///< IVF/ScaNN: full-precision re-rank depth
  uint32_t nprobe_shards = 0;    ///< sharded index: shards probed (0 = all)
  /// Graph prefetch schedule, on every graph kind (static, sharded,
  /// dynamic): vectors are prefetched `prefetch_offset + prefetch_step`
  /// unvisited candidates ahead of the one being scored, and (0, 0) turns
  /// prefetching off. The default puts a whole hop (R <= 64) in flight
  /// before its first distance; see SearchParams in graph/search.h.
  uint32_t prefetch_offset = 0;
  uint32_t prefetch_step = 64;
  bool use_visited_set = true;   ///< graph visited-set ablation (see search.h)
  /// Two-level re-rank depth: how many of the window's candidates are
  /// re-scored at full precision before the top-k selection. 0 = the whole
  /// window (the paper's Sec. 3.2 gather; the historical behavior); smaller
  /// values trade residual-gather work for recall. Clamped to >= k and
  /// ignored when `rerank` is false or the storage has no second level.
  uint32_t rerank_window = 0;

  /// Metadata predicate restricting results (null = unfiltered). Held by
  /// shared_ptr so the options struct stays cheaply copyable through the
  /// serving queue. Indices without kCapFilter fail *closed* on a filtered
  /// query (all-padded rows) — validate with ValidateFor at boundaries so
  /// that misconfiguration surfaces as a Status instead.
  std::shared_ptr<const Predicate> filter;
  /// Execution strategy for a filtered query; kAuto picks post-filter vs
  /// in-search push-down by estimated selectivity (DESIGN.md D15).
  FilterStrategy filter_strategy = FilterStrategy::kAuto;
  /// Adaptive widening cap for filtered searches: the window grows
  /// geometrically until k survivors are found or it reaches this cap.
  /// 0 = auto (the index size, clamped to 2^20). Explicit values are
  /// floored at max(window, k) by ResolvedFor.
  uint32_t filter_widen_cap = 0;

  /// OK iff every knob is inside its representable range. Search paths do
  /// not validate (they clamp); call this at configuration boundaries (CLI
  /// parsing, calibration, serving setup).
  Status Validate() const {
    if (window == 0) {
      return Status::InvalidArgument("SearchOptions::window must be >= 1");
    }
    if (window > (1u << 20)) {
      return Status::InvalidArgument("SearchOptions::window out of range (> 2^20)");
    }
    if (rerank_window > window) {
      return Status::InvalidArgument(
          "SearchOptions::rerank_window (" + std::to_string(rerank_window) +
          ") exceeds window (" + std::to_string(window) + ")");
    }
    if (nprobe == 0) {
      return Status::InvalidArgument("SearchOptions::nprobe must be >= 1");
    }
    if (filter != nullptr) {
      if (filter_widen_cap != 0 && filter_widen_cap < window) {
        return Status::InvalidArgument(
            "SearchOptions::filter_widen_cap (" +
            std::to_string(filter_widen_cap) + ") below the window floor (" +
            std::to_string(window) + ")");
      }
      if (filter_widen_cap > (1u << 20)) {
        return Status::InvalidArgument(
            "SearchOptions::filter_widen_cap out of range (> 2^20)");
      }
    }
    return Status::OK();
  }

  /// Validate() plus capability checks that cannot be neutralized silently:
  /// a filter on an index without kCapFilter would otherwise fail closed
  /// (all-padded rows), so it is rejected here as Unsupported. Use at every
  /// boundary where the target index's capabilities are known.
  Status ValidateFor(Capabilities caps) const {
    BLINK_RETURN_NOT_OK(Validate());
    if (filter != nullptr && (caps & kCapFilter) == 0) {
      return Status::Unsupported(
          "SearchOptions::filter set but the index has no metadata "
          "attached (kCapFilter)");
    }
    return Status::OK();
  }

  /// The options with capability-unaware knobs neutralized: nprobe_shards
  /// falls back to 0 (all shards) without kCapShardProbe, the re-rank pair
  /// is disabled without kCapRerank, and rerank_window is clamped into
  /// [k, window] when set. The one place flavor-specific defaulting lives.
  SearchOptions ResolvedFor(Capabilities caps, size_t k) const {
    SearchOptions r = *this;
    r.window = std::max<uint32_t>(r.window, static_cast<uint32_t>(k));
    if ((caps & kCapShardProbe) == 0) r.nprobe_shards = 0;
    if ((caps & kCapRerank) == 0) {
      r.rerank = false;
      r.rerank_window = 0;
    } else if (r.rerank_window != 0) {
      r.rerank_window = std::clamp<uint32_t>(
          r.rerank_window, static_cast<uint32_t>(k), r.window);
    }
    // The filter itself is never dropped here: silently returning
    // unfiltered neighbors would violate the predicate contract. Flavors
    // without kCapFilter fail closed; ValidateFor rejects earlier.
    if (r.filter != nullptr && r.filter_widen_cap != 0) {
      r.filter_widen_cap = std::max(r.filter_widen_cap, r.window);
    }
    return r;
  }
};

/// Aggregate work counters of a batch (or of one searcher's lifetime).
/// Indices that do not track a counter leave it at zero.
struct BatchStats {
  uint64_t distance_computations = 0;
  uint64_t hops = 0;  ///< graph nodes expanded

  BatchStats& operator+=(const BatchStats& o) {
    distance_computations += o.distance_computations;
    hops += o.hops;
    return *this;
  }
};

/// Padding sentinels for queries with fewer than k reachable results: the
/// id slot gets kInvalidId and the paired distance slot +infinity, on every
/// search path (every Searcher, hence SearchBatch and the serving engine).
inline constexpr uint32_t kInvalidId = UINT32_MAX;
inline constexpr float kInvalidDist = std::numeric_limits<float>::infinity();

/// Copies `count` results into row-major output, padding to exactly k per
/// the contract above. `src_dists` must hold `count` entries when `dists`
/// is non-null. The single implementation of the padding contract — every
/// index/searcher path funnels through it.
inline void WritePaddedRow(const uint32_t* src_ids, const float* src_dists,
                           size_t count, size_t k, uint32_t* ids,
                           float* dists) {
  for (size_t j = 0; j < k; ++j) {
    ids[j] = j < count ? src_ids[j] : kInvalidId;
  }
  if (dists != nullptr) {
    for (size_t j = 0; j < k; ++j) {
      dists[j] = j < count ? src_dists[j] : kInvalidDist;
    }
  }
}

/// The slice layout and stats reduction every batch path shares
/// (SearchBatch below and ServingEngine::SearchBatch): [0, nq) cut into at
/// most `max_slices` contiguous slices, slice w being [lo(w), hi(w)), each
/// with its own BatchStats that Total() sums.
class BatchSlices {
 public:
  BatchSlices(size_t nq, size_t max_slices)
      : nq_(nq), stats_(std::min(std::max<size_t>(1, max_slices), nq)) {}

  size_t count() const { return stats_.size(); }
  size_t lo(size_t w) const { return nq_ * w / count(); }
  size_t hi(size_t w) const { return nq_ * (w + 1) / count(); }
  BatchStats* stats(size_t w) { return &stats_[w]; }

  BatchStats Total() const {
    BatchStats total;
    for (const BatchStats& s : stats_) total += s;
    return total;
  }

 private:
  size_t nq_;
  std::vector<BatchStats> stats_;
};

/// Per-thread search state plus the query logic that uses it: the one
/// place each index writes its search. State (visited epochs, candidate
/// buffer, query scratch, cached filter plans) survives across calls, which
/// is where serving throughput comes from (see serve/engine.h). Not
/// thread-safe — one Searcher per worker thread.
class Searcher {
 public:
  virtual ~Searcher() = default;

  /// Writes exactly k ids (and, when `dists` is non-null, k distances) for
  /// one query, padded per the contract above. The distances are the ones
  /// the index ranked by (see DESIGN.md D7). When `stats` is non-null the
  /// query's work counters are accumulated (+=) into it.
  ///
  /// A query holding a NaN or an infinity fails closed here, for every
  /// index: an all-padded row and no work. Every distance to it would be
  /// NaN, which no candidate buffer or heap rejects, so a graph search
  /// would expand nearly every row and answer NaN distances.
  void Search(const float* query, size_t k, const SearchOptions& params,
              uint32_t* ids, float* dists, BatchStats* stats) {
    if (FirstNonFinite(MatrixViewF(query, 1, dim_))) {
      WritePaddedRow(nullptr, nullptr, 0, k, ids, dists);
      return;
    }
    SearchFinite(query, k, params, ids, dists, stats);
  }

 protected:
  /// `dim` is the index's dimensionality, the length of every query.
  explicit Searcher(size_t dim) : dim_(dim) {}

 private:
  /// The index's search of one finite query, under Search's contract.
  virtual void SearchFinite(const float* query, size_t k,
                            const SearchOptions& params, uint32_t* ids,
                            float* dists, BatchStats* stats) = 0;

  size_t dim_;
};

/// Runs `searcher` over query rows [lo, hi) into the row-major outputs:
/// the per-slice loop of every batch path (SearchBatch below and
/// ServingEngine::SearchBatch), so the row layout is written once.
inline void SearchRows(Searcher& searcher, MatrixViewF queries, size_t lo,
                       size_t hi, size_t k, const SearchOptions& params,
                       uint32_t* ids, float* dists, BatchStats* stats) {
  for (size_t qi = lo; qi < hi; ++qi) {
    searcher.Search(queries.row(qi), k, params, ids + qi * k,
                    dists != nullptr ? dists + qi * k : nullptr, stats);
  }
}

/// A built, queryable ANN index. Searching is MakeSearcher()'s job alone:
/// batch search (SearchBatch below), the serving engine and the network
/// server all run the index's Searcher.
class SearchIndex {
 public:
  virtual ~SearchIndex() = default;

  virtual std::string name() const = 0;
  virtual size_t size() const = 0;
  virtual size_t dim() const = 0;
  /// Resident bytes of everything needed to serve queries.
  virtual size_t memory_bytes() const = 0;

  /// Creates a per-thread searcher. Thread-safe; each searcher is used by
  /// one thread at a time.
  virtual std::unique_ptr<Searcher> MakeSearcher() const = 0;
};

/// Finds the k nearest neighbors of each query row: row-major ids
/// (queries.rows x k, kInvalidId padding) and, when non-null, distances
/// (+inf padding) and the batch's aggregate work counters (+=). Splits the
/// batch into one slice per `pool` thread (one slice without a pool), each
/// searched by its own MakeSearcher().
inline void SearchBatch(const SearchIndex& index, MatrixViewF queries,
                        size_t k, const SearchOptions& params, uint32_t* ids,
                        float* dists = nullptr, BatchStats* stats = nullptr,
                        ThreadPool* pool = nullptr) {
  BatchSlices slices(queries.rows,
                     pool != nullptr ? pool->num_threads() : 1);
  auto run = [&](size_t w) {
    std::unique_ptr<Searcher> searcher = index.MakeSearcher();
    SearchRows(*searcher, queries, slices.lo(w), slices.hi(w), k, params, ids,
               dists, slices.stats(w));
  };
  if (pool != nullptr) {
    pool->ParallelFor(slices.count(), run);
  } else {
    for (size_t w = 0; w < slices.count(); ++w) run(w);
  }
  if (stats != nullptr) *stats += slices.Total();
}

}  // namespace blink
