// Dynamic graph index: insertions, deletions and model updates, over a
// pluggable (growable) vector storage.
//
// The paper motivates LVQ partly through dynamic indices (Sec. 3.2): when
// the data distribution shifts, LVQ's model update is a linear-time mean
// recompute + re-encode, against PQ's k-means retraining. This module
// supplies the index dynamics that discussion presumes:
//   - Insert: the single-node Vamana update (greedy search for candidates,
//     then the builder's detail::UpdateNeighborhood: relaxed pruning,
//     backward edges with overflow pruning),
//   - Delete: tombstoning, with deleted nodes still traversable (so the
//     graph stays navigable) but excluded from results,
//   - ConsolidateDeletes: DiskANN-style repair — neighbors of deleted
//     nodes inherit the deleted nodes' out-edges, then re-prune; slots are
//     recycled by later inserts.
//
// Storage (DESIGN.md D9): DynamicGraphIndex<Storage> is templated on the
// same storage classes as VamanaIndex<Storage>, through their growth
// operations (graph/storage.h). DynamicIndex (float32) is the uncompressed
// baseline; DynamicLvqIndex encodes each vector at insert time against a
// fixed sample mean (LVQ-B, optionally with B2-bit residuals re-ranked at
// the end of every search), so the streaming path gets the same 4-8x
// footprint reduction as the static one. Insert-time pruning is the
// builder's RobustPrune (graph/builder.h, DESIGN.md D17), uncapped: the
// inserted node's pool is scored against the raw input vector, and
// stored-to-stored distances decode one endpoint and run the same
// asymmetric kernel the read path uses.
//
// Concurrency (DESIGN.md D6): the index is single-writer / multi-reader.
// Searches run concurrently with Insert/Delete/ConsolidateDeletes without
// taking a lock on the hot path — readers stamp an epoch slot on entry
// (util/epoch.h) and traverse adjacency through FlatGraph's acquire/release
// row protocol. Writers are serialized on an internal mutex; operations
// that invalidate reader-visible memory coordinate through the guard:
//   - Grow() reallocates the vector and graph arenas under the guard's
//     exclusive lock (stop-the-world; rare — amortized doubling, avoidable
//     via `initial_capacity`),
//   - ConsolidateDeletes() purges tombstoned rows under the exclusive lock,
//     so readers entering afterwards see the repaired graph and cannot
//     reach a freed slot,
//   - Insert() into a recycled slot runs a Quiesce() grace period first,
//     draining any straggler reader that could still hold the old id, so
//     the in-place vector overwrite (or re-encode) is race-free.
// A torn read of a row mid-publication yields a stale-but-valid neighbor
// list; greedy search tolerates that (worst case: a wasted hop).
//
// Search: the index has no searcher of its own. GraphSearcher
// (graph/search.h), the static index's searcher, reads it through
// ReadView below; the only differences are the row policy, the dead ids
// and the read guard. Results follow the eval/interface.h padding
// contract: exactly k (id, dist) pairs, padded with kInvalidId/+inf when
// fewer live vectors are reachable.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "eval/interface.h"
#include "filter/metadata.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/search.h"
#include "graph/search_buffer.h"
#include "graph/storage.h"
#include "util/epoch.h"
#include "util/status.h"

namespace blink {

/// Build-time knobs of the dynamic index (storage-independent).
struct DynamicOptions {
  uint32_t graph_max_degree = 32;  ///< R
  uint32_t build_window = 64;      ///< W for insert-time searches
  float alpha = 1.2f;              ///< pruning relaxation (<1 for IP)
  Metric metric = Metric::kL2;
  size_t initial_capacity = 1024;
};

/// Rows of the first batch a dynamic LVQ index takes its fixed centering
/// mean from (ComputeMean's `max_rows`).
inline constexpr size_t kDynamicMeanSampleRows = 16384;

template <typename Storage>
class DynamicGraphIndex {
 public:
  /// entry_point_ sentinel while no live vector exists. Readers never
  /// dereference it, so an empty (or emptied) index can never lead a
  /// search into a freed slot.
  static constexpr uint32_t kNoEntry = kNoEntryPoint;

  using Options = DynamicOptions;

  /// An empty storage for this (dim, metric) (float32).
  DynamicGraphIndex(size_t dim, const Options& opts)
    requires std::constructible_from<Storage, size_t, Metric>
      : DynamicGraphIndex(dim, opts, Storage(dim, opts.metric)) {}
  /// Adopts a configured storage (e.g. an empty LVQ dataset centered on a
  /// sample mean). `storage.dim()` must equal `dim`; its capacity is grown
  /// to `opts.initial_capacity`.
  DynamicGraphIndex(size_t dim, const Options& opts, Storage storage);

  /// Inserts a vector; returns its id. Ids of consolidated deletions are
  /// recycled. Thread-safe against concurrent Search (writers serialize).
  uint32_t Insert(const float* vec);

  /// Tombstones a vector: it stops appearing in results immediately but
  /// remains traversable until ConsolidateDeletes(). Thread-safe.
  Status Delete(uint32_t id);

  /// Repairs the graph around tombstoned nodes and recycles their slots.
  /// Thread-safe; briefly blocks readers while purging.
  void ConsolidateDeletes();

  /// The read view GraphSearcher (graph/search.h) reads this index
  /// through, so one searcher serves the static and the dynamic index.
  /// Rows are read by acquire loads (FlatGraph's D6 protocol) and the
  /// epoch read lock is held for the whole query, so searches run
  /// concurrently with writers. Tombstones are the dead ids: navigable,
  /// never results, never counted toward the window (SearchBuffer). With
  /// no live vector the entry point is kNoEntry and a query is all
  /// padding, with no work.
  class ReadView {
   public:
    using StorageT = Storage;
    using Rows = AcquireRows;
    static constexpr bool kMayBeEmpty = true;
    /// Re-checked at extraction too, for deletes that land mid-search.
    struct Dead {
      const DynamicGraphIndex* index;
      bool operator()(uint32_t id) const { return index->IsDeleted(id); }
    };

    explicit ReadView(const DynamicGraphIndex* index) : index_(index) {}
    size_t dim() const { return index_->dim_; }
    EpochGuard::ReadLock Lock() const {
      return EpochGuard::ReadLock(&index_->epoch_);
    }
    // The rest are read under Lock().
    const FlatGraph& graph() const { return index_->graph_; }
    const Storage& storage() const { return index_->storage_; }
    const MetadataStore* metadata() const { return index_->metadata_.get(); }
    /// Acquire pairs with the writer's release store: observing an id
    /// implies its vector bytes are visible, and the read lock keeps it
    /// unpurged for the whole query.
    uint32_t entry_point() const { return index_->entry_point(); }
    size_t rows() const { return index_->size(); }
    size_t live_rows() const { return index_->live_size(); }
    Dead dead() const { return {index_}; }

   private:
    const DynamicGraphIndex* index_;
  };
  ReadView read_view() const { return ReadView(this); }

  /// Convenience for tests and benchmarks: the k nearest *live* vectors
  /// at `window` and default knobs, through a fresh GraphSearcher (so the
  /// Searcher contract holds: exactly k entries, padded with kInvalidId /
  /// +inf, and a non-finite query fails closed). Safe concurrently with
  /// writers. Serving paths keep a GraphSearcher per thread instead.
  void Search(const float* query, size_t k, uint32_t window,
              SearchResult* out) const;

  /// Attaches (or, with null, detaches) a metadata store. The store is
  /// resized to the index capacity under the exclusive lock (readers
  /// drained), then grows in lockstep with Grow() and is row-cleared when
  /// Insert() recycles a slot. Must hold rows for every slot in use.
  Status AttachMetadata(std::shared_ptr<MetadataStore> md);
  const MetadataStore* metadata() const { return metadata_.get(); }
  std::shared_ptr<const MetadataStore> shared_metadata() const {
    return metadata_;
  }

  /// Writer-path metadata update for one live vector: stores the tag mask
  /// and the first `num_values` numeric columns (converted to each
  /// column's type). Concurrent searches may observe the row half-applied
  /// (cells are individually atomic, the row is not) — metadata is
  /// eventually consistent by design (DESIGN.md D15).
  Status UpsertMetadata(uint32_t id, uint64_t tags, const double* values,
                        size_t num_values);

  size_t dim() const { return dim_; }
  /// Slots in use (including tombstones awaiting consolidation). Acquire
  /// pairs with Insert's release: a reader that observes a fresh slot
  /// also observes its vector bytes (the filtered scan reads every slot).
  size_t size() const { return n_.load(std::memory_order_acquire); }
  /// Live (searchable) vectors. Acquire pairs with Insert's release when a
  /// slot goes live, so a reader that observes the count also observes the
  /// slot's vector bytes.
  size_t live_size() const {
    return n_.load(std::memory_order_acquire) -
           num_deleted_.load(std::memory_order_acquire);
  }
  /// Deleted slots not yet recycled (navigable tombstones + purged slots
  /// awaiting reuse); size() - num_deleted() == live_size().
  size_t num_deleted() const {
    return num_deleted_.load(std::memory_order_acquire);
  }
  /// Tombstones still navigable by searches (deleted but not yet purged by
  /// ConsolidateDeletes): the load a consolidation would repair. Searches
  /// do not read it; they skip tombstones per candidate.
  size_t num_tombstones() const {
    return num_tombstones_.load(std::memory_order_acquire);
  }
  /// ReadLock-guarded: capacity_ and the container internals it reports
  /// are mutated by Grow() under the exclusive lock.
  size_t capacity() const {
    EpochGuard::ReadLock reader(&epoch_);
    return capacity_;
  }
  uint32_t max_degree() const { return opts_.graph_max_degree; }
  /// Acquire pairs with the release that makes a recycled slot live, so
  /// a reader that sees it live also sees its new vector and metadata.
  bool IsDeleted(uint32_t id) const {
    return std::atomic_ref<uint8_t>(
               const_cast<uint8_t&>(deleted_[id]))
               .load(std::memory_order_acquire) != 0;
  }
  /// Resident bytes of vectors + adjacency + tombstone flags.
  /// ReadLock-guarded like capacity().
  size_t memory_bytes() const {
    EpochGuard::ReadLock reader(&epoch_);
    return storage_.memory_bytes() + graph_.memory_bytes() + deleted_.size();
  }

  const Storage& storage() const { return storage_; }
  /// The configuration the index runs with (metric, alpha, build window).
  const Options& options() const { return opts_; }

  /// Direct row access — float32 storage only (compressed storages have no
  /// materialized float row; use DecodeVector).
  const float* vector(uint32_t id) const
    requires requires(const Storage& s, uint32_t i) { s.row(i); }
  {
    return storage_.row(id);
  }

  /// Reconstructs a stored vector in the original space (`out` must hold
  /// dim() floats). Exact for float32 storage, the LVQ reconstruction for
  /// compressed storage.
  void DecodeVector(uint32_t id, float* out) const {
    storage_.DecodeVector(id, out);
  }

  // --- persistence access (graph/serialize.cc) -----------------------------
  // Save-side accessors and the load-side factory. Both assume no
  // concurrent writer (readers are fine: everything here is
  // writer-published state).

  const FlatGraph& graph() const { return graph_; }
  uint32_t entry_point() const {
    return entry_point_.load(std::memory_order_acquire);
  }
  const std::vector<uint8_t>& deleted_flags() const { return deleted_; }
  const std::vector<uint32_t>& free_slots() const { return free_slots_; }

  /// The graph invariants the writer keeps: degrees <= R; no self-loop,
  /// duplicate or id >= size() in a row; purged rows empty and never
  /// named; the free list is exactly the purged slots, once each; counts
  /// match the flags; the entry point is live, or kNoEntry exactly when
  /// live_size() == 0. Internal names the first violation. O(size() * R),
  /// with no concurrent writer (the loaders run it after Restore).
  Status CheckInvariants() const;

  /// Reassembles an index from serialized parts. `storage` must already
  /// hold the first `n` rows and have capacity >= n; `graph` must have
  /// storage.capacity() rows; `deleted` is resized to capacity.
  static std::unique_ptr<DynamicGraphIndex> Restore(
      size_t dim, const Options& opts, Storage storage, FlatGraph graph,
      std::vector<uint8_t> deleted, std::vector<uint32_t> free_slots,
      size_t n, size_t num_deleted, uint32_t entry_point);

 private:
  DynamicGraphIndex() = default;  // Restore()

  void Grow(size_t min_capacity);
  void UpdateEntryPoint();
  void SetDeleted(uint32_t id, uint8_t flag) {
    std::atomic_ref<uint8_t>(deleted_[id])
        .store(flag, std::memory_order_release);
  }
  uint8_t DeletedFlag(uint32_t id) const {
    return std::atomic_ref<uint8_t>(const_cast<uint8_t&>(deleted_[id]))
        .load(std::memory_order_relaxed);
  }

  /// deleted_ slot states. A slot advances kLive -> kTombstone (Delete) ->
  /// kPurged (ConsolidateDeletes unlinks it and queues it in free_slots_)
  /// -> kLive (Insert recycles it). The tombstone/purged split keeps a
  /// second consolidation from re-queueing an already-free slot, and lets
  /// num_tombstones() count only *navigable* tombstones.
  static constexpr uint8_t kLive = 0;
  static constexpr uint8_t kTombstone = 1;
  static constexpr uint8_t kPurged = 2;

  size_t dim_ = 0;
  Options opts_;
  size_t capacity_ = 0;                 // mutated only under exclusive lock
  std::atomic<size_t> n_{0};
  std::atomic<size_t> num_deleted_{0};     // kTombstone + kPurged slots
  std::atomic<size_t> num_tombstones_{0};  // kTombstone slots only
  Storage storage_;                     // capacity slots
  FlatGraph graph_;                     // capacity rows
  std::vector<uint8_t> deleted_;        // capacity (atomic_ref access)
  std::vector<uint32_t> free_slots_;    // recycled ids (writer-only)
  std::atomic<uint32_t> entry_point_{kNoEntry};
  /// Optional per-vector metadata, capacity_ rows once attached. Cell
  /// access is atomic (filter/metadata.h); the container itself is resized
  /// only under the exclusive lock. Attach/detach must not race searches
  /// that are already filtering (the serving engine swaps whole indices
  /// instead).
  std::shared_ptr<MetadataStore> metadata_;

  // Writer-side scratch (guarded by write_mu_): the prepared insert
  // vector, the insert-time traversal state (Traverse resizes its visited
  // stamps on the first insert after a Grow), and the update's scratch.
  typename Storage::Query writer_query_;
  TraversalState writer_traversal_;
  detail::PruneScratch<Storage> prune_;

  mutable EpochGuard epoch_;            // reader registration / quiescing
  std::mutex write_mu_;                 // serializes writers
};

/// The uncompressed dynamic index (the pre-D9 DynamicIndex).
using DynamicIndex = DynamicGraphIndex<FloatStorage>;
/// The compressed dynamic index: LVQ-B (optionally B1xB2) storage encoded
/// at insert time against a fixed sample mean.
using DynamicLvqIndex = DynamicGraphIndex<LvqStorage>;

extern template class DynamicGraphIndex<FloatStorage>;
extern template class DynamicGraphIndex<LvqStorage>;

}  // namespace blink
