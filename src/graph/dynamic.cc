#include "graph/dynamic.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace blink {

template <typename Storage>
DynamicGraphIndex<Storage>::DynamicGraphIndex(size_t dim, const Options& opts,
                                              Storage storage)
    : dim_(dim), opts_(opts), storage_(std::move(storage)), prune_(dim) {
  assert(storage_.dim() == dim);
  Grow(std::max<size_t>(opts.initial_capacity, 16));
}

template <typename Storage>
void DynamicGraphIndex<Storage>::Grow(size_t min_capacity) {
  if (min_capacity <= capacity_) return;
  const size_t new_cap = std::max<size_t>(capacity_ * 2, min_capacity);
  // Reallocation invalidates every pointer a concurrent search could hold;
  // stop the world for the swap (rare: amortized doubling, and avoidable
  // entirely by sizing initial_capacity for the workload).
  EpochGuard::ExclusiveLock lock(&epoch_);
  storage_.Grow(new_cap);
  deleted_.resize(new_cap, 0);
  if (metadata_ != nullptr) metadata_->Resize(new_cap);
  FlatGraph bigger(new_cap, opts_.graph_max_degree, /*use_huge_pages=*/false);
  const size_t n = n_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    bigger.SetNeighbors(i, graph_.neighbors(i), graph_.degree(i));
  }
  graph_ = std::move(bigger);
  capacity_ = new_cap;
}

template <typename Storage>
uint32_t DynamicGraphIndex<Storage>::Insert(const float* vec) {
  std::lock_guard<std::mutex> writer(write_mu_);
  uint32_t id;
  bool recycled = false;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
    recycled = true;
    // Grace period before overwriting the slot: it was purged under the
    // exclusive lock in ConsolidateDeletes(), so readers entering since
    // then cannot reach it — but a reader that predates the purge (or one
    // holding a stale entry point) could still hold the id. Wait those out.
    epoch_.Quiesce();
  } else {
    Grow(n_.load(std::memory_order_relaxed) + 1);
    id = static_cast<uint32_t>(n_.load(std::memory_order_relaxed));
  }
  // The vector must be fully written (encoded, for compressed storage)
  // before anything can name the id: the liveness flip below (release)
  // covers the entry-point path, and FlatGraph's release row stores cover
  // the edge paths.
  storage_.Set(id, vec);
  // A recycled slot must not inherit the previous occupant's metadata:
  // clear the row before the liveness flip publishes the id. (Fresh slots
  // are already zero from Resize; clearing is idempotent.)
  if (metadata_ != nullptr) metadata_->ClearRow(id);
  if (recycled) {
    SetDeleted(id, kLive);  // was kPurged since the consolidation
    num_deleted_.fetch_sub(1, std::memory_order_release);
  } else {
    n_.fetch_add(1, std::memory_order_release);
  }

  if (live_size() == 1) {  // first (or only) live vector
    graph_.PublishClear(id);
    entry_point_.store(id, std::memory_order_release);
    return id;
  }

  // Vamana single-node update (graph/builder.h). The pool is a greedy
  // search from the raw vector, tombstones included (they stay
  // navigable). The writer is the only thread that stores rows, so it
  // reads them plainly; a live vector is never overwritten concurrently.
  // No pool cap. Another vector is live, so the entry point is set.
  const uint32_t ep = entry_point_.load(std::memory_order_relaxed);
  assert(ep != kNoEntry);
  SearchParams params;
  params.window = std::max(opts_.build_window, opts_.graph_max_degree + 1);
  storage_.PrepareQuery(vec, &writer_query_);
  Traverse<PlainRows>(graph_, storage_, writer_query_, ep, params,
                      &writer_traversal_);
  const SearchBuffer& found = writer_traversal_.buffer;
  prune_.pool.clear();
  for (size_t i = 0; i < found.size(); ++i) {
    if (found[i].id != id) prune_.pool.push_back({found[i].dist, found[i].id});
  }
  detail::UpdateNeighborhood(storage_, &graph_, id, opts_.alpha,
                             detail::kNoPoolCap, &prune_);
  return id;
}

template <typename Storage>
Status DynamicGraphIndex<Storage>::Delete(uint32_t id) {
  std::lock_guard<std::mutex> writer(write_mu_);
  if (id >= n_.load(std::memory_order_relaxed)) {
    return Status::OutOfRange("id beyond index size");
  }
  if (IsDeleted(id)) return Status::InvalidArgument("id already deleted");
  SetDeleted(id, kTombstone);
  num_deleted_.fetch_add(1, std::memory_order_relaxed);
  num_tombstones_.fetch_add(1, std::memory_order_relaxed);
  if (id == entry_point_.load(std::memory_order_relaxed)) UpdateEntryPoint();
  return Status::OK();
}

template <typename Storage>
void DynamicGraphIndex<Storage>::UpdateEntryPoint() {
  const size_t n = n_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    if (!IsDeleted(static_cast<uint32_t>(i))) {
      entry_point_.store(static_cast<uint32_t>(i), std::memory_order_release);
      return;
    }
  }
  entry_point_.store(kNoEntry, std::memory_order_release);  // empty index
}

template <typename Storage>
void DynamicGraphIndex<Storage>::ConsolidateDeletes() {
  std::lock_guard<std::mutex> writer(write_mu_);
  // Purged slots are already unlinked and queued; only navigable
  // tombstones need repair + purge.
  if (num_tombstones_.load(std::memory_order_relaxed) == 0) return;
  // DiskANN-style repair: every live node that points at a deleted node
  // inherits that node's live out-neighbors, then re-prunes to R. This
  // phase runs concurrently with searches (atomic row publication).
  const size_t n = n_.load(std::memory_order_relaxed);
  std::vector<detail::Candidate>& cands = prune_.pool;
  for (size_t i = 0; i < n; ++i) {
    if (IsDeleted(static_cast<uint32_t>(i))) continue;
    const uint32_t* nbrs = graph_.neighbors(i);
    const uint32_t deg = graph_.degree(i);
    bool touches_deleted = false;
    for (uint32_t e = 0; e < deg; ++e) {
      if (IsDeleted(nbrs[e])) {
        touches_deleted = true;
        break;
      }
    }
    if (!touches_deleted) continue;

    cands.clear();
    prune_.PrepareStored(storage_, static_cast<uint32_t>(i));
    for (uint32_t e = 0; e < deg; ++e) {
      const uint32_t nb = nbrs[e];
      if (!IsDeleted(nb)) {
        cands.push_back({storage_.Distance(prune_.query, nb), nb});
        continue;
      }
      const uint32_t* second = graph_.neighbors(nb);
      for (uint32_t s = 0; s < graph_.degree(nb); ++s) {
        const uint32_t nn = second[s];
        if (!IsDeleted(nn) && nn != i) {
          cands.push_back({storage_.Distance(prune_.query, nn), nn});
        }
      }
    }
    // The same prune as Insert, uncapped: the pool can hold R + R^2 ids.
    detail::PruneAndPublish(storage_, &graph_, static_cast<uint32_t>(i),
                            opts_.alpha, detail::kNoPoolCap, &prune_,
                            &prune_.row);
  }
  // Purge tombstones: clear their adjacency and recycle the slots. Under
  // the exclusive lock so that (a) a reader mid-traversal cannot still hold
  // a purged id when we return, and (b) readers entering afterwards are
  // guaranteed to see the re-pruned rows above — together making the freed
  // slots unreachable until a later Insert republishes them.
  {
    EpochGuard::ExclusiveLock lock(&epoch_);
    size_t purged = 0;
    for (size_t i = 0; i < n; ++i) {
      // Only kTombstone slots: a slot purged by an earlier consolidation
      // and not yet recycled is already in free_slots_ — re-queueing it
      // would hand the same slot to two Inserts.
      if (DeletedFlag(static_cast<uint32_t>(i)) == kTombstone) {
        graph_.Clear(i);
        free_slots_.push_back(static_cast<uint32_t>(i));
        SetDeleted(static_cast<uint32_t>(i), kPurged);
        ++purged;
      }
    }
    num_tombstones_.fetch_sub(purged, std::memory_order_relaxed);
  }
  // Slots stay flagged (kPurged) until re-used; num_deleted_ is
  // decremented on recycle so live_size() remains correct throughout.
}

template <typename Storage>
void DynamicGraphIndex<Storage>::Search(const float* query, size_t k,
                                        uint32_t window,
                                        SearchResult* out) const {
  SearchOptions options;
  options.window = window;
  out->ids.resize(k);
  out->dists.resize(k);
  BatchStats stats;
  GraphSearcher<ReadView>(read_view())
      .Search(query, k, options, out->ids.data(), out->dists.data(), &stats);
  out->distance_computations = stats.distance_computations;
  out->hops = stats.hops;
}

template <typename Storage>
Status DynamicGraphIndex<Storage>::AttachMetadata(
    std::shared_ptr<MetadataStore> md) {
  std::lock_guard<std::mutex> writer(write_mu_);
  if (md == nullptr) {
    EpochGuard::ExclusiveLock lock(&epoch_);
    metadata_ = nullptr;
    return Status::OK();
  }
  if (md->external()) {
    return Status::InvalidArgument(
        "dynamic metadata must be an owned store (mapped stores are "
        "read-only)");
  }
  const size_t n = n_.load(std::memory_order_relaxed);
  if (md->size() < n) {
    return Status::InvalidArgument(
        "metadata store has " + std::to_string(md->size()) +
        " rows but the index has " + std::to_string(n) + " slots in use");
  }
  // Resize to capacity under the exclusive lock: concurrent searches may
  // hold cell pointers into a store being swapped/reallocated otherwise.
  EpochGuard::ExclusiveLock lock(&epoch_);
  md->Resize(capacity_);
  metadata_ = std::move(md);
  return Status::OK();
}

template <typename Storage>
Status DynamicGraphIndex<Storage>::UpsertMetadata(uint32_t id, uint64_t tags,
                                                  const double* values,
                                                  size_t num_values) {
  std::lock_guard<std::mutex> writer(write_mu_);
  if (metadata_ == nullptr) {
    return Status::Unsupported("no metadata store attached");
  }
  if (id >= n_.load(std::memory_order_relaxed)) {
    return Status::OutOfRange("id beyond index size");
  }
  if (num_values > metadata_->num_columns()) {
    return Status::InvalidArgument(
        "more numeric values than metadata columns");
  }
  // Cells are individually atomic; readers filtering concurrently may see
  // the row half-applied (eventual consistency, DESIGN.md D15).
  metadata_->set_tags(id, tags);
  for (size_t c = 0; c < num_values; ++c) {
    metadata_->SetNumeric(c, id, values[c]);
  }
  return Status::OK();
}

template <typename Storage>
Status DynamicGraphIndex<Storage>::CheckInvariants() const {
  auto fail = [](const std::string& what) {
    return Status::Internal("dynamic graph invariant: " + what);
  };
  auto str = [](size_t v) { return std::to_string(v); };
  const size_t n = n_.load(std::memory_order_relaxed);
  auto flag = [&](size_t i) { return DeletedFlag(static_cast<uint32_t>(i)); };
  size_t tombstones = 0, purged = 0;
  std::vector<size_t> seen(n, 0);  // i + 1 once row i names the id
  for (size_t i = 0; i < n; ++i) {
    tombstones += flag(i) == kTombstone;
    purged += flag(i) == kPurged;
    const std::string row = "row " + str(i);
    const uint32_t deg = graph_.degree(i);
    if (deg > graph_.max_degree()) return fail(row + " exceeds degree R");
    if (deg > 0 && flag(i) == kPurged) {
      return fail("purged " + row + " is not empty");
    }
    for (uint32_t e = 0; e < deg; ++e) {
      const uint32_t id = graph_.neighbors(i)[e];
      if (id >= n || id == i || seen[id] == i + 1 || flag(id) == kPurged) {
        return fail(row + " names " + str(id) +
                    " (past size, itself, twice or a purged slot)");
      }
      seen[id] = i + 1;
    }
  }
  if (tombstones + purged != num_deleted() || tombstones != num_tombstones()) {
    return fail("the deleted/tombstone counts disagree with the flags");
  }
  std::vector<char> queued(n, 0);
  for (uint32_t slot : free_slots_) {
    if (slot >= n || flag(slot) != kPurged || queued[slot]++ != 0) {
      return fail("free slot " + str(slot) + " is not a purged slot, once");
    }
  }
  if (free_slots_.size() != purged) {
    return fail("the free list misses " + str(purged - free_slots_.size()) +
                " purged slots");
  }
  const uint32_t ep = entry_point();
  const bool ep_live = ep != kNoEntry && ep < n && flag(ep) == kLive;
  if (live_size() == 0 ? ep != kNoEntry : !ep_live) {
    return fail("entry point " + str(ep) + " with " + str(live_size()) +
                " live vectors");
  }
  return Status::OK();
}

template <typename Storage>
std::unique_ptr<DynamicGraphIndex<Storage>> DynamicGraphIndex<Storage>::Restore(
    size_t dim, const Options& opts, Storage storage, FlatGraph graph,
    std::vector<uint8_t> deleted, std::vector<uint32_t> free_slots, size_t n,
    size_t num_deleted, uint32_t entry_point) {
  assert(storage.dim() == dim);
  assert(graph.size() == storage.capacity());
  assert(n <= storage.capacity());
  std::unique_ptr<DynamicGraphIndex> idx(new DynamicGraphIndex());
  idx->dim_ = dim;
  idx->opts_ = opts;
  idx->capacity_ = storage.capacity();
  idx->storage_ = std::move(storage);
  idx->graph_ = std::move(graph);
  deleted.resize(idx->capacity_, 0);
  idx->deleted_ = std::move(deleted);
  idx->free_slots_ = std::move(free_slots);
  idx->n_.store(n, std::memory_order_relaxed);
  idx->num_deleted_.store(num_deleted, std::memory_order_relaxed);
  size_t tombstones = 0;
  for (size_t i = 0; i < n; ++i) {
    if (idx->deleted_[i] == kTombstone) ++tombstones;
  }
  idx->num_tombstones_.store(tombstones, std::memory_order_relaxed);
  idx->entry_point_.store(entry_point, std::memory_order_relaxed);
  idx->prune_ = detail::PruneScratch<Storage>(dim);
  return idx;
}

template class DynamicGraphIndex<FloatStorage>;
template class DynamicGraphIndex<LvqStorage>;

}  // namespace blink
