// Flat adjacency storage for graph indices (paper Sec. 5, "Memory layout
// and allocation").
//
// The paper avoids graph layouts with memory indirections (CSR, list of
// lists) because they lower the cache hit rate under the random access
// pattern of greedy search. FlatGraph stores one fixed-size row per node in
// a single contiguous allocation (huge-page backed when available):
//
//     [ degree : u32 ][ neighbor ids : u32 * max_degree ]
//
// Rows are addressable by multiplication, never by pointer chasing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "util/memory.h"

namespace blink {

class FlatGraph {
 public:
  FlatGraph() = default;
  FlatGraph(size_t num_nodes, uint32_t max_degree, bool use_huge_pages = true)
      : n_(num_nodes),
        max_degree_(max_degree),
        row_entries_(1 + static_cast<size_t>(max_degree)),
        storage_(num_nodes * (1 + static_cast<size_t>(max_degree)) *
                     sizeof(uint32_t),
                 use_huge_pages) {}

  /// Non-owning view over externally owned rows in exactly this layout
  /// (the mmap-serving path: a v3 graph file's payload *is* the row
  /// array). The view is read-only — mutators assert. The caller keeps
  /// `rows` alive and 4-byte aligned for the graph's lifetime.
  FlatGraph(const uint32_t* rows, size_t num_nodes, uint32_t max_degree)
      : n_(num_nodes),
        max_degree_(max_degree),
        row_entries_(1 + static_cast<size_t>(max_degree)),
        ext_rows_(rows) {}

  /// True when this graph is a view over external (e.g. mapped) rows.
  bool mapped() const { return ext_rows_ != nullptr; }

  size_t size() const { return n_; }
  uint32_t max_degree() const { return max_degree_; }

  uint32_t degree(size_t i) const { return row(i)[0]; }

  const uint32_t* neighbors(size_t i) const { return row(i) + 1; }

  /// Replaces the adjacency list of node i. count must be <= max_degree.
  void SetNeighbors(size_t i, const uint32_t* ids, uint32_t count) {
    assert(count <= max_degree_);
    uint32_t* r = row(i);
    r[0] = count;
    if (count > 0) std::memcpy(r + 1, ids, count * sizeof(uint32_t));
  }

  /// Appends a neighbor; returns false if the row is full.
  bool AddNeighbor(size_t i, uint32_t id) {
    uint32_t* r = row(i);
    if (r[0] >= max_degree_) return false;
    r[1 + r[0]] = id;
    ++r[0];
    return true;
  }

  void Clear(size_t i) { row(i)[0] = 0; }

  // -------------------------------------------------------------------------
  // Single-writer / multi-reader row access (DESIGN.md D6).
  //
  // The dynamic index mutates adjacency while searches traverse it. The
  // writer publishes every row word — each neighbor id AND the degree —
  // with release stores; readers load each with acquire. A concurrent
  // reader may observe a slightly stale or mixed old/new neighbor list —
  // every id it sees is individually valid (each is a single atomic u32),
  // which greedy search tolerates — but any id it extracts synchronizes
  // with everything the writer did before storing that word (in
  // particular, the id's vector data: Insert writes the vector before
  // publishing the id anywhere). The degree-only ordering used here
  // originally was not enough: a reader pairing an old degree with a
  // word from a concurrent row rewrite obtained a fresh id with no
  // happens-before edge to its vector write (caught by TSan as a race on
  // the vector row). Per-word release/acquire costs nothing extra on
  // x86 (plain movs) and closes that hole. Writers must be externally
  // serialized. All cross-thread accesses go through std::atomic_ref, so
  // the scheme is TSan-clean.
  // -------------------------------------------------------------------------

  /// Reader-side row walk: acquire-loads the degree (clamped to
  /// max_degree), then calls `fn(id)` with each id acquire-loaded in row
  /// order.
  template <typename Fn>
  void ForEachNeighborAcquire(size_t i, Fn&& fn) const {
    uint32_t* r = const_cast<uint32_t*>(row(i));
    const uint32_t deg = std::min(
        std::atomic_ref<uint32_t>(r[0]).load(std::memory_order_acquire),
        max_degree_);
    for (uint32_t j = 0; j < deg; ++j) {
      fn(std::atomic_ref<uint32_t>(r[1 + j]).load(std::memory_order_acquire));
    }
  }

  /// Writer-side full-row replacement: stores the ids, then release-stores
  /// the new degree so readers that see it also see the ids.
  void PublishNeighbors(size_t i, const uint32_t* ids, uint32_t count) {
    assert(count <= max_degree_);
    uint32_t* r = row(i);
    for (uint32_t j = 0; j < count; ++j) {
      std::atomic_ref<uint32_t>(r[1 + j]).store(ids[j],
                                                std::memory_order_release);
    }
    std::atomic_ref<uint32_t>(r[0]).store(count, std::memory_order_release);
  }

  /// Writer-side append; returns false if the row is full. The id is
  /// visible to readers only once the incremented degree is.
  bool PublishAddNeighbor(size_t i, uint32_t id) {
    uint32_t* r = row(i);
    const uint32_t deg = r[0];  // only the (serialized) writer stores rows
    if (deg >= max_degree_) return false;
    std::atomic_ref<uint32_t>(r[1 + deg]).store(id, std::memory_order_release);
    std::atomic_ref<uint32_t>(r[0]).store(deg + 1, std::memory_order_release);
    return true;
  }

  /// Writer-side row clear visible to concurrent readers.
  void PublishClear(size_t i) {
    std::atomic_ref<uint32_t>(row(i)[0]).store(0, std::memory_order_release);
  }

  size_t memory_bytes() const { return n_ * row_entries_ * sizeof(uint32_t); }
  PageBacking backing() const { return storage_.backing(); }

  void PrefetchAdjacency(size_t i) const {
    const char* p = reinterpret_cast<const char*>(row(i));
    const size_t bytes = row_entries_ * sizeof(uint32_t);
    for (size_t off = 0; off < bytes; off += 64) __builtin_prefetch(p + off, 0, 3);
  }

  /// Average out-degree across all nodes (diagnostics / tests).
  double AverageDegree() const {
    if (n_ == 0) return 0.0;
    size_t total = 0;
    for (size_t i = 0; i < n_; ++i) total += degree(i);
    return static_cast<double>(total) / static_cast<double>(n_);
  }

 private:
  uint32_t* row(size_t i) {
    assert(i < n_);
    assert(ext_rows_ == nullptr && "mapped graphs are read-only");
    return reinterpret_cast<uint32_t*>(storage_.data()) + i * row_entries_;
  }
  const uint32_t* row(size_t i) const {
    assert(i < n_);
    const uint32_t* base =
        ext_rows_ != nullptr ? ext_rows_
                             : reinterpret_cast<const uint32_t*>(storage_.data());
    return base + i * row_entries_;
  }

  size_t n_ = 0;
  uint32_t max_degree_ = 0;
  size_t row_entries_ = 0;
  Arena storage_;
  const uint32_t* ext_rows_ = nullptr;
};

}  // namespace blink
