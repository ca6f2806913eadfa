// Per-vector metadata column store (DESIGN.md D15).
//
// Layout is columnar and keyed by dense vector id: one u64 tag-set bitmask
// column plus zero or more typed numeric columns (i64 or f64), every cell a
// fixed 8 bytes. Columnar cells keep predicate evaluation a handful of
// contiguous loads and make the serialized sections mmap-clean (each column
// is one 64-byte-aligned run of n*8 bytes, see filter/serialize.h).
//
// Concurrency: every cell access goes through std::atomic_ref with relaxed
// ordering, so the dynamic path can upsert metadata while searchers read it
// (TSan-clean, free on x86). A row update is not atomic across cells —
// a concurrent reader may see a half-applied row — which is acceptable for
// filtering: publication ordering for *liveness* is owned by the dynamic
// index's epoch protocol, metadata rows are eventually consistent.
//
// Two backings share one interface:
//  - owned: std::vector<uint64_t> per column (Build / kLoad / dynamic),
//  - external: const pointers into an mmap (kMap); mutation is a no-op
//    guarded by callers (the dynamic path never maps).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "filter/predicate.h"
#include "util/status.h"

namespace blink {

class MetadataStore {
 public:
  MetadataStore() = default;

  /// Owned store with `n` zeroed rows and the given numeric column types.
  MetadataStore(size_t n, std::vector<ColumnType> types)
      : n_(n), types_(std::move(types)), tags_(n, 0) {
    cols_.resize(types_.size());
    for (auto& c : cols_) c.assign(n, 0);
  }

  /// Read-only view over externally owned (mmapped) column runs. Pointers
  /// must be 8-byte aligned and outlive the store.
  static MetadataStore FromExternal(size_t n, std::vector<ColumnType> types,
                                    const uint64_t* tags,
                                    std::vector<const uint64_t*> cols) {
    MetadataStore s;
    s.n_ = n;
    s.types_ = std::move(types);
    s.tags_ext_ = tags;
    s.cols_ext_ = std::move(cols);
    return s;
  }

  size_t size() const { return n_; }
  size_t num_columns() const { return types_.size(); }
  ColumnType column_type(size_t c) const { return types_[c]; }
  const std::vector<ColumnType>& schema() const { return types_; }
  bool external() const { return tags_ext_ != nullptr; }

  uint64_t tags(uint32_t id) const { return LoadCell(TagsData() + id); }
  void set_tags(uint32_t id, uint64_t v) { StoreCell(&tags_[id], v); }

  int64_t NumericI64(size_t c, uint32_t id) const {
    const uint64_t raw = LoadCell(ColData(c) + id);
    return types_[c] == ColumnType::kI64
               ? static_cast<int64_t>(raw)
               : static_cast<int64_t>(std::bit_cast<double>(raw));
  }
  double NumericF64(size_t c, uint32_t id) const {
    const uint64_t raw = LoadCell(ColData(c) + id);
    return types_[c] == ColumnType::kF64
               ? std::bit_cast<double>(raw)
               : static_cast<double>(static_cast<int64_t>(raw));
  }

  /// Stores `v` converted to the column's type (i64 columns truncate
  /// toward zero; i64 magnitudes beyond 2^53 lose precision — D15).
  void SetNumeric(size_t c, uint32_t id, double v) {
    const uint64_t raw =
        types_[c] == ColumnType::kF64
            ? std::bit_cast<uint64_t>(v)
            : static_cast<uint64_t>(static_cast<int64_t>(v));
    StoreCell(&cols_[c][id], raw);
  }
  void SetNumericI64(size_t c, uint32_t id, int64_t v) {
    const uint64_t raw = types_[c] == ColumnType::kI64
                             ? static_cast<uint64_t>(v)
                             : std::bit_cast<uint64_t>(static_cast<double>(v));
    StoreCell(&cols_[c][id], raw);
  }

  /// Zeroes one row (tags and every numeric cell). Used when the dynamic
  /// index recycles a slot so a new vector never inherits stale metadata.
  void ClearRow(uint32_t id) {
    StoreCell(&tags_[id], 0);
    for (auto& col : cols_) StoreCell(&col[id], 0);
  }

  /// Grows (or shrinks) an owned store; new rows are zeroed. The dynamic
  /// index calls this under its exclusive lock, mirroring storage Grow.
  void Resize(size_t n) {
    n_ = n;
    tags_.resize(n, 0);
    for (auto& col : cols_) col.resize(n, 0);
  }

  /// Owned deep copy (external stores materialize onto the heap). The
  /// dynamic flavor copies shared or mapped metadata through this before
  /// attaching, since its rows are upserted in place.
  MetadataStore OwnedCopy() const {
    MetadataStore s(n_, types_);
    // types_.size(), not cols_.size(): an external store keeps its column
    // pointers in cols_ext_ and leaves cols_ empty.
    for (size_t i = 0; i < n_; ++i) {
      s.tags_[i] = LoadCell(TagsData() + i);
      for (size_t c = 0; c < types_.size(); ++c)
        s.cols_[c][i] = LoadCell(ColData(c) + i);
    }
    return s;
  }

  /// Owned copy holding rows `ids[0..m)` renumbered to 0..m (the sharded
  /// index slices the global store into per-shard local-id stores).
  MetadataStore Slice(const std::vector<uint32_t>& ids) const {
    MetadataStore s(ids.size(), types_);
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint32_t src = ids[i];
      s.tags_[i] = LoadCell(TagsData() + src);
      for (size_t c = 0; c < types_.size(); ++c)
        s.cols_[c][i] = LoadCell(ColData(c) + src);
    }
    return s;
  }

  /// Raw column runs for serialization (n_ cells each).
  const uint64_t* tags_data() const { return TagsData(); }
  const uint64_t* column_data(size_t c) const { return ColData(c); }

  size_t memory_bytes() const {
    return external() ? 0 : (1 + cols_.size()) * n_ * sizeof(uint64_t);
  }

 private:
  const uint64_t* TagsData() const {
    return tags_ext_ != nullptr ? tags_ext_ : tags_.data();
  }
  const uint64_t* ColData(size_t c) const {
    return tags_ext_ != nullptr ? cols_ext_[c] : cols_[c].data();
  }
  static uint64_t LoadCell(const uint64_t* p) {
    // atomic_ref<const T> is C++26; the const_cast is load-only.
    return std::atomic_ref<uint64_t>(*const_cast<uint64_t*>(p))
        .load(std::memory_order_relaxed);
  }
  static void StoreCell(uint64_t* p, uint64_t v) {
    std::atomic_ref<uint64_t>(*p).store(v, std::memory_order_relaxed);
  }

  size_t n_ = 0;
  std::vector<ColumnType> types_;
  std::vector<uint64_t> tags_;
  std::vector<std::vector<uint64_t>> cols_;
  const uint64_t* tags_ext_ = nullptr;
  std::vector<const uint64_t*> cols_ext_;
};

/// Evaluates `p` against row `id` of `s`. Tag semantics: any → at least one
/// shared bit, all → superset, none → disjoint; ranges conjoin.
bool MatchesPredicate(const MetadataStore& s, const Predicate& p, uint32_t id);

/// A predicate bound to a store for per-candidate evaluation inside the
/// greedy search loop (see SearchParams::filter).
struct FilterView {
  const MetadataStore* store = nullptr;
  const Predicate* pred = nullptr;
  bool Pass(uint32_t id) const { return MatchesPredicate(*store, *pred, id); }
};

/// Estimated fraction of the first `rows` rows (all, by default) matching
/// `p`, from a deterministic strided sample of at most `max_samples` of
/// them. Laplace-smoothed so it is never exactly 0 or 1 on a sample. A
/// dynamic index passes its slots in use: its store also holds the
/// never-inserted rows up to capacity.
double EstimateSelectivity(const MetadataStore& s, const Predicate& p,
                           size_t rows = SIZE_MAX, size_t max_samples = 1024);

/// Selectivity at or below which in-search push-down beats widened
/// post-filtering (DESIGN.md D15 crossover rule).
inline constexpr double kInSearchSelectivityCrossover = 0.05;

/// Resolves kAuto via the selectivity crossover; echoes explicit choices.
FilterStrategy ResolveFilterStrategy(const MetadataStore& s,
                                     const Predicate& p,
                                     FilterStrategy requested);

/// The window cap for adaptive widening: an explicit request is honored
/// (floored at the starting window); 0 = auto = the index size, clamped to
/// the same 2^20 bound SearchOptions::Validate enforces for windows.
uint32_t ResolveWidenCap(uint32_t requested, size_t index_size,
                         uint32_t window0);

/// Starting window for the in-search (push-down) strategy. The traversal is
/// routed by unfiltered proximity, so the k-th passing neighbor sits at
/// unfiltered rank ~k/selectivity; a window of that order (with 1.5x
/// headroom) is needed for the passing buffer to collect high-quality
/// survivors. Post-filtering self-corrects by widening on survivor count;
/// in-search would otherwise stop at the first window holding k survivors
/// of arbitrary quality (DESIGN.md D15). Clamped to [window0, widen_cap].
uint32_t ResolveInSearchWindow(double selectivity, size_t k, uint32_t window0,
                               uint32_t widen_cap);

}  // namespace blink
