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
    return AsF64(types_[c], LoadCell(ColData(c) + id));
  }
  /// A raw cell of a column of type `t`, read as f64.
  static double AsF64(ColumnType t, uint64_t raw) {
    return t == ColumnType::kF64
               ? std::bit_cast<double>(raw)
               : static_cast<double>(static_cast<int64_t>(raw));
  }
  /// The one read of a cell (of tags_data() or column_data()): relaxed,
  /// so readers race writers cleanly.
  static uint64_t LoadCell(const uint64_t* p) {
    // atomic_ref<const T> is C++26; the const_cast is load-only.
    return std::atomic_ref<uint64_t>(*const_cast<uint64_t*>(p))
        .load(std::memory_order_relaxed);
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

/// The ids in [0, rows) whose rows match `p`, ascending, written to the
/// front of `*ids` (grown to `rows` if shorter); returns their count. The
/// scan plan's pass over every row: column at a time, the tag column over
/// every row and then each range over the rows still passing.
size_t MatchingRows(const MetadataStore& s, const Predicate& p, size_t rows,
                    std::vector<uint32_t>* ids);

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

/// How one filtered query runs (DESIGN.md D15), as PlanFilter decides:
///  - kPostFilter: traverse unfiltered from `window0` (the caller's
///    window), drop failing candidates at extraction, widen on too few
///    survivors;
///  - kInSearch: push-down traversal from a `window0` boosted by the
///    selectivity, widening likewise;
///  - kScan: no traversal; score every passing live row (the exact
///    filtered top-k) into a buffer of `window0` entries.
/// Traversals widen geometrically up to `widen_cap`.
struct FilterPlan {
  enum Kind : uint8_t { kPostFilter, kInSearch, kScan };
  Kind kind = kPostFilter;
  uint32_t window0 = 0;
  uint32_t widen_cap = 0;
  const char* name() const;  ///< "post-filter", "in-search" or "scan"
};

/// The one filter plan, for a query asking for `k` results at `window`
/// (>= k) over `live_rows` live rows, `selectivity` of which are estimated
/// to pass (EstimateSelectivity; unused under kPostFilter).
///  - widen_cap: `requested_widen_cap` floored at `window`; 0 = auto = the
///    live rows, clamped to the 2^20 window bound of SearchOptions.
///  - In-search start window: the traversal is routed by unfiltered
///    proximity, so the k-th passing neighbour sits at unfiltered rank
///    ~k/selectivity; a window of that order (1.5x headroom), clamped to
///    [window, widen_cap], lets the passing buffer collect good survivors
///    instead of stopping at the first window holding k of any quality.
///  - kAuto scans when the estimated passing rows (selectivity x
///    live_rows) fit in that start window, pushes down at or below
///    kInSearchSelectivityCrossover, and post-filters above it. Explicit
///    strategies are honoured.
FilterPlan PlanFilter(FilterStrategy requested, double selectivity,
                      size_t live_rows, size_t k, uint32_t window,
                      uint32_t requested_widen_cap);

}  // namespace blink
