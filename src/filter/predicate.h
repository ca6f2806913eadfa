// Filter predicates over per-vector metadata (DESIGN.md D15).
//
// A Predicate is a conjunction of
//   - tag constraints over a u64 tag-set bitmask: any-of / all-of / none-of,
//   - numeric range constraints over typed columns (i64 or f64), each an
//     interval with independently strict or inclusive endpoints.
//
// Predicates are plain data: they reference metadata columns by index and
// carry no pointer to a MetadataStore, so one predicate can be evaluated
// against any store with a compatible schema (e.g. the per-shard slices of
// a sharded index, or a server-side store a remote client has never seen).
// Binding happens at evaluation time through FilterView (metadata.h).
//
// The textual grammar (parsed by Predicate::Parse, exposed to CLIs via
// tools::ParseFilterFlag) is a space-separated clause list:
//
//   clause  := tag-clause | num-clause
//   tag-clause := "tag:any=" bitlist | "tag:all=" bitlist | "tag:none=" bitlist
//   bitlist := bit ("," bit)*          // bit in [0, 63]
//   num-clause := "num" col op value   // e.g. num0>=2.5, num1<10, num2=7
//   op      := "<" | "<=" | ">" | ">=" | "="
//
// Parsing is strict in the ParseUintListFlag tradition: single-space
// separators, no empty clauses, whole-token numbers, trailing garbage is an
// error. Repeated tag clauses of the same kind OR their masks; repeated
// num clauses on one column conjoin (intersect) as separate ranges.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/status.h"

namespace blink {

/// Cell type of one metadata column. Every cell is stored as 8 bytes; the
/// type governs interpretation (and exact round-tripping in the artifact).
enum class ColumnType : uint8_t {
  kI64 = 0,
  kF64 = 1,
};

/// How a filtered search executes (DESIGN.md D15).
///  - kPostFilter: search unfiltered, drop failing candidates at extraction,
///    widening the window geometrically until k survivors or a cap.
///  - kInSearch: the greedy traversal evaluates the predicate per candidate
///    and keeps a separate result buffer of passing vertices while still
///    routing through failing ones (filtered-Vamana style).
///  - kAuto: pick by estimated selectivity (crossover in metadata.h).
enum class FilterStrategy : uint8_t {
  kAuto = 0,
  kPostFilter = 1,
  kInSearch = 2,
};

/// A compiled metadata predicate: tag masks plus numeric range conjunctions.
struct Predicate {
  /// Pass requires (tags & tag_any) != 0. Zero disables the constraint.
  uint64_t tag_any = 0;
  /// Pass requires (tags & tag_all) == tag_all. Zero disables.
  uint64_t tag_all = 0;
  /// Pass requires (tags & tag_none) == 0. Zero disables.
  uint64_t tag_none = 0;

  /// One numeric interval constraint; a predicate passes only if every
  /// range passes. NaN column values fail every range.
  struct Range {
    uint32_t column = 0;
    bool lo_strict = false;  ///< true: value > lo, false: value >= lo
    bool hi_strict = false;  ///< true: value < hi, false: value <= hi
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool operator==(const Range&) const = default;
  };
  std::vector<Range> ranges;

  bool operator==(const Predicate&) const = default;

  /// True when no constraint is set (matches everything).
  bool Trivial() const {
    return tag_any == 0 && tag_all == 0 && tag_none == 0 && ranges.empty();
  }

  /// Checks column references against a store's column count and rejects
  /// NaN bounds / empty intervals. Call at configuration boundaries (CLI,
  /// net server) so bad predicates fail loudly, not as empty result sets.
  Status ValidateFor(size_t num_columns) const;

  /// Strict parser for the grammar above. Returns InvalidArgument with a
  /// pointer to the offending clause on any deviation.
  static Result<Predicate> Parse(const std::string& text);

  /// Canonical textual form (re-parseable); "<match-all>" when Trivial().
  std::string ToString() const;
};

}  // namespace blink
