#include "filter/metadata.h"

#include <algorithm>
#include <cmath>

namespace blink {

namespace {

bool TagsPass(const Predicate& p, uint64_t t) {
  return (p.tag_any == 0 || (t & p.tag_any) != 0) &&
         (t & p.tag_all) == p.tag_all && (t & p.tag_none) == 0;
}

bool InRange(const Predicate::Range& r, double v) {
  // Negated comparisons so NaN cells fail every range.
  if (r.lo_strict ? !(v > r.lo) : !(v >= r.lo)) return false;
  return r.hi_strict ? v < r.hi : v <= r.hi;
}

}  // namespace

bool MatchesPredicate(const MetadataStore& s, const Predicate& p,
                      uint32_t id) {
  if (!TagsPass(p, s.tags(id))) return false;
  for (const Predicate::Range& r : p.ranges) {
    if (!InRange(r, s.NumericF64(r.column, id))) return false;
  }
  return true;
}

size_t MatchingRows(const MetadataStore& s, const Predicate& p, size_t rows,
                    std::vector<uint32_t>* ids) {
  if (ids->size() < rows) ids->resize(rows);
  uint32_t* out = ids->data();
  // Branch-free compaction: every row is written, the count advances only
  // past a passing one.
  size_t n = 0;
  const uint64_t* tags = s.tags_data();
  const bool tagged = p.tag_any != 0 || p.tag_all != 0 || p.tag_none != 0;
  for (uint32_t id = 0; id < rows; ++id) {
    out[n] = id;
    n += !tagged || TagsPass(p, MetadataStore::LoadCell(tags + id));
  }
  for (const Predicate::Range& r : p.ranges) {
    const uint64_t* cells = s.column_data(r.column);
    const ColumnType type = s.column_type(r.column);
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t id = out[i];
      out[kept] = id;
      kept += InRange(r, MetadataStore::AsF64(
                             type, MetadataStore::LoadCell(cells + id)));
    }
    n = kept;
  }
  return n;
}

double EstimateSelectivity(const MetadataStore& s, const Predicate& p,
                           size_t rows, size_t max_samples) {
  const size_t n = std::min(rows, s.size());
  if (n == 0 || max_samples == 0) return 1.0;
  const size_t samples = std::min(n, max_samples);
  const size_t stride = n / samples;  // >= 1
  size_t hits = 0;
  size_t taken = 0;
  for (size_t i = 0; taken < samples && i < n; i += stride, ++taken) {
    if (MatchesPredicate(s, p, static_cast<uint32_t>(i))) ++hits;
  }
  // Laplace smoothing: a sample that happens to miss every match must not
  // report selectivity 0 (the strategy crossover divides by it downstream).
  return (static_cast<double>(hits) + 1.0) / (static_cast<double>(taken) + 2.0);
}

const char* FilterPlan::name() const {
  switch (kind) {
    case kInSearch: return "in-search";
    case kScan: return "scan";
    default: return "post-filter";
  }
}

FilterPlan PlanFilter(FilterStrategy requested, double selectivity,
                      size_t live_rows, size_t k, uint32_t window,
                      uint32_t requested_widen_cap) {
  FilterPlan plan;
  plan.window0 = window;
  plan.widen_cap =
      requested_widen_cap != 0
          ? std::max(requested_widen_cap, window)
          : static_cast<uint32_t>(std::min<uint64_t>(
                std::max<uint64_t>(window, live_rows), uint64_t{1} << 20));
  if (requested == FilterStrategy::kPostFilter) return plan;
  const double want =
      1.5 * static_cast<double>(k) / std::max(selectivity, 1e-6);
  const uint32_t boosted =
      want >= static_cast<double>(plan.widen_cap)
          ? plan.widen_cap
          : std::max(window, static_cast<uint32_t>(std::ceil(want)));
  plan.kind = FilterPlan::kInSearch;
  if (requested == FilterStrategy::kAuto) {
    if (selectivity * static_cast<double>(live_rows) <= boosted) {
      plan.kind = FilterPlan::kScan;
    } else if (selectivity > kInSearchSelectivityCrossover) {
      plan.kind = FilterPlan::kPostFilter;
      return plan;
    }
  }
  plan.window0 = boosted;
  return plan;
}

}  // namespace blink
