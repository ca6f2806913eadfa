#include "filter/metadata.h"

#include <algorithm>
#include <cmath>

namespace blink {

bool MatchesPredicate(const MetadataStore& s, const Predicate& p,
                      uint32_t id) {
  const uint64_t t = s.tags(id);
  if (p.tag_any != 0 && (t & p.tag_any) == 0) return false;
  if ((t & p.tag_all) != p.tag_all) return false;
  if ((t & p.tag_none) != 0) return false;
  for (const Predicate::Range& r : p.ranges) {
    const double v = s.NumericF64(r.column, id);
    // Negated comparisons so NaN cells fail every range.
    if (r.lo_strict ? !(v > r.lo) : !(v >= r.lo)) return false;
    if (r.hi_strict ? !(v < r.hi) : !(v <= r.hi)) return false;
  }
  return true;
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

FilterStrategy ResolveFilterStrategy(const MetadataStore& s,
                                     const Predicate& p,
                                     FilterStrategy requested) {
  if (requested != FilterStrategy::kAuto) return requested;
  return EstimateSelectivity(s, p) <= kInSearchSelectivityCrossover
             ? FilterStrategy::kInSearch
             : FilterStrategy::kPostFilter;
}

uint32_t ResolveWidenCap(uint32_t requested, size_t index_size,
                         uint32_t window0) {
  if (requested != 0) return std::max(requested, window0);
  const uint64_t cap =
      std::max<uint64_t>(window0, static_cast<uint64_t>(index_size));
  return static_cast<uint32_t>(std::min<uint64_t>(cap, uint64_t{1} << 20));
}

uint32_t ResolveInSearchWindow(double selectivity, size_t k, uint32_t window0,
                               uint32_t widen_cap) {
  const uint32_t hi = std::max(widen_cap, window0);
  const double want =
      1.5 * static_cast<double>(k) / std::max(selectivity, 1e-6);
  if (want >= static_cast<double>(hi)) return hi;
  return std::max(window0, static_cast<uint32_t>(std::ceil(want)));
}

}  // namespace blink
