// The candidate queue of Algorithm 1 and the visited-tracking structures
// (paper Sec. 5, "Optimizing graph search").
//
// The paper replaces the usual heap with a *sorted linear buffer*: for the
// window sizes W common in practice (a few dozen) insertion-by-memmove into
// a sorted array is faster than heap operations because it is branch- and
// cache-friendly. Whether a node has been explored is stored inline with
// the id and distance.
//
// The paper also found that maintaining a separate visited set can be a net
// regression once distance computations are cheap; both modes are
// supported (DESIGN.md ablation D5). Without a visited set, duplicates are
// suppressed only against the buffer's current contents: equal ids produce
// bit-identical distances, so duplicates are adjacent in the sorted order
// and can be detected during insertion at negligible cost.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace blink {

/// One candidate of a SearchBuffer.
struct SearchEntry {
  float dist;
  uint32_t id;
  uint8_t explored;  // 0 / 1
  uint8_t dead;      // 0 / 1; SearchEntry stays 12 bytes
};

/// A candidate of a WideningBuffer: also its insertion number, which
/// orders equal distances once entries have left the sorted window.
struct WideningEntry : SearchEntry {
  uint32_t seq;
};

/// Sorted candidate buffer ordered by ascending distance, holding up to
/// `capacity` live entries.
///
/// Entries may also be *dead* (a dynamic index's navigable tombstones,
/// DESIGN.md D9): a dead entry is kept, and expanded, while it is closer
/// than the capacity-th live entry, but it never counts toward the
/// capacity. Everything beyond the capacity-th live entry is dropped. So a
/// traversal through tombstones still ends with `capacity` live entries,
/// whatever the tombstones' number or placement. Without dead entries the
/// buffer is the plain fixed-capacity buffer of Algorithm 1.
///
/// The widening flavor (WideningBuffer, DESIGN.md D16) drops nothing: what
/// falls off the window, or is offered past it, is *spilled* unsorted, and
/// Widen() raises the capacity and takes back the spilled entries now
/// inside it. Ties order by insertion, as in the window, so after the same
/// inserts a widened buffer holds exactly what a fresh buffer of the wider
/// capacity holds. The window itself is sorted and inserted into exactly
/// as in the plain flavor; spilling stops once the capacity reaches the
/// limit, the widest window a caller may ask for.
template <bool kWiden>
class BasicSearchBuffer {
 public:
  using Entry = std::conditional_t<kWiden, WideningEntry, SearchEntry>;
  static constexpr bool kWidening = kWiden;

  explicit BasicSearchBuffer(size_t capacity = 0) { Reset(capacity); }

  void Reset(size_t capacity) {
    capacity_ = capacity;
    // +1 slot simplifies full-buffer insert; dead entries grow it further.
    if (entries_.size() < capacity + 1) entries_.resize(capacity + 1);
    size_ = 0;
    num_dead_ = 0;
    first_unexplored_ = 0;
    if constexpr (kWiden) {
      spill_.clear();
      seq_ = 0;
    }
  }

  /// Entries held, live and dead.
  size_t size() const { return size_; }
  /// Dead entries held; size() - num_dead() <= capacity().
  size_t num_dead() const { return num_dead_; }
  size_t capacity() const { return capacity_; }
  const Entry& operator[](size_t i) const { return entries_[i]; }

  /// Inserts a live (dist, id) keeping the buffer sorted and capped at
  /// capacity. Returns false if the candidate was rejected (too far) or a
  /// duplicate.
  bool Insert(float dist, uint32_t id) { return Insert(dist, id, false); }

  /// Inserts (dist, id), dead or live, under the live-capacity rule above.
  /// Always inlined: it is the traversal's per-candidate cost, and GCC's
  /// unit-growth budget otherwise left it out of line in translation
  /// units that instantiate many traversals.
  [[gnu::always_inline]] bool Insert(float dist, uint32_t id, bool dead) {
    // Full: `capacity` live entries, the last of them the last entry.
    const bool full = size_ - num_dead_ == capacity_;
    if (full && dist >= entries_[size_ - 1].dist) {
      if constexpr (kWiden) {
        Spill({{dist, id, 0, static_cast<uint8_t>(dead)}, seq_++});
      }
      return false;
    }
    // Binary search for the insertion position (first entry with
    // entry.dist > dist; ties keep insertion order stable).
    size_t lo = 0, hi = size_;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (entries_[mid].dist <= dist) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // Duplicate check: an equal id yields a bit-identical distance, so any
    // duplicate sits in the contiguous run of equal distances ending at lo.
    for (size_t p = lo; p > 0 && entries_[p - 1].dist == dist; --p) {
      if (entries_[p - 1].id == id) return false;
    }
    if (size_ == entries_.size()) entries_.resize(2 * size_);
    Entry* const e = entries_.data();
    std::memmove(e + lo + 1, e + lo, (size_ - lo) * sizeof(Entry));
    if constexpr (kWiden) {
      entries_[lo] = {{dist, id, 0, static_cast<uint8_t>(dead)}, seq_++};
    } else {
      entries_[lo] = {dist, id, 0, static_cast<uint8_t>(dead)};
    }
    ++size_;
    if (dead) {
      ++num_dead_;
    } else if (size_ - num_dead_ >= capacity_) {
      // Drop what now lies beyond the capacity-th live entry: the former
      // last entry (live) when the buffer was full, then any dead tail.
      // The widening flavor spills them instead.
      if (full) {
        --size_;
        if constexpr (kWiden) Spill(entries_[size_]);
      }
      while (entries_[size_ - 1].dead) {
        --size_;
        --num_dead_;
        if constexpr (kWiden) Spill(entries_[size_]);
      }
    }
    if (lo < first_unexplored_) first_unexplored_ = lo;
    return true;
  }

  /// Index of the closest unexplored entry, or -1 if all are explored.
  long NextUnexplored() {
    for (size_t i = first_unexplored_; i < size_; ++i) {
      if (!entries_[i].explored) {
        first_unexplored_ = i;
        return static_cast<long>(i);
      }
    }
    first_unexplored_ = size_;
    return -1;
  }

  void MarkExplored(size_t i) { entries_[i].explored = 1; }

  /// Worst (largest) distance currently held, +inf while not full.
  float WorstDist() const {
    if (size_ - num_dead_ < capacity_) return kInf;
    return entries_[size_ - 1].dist;
  }

  /// Widening flavor: the widest capacity Widen() will be asked for.
  /// Entries leaving the window are spilled only while the capacity is
  /// below it. Kept across Reset().
  void SetLimit(size_t limit)
    requires kWiden
  {
    limit_ = limit;
  }

  /// Widening flavor: raises the capacity to `capacity` (>= capacity())
  /// and appends, in (distance, insertion) order, the spilled entries that
  /// now rank up to the capacity-th live entry, explored flags kept. Every
  /// spilled entry ranks after every windowed one, so the window stays
  /// sorted. A spilled duplicate of a taken id (re-offered without a
  /// visited set) is dropped, as Insert() would have.
  void Widen(size_t capacity)
    requires kWiden
  {
    capacity_ = capacity;
    const size_t old_size = size_;
    auto ranks_before = [](const Entry& a, const Entry& b) {
      return a.dist < b.dist || (a.dist == b.dist && a.seq < b.seq);
    };
    // Take the spill front to back in rounds of the live entries still
    // missing: a dead entry taken costs a further round.
    size_t taken = 0;
    while (size_ - num_dead_ < capacity_ && taken < spill_.size()) {
      const auto first = spill_.begin() + static_cast<long>(taken);
      const size_t want = capacity_ - (size_ - num_dead_);
      const auto last = first + static_cast<long>(
                                    std::min(want, spill_.size() - taken));
      std::nth_element(first, last - 1, spill_.end(), ranks_before);
      std::sort(first, last - 1, ranks_before);
      for (auto it = first; it != last; ++it, ++taken) Append(*it);
    }
    spill_.erase(spill_.begin(), spill_.begin() + static_cast<long>(taken));
    if (capacity_ >= limit_) spill_.clear();
    if (old_size < first_unexplored_) first_unexplored_ = old_size;
  }

 private:
  static constexpr float kInf = 3.4e38f;

  void Spill(const Entry& e) {
    if (capacity_ < limit_) spill_.push_back(e);
  }

  /// Widen(): appends a taken entry unless it duplicates one held.
  void Append(const Entry& e) {
    for (size_t p = size_; p > 0 && entries_[p - 1].dist == e.dist; --p) {
      if (entries_[p - 1].id == e.id) return;
    }
    if (size_ == entries_.size()) entries_.resize(2 * size_ + 1);
    entries_[size_++] = e;
    num_dead_ += e.dead;
  }

  std::vector<Entry> entries_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t num_dead_ = 0;
  size_t first_unexplored_ = 0;
  // Widening flavor only (empty otherwise).
  std::vector<Entry> spill_;
  size_t limit_ = 0;
  uint32_t seq_ = 0;
};

/// The candidate buffer of Algorithm 1.
using SearchBuffer = BasicSearchBuffer<false>;
/// The buffer of a widened (filtered) search, which Traverse can resume at
/// a wider window (DESIGN.md D16).
using WideningBuffer = BasicSearchBuffer<true>;

/// O(1)-reset visited tracking: per-node epoch stamps. Marking is a store;
/// a query bump invalidates all previous marks at once.
class VisitedSet {
 public:
  explicit VisitedSet(size_t n = 0) : stamps_(n, 0) {}

  void Resize(size_t n) { stamps_.assign(n, 0); }
  size_t size() const { return stamps_.size(); }

  /// Invalidates all marks (start of a new query).
  void NextQuery() {
    if (++epoch_ == 0) {  // epoch wrap: hard reset
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  bool Visited(uint32_t id) const { return stamps_[id] == epoch_; }

  /// Returns true if newly marked, false if already visited.
  bool CheckAndMark(uint32_t id) {
    if (stamps_[id] == epoch_) return false;
    stamps_[id] = epoch_;
    return true;
  }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
};

}  // namespace blink
