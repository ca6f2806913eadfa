// Unit tests for the sorted linear candidate buffer and visited tracking
// (paper Sec. 5 "Optimizing graph search").
#include "graph/search_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/prng.h"

namespace blink {
namespace {

TEST(SearchBuffer, KeepsAscendingOrder) {
  SearchBuffer buf(8);
  Rng rng(1);
  for (uint32_t i = 0; i < 50; ++i) {
    buf.Insert(rng.UniformFloat(), i);
  }
  ASSERT_EQ(buf.size(), 8u);
  for (size_t i = 1; i < buf.size(); ++i) {
    EXPECT_LE(buf[i - 1].dist, buf[i].dist);
  }
}

TEST(SearchBuffer, EvictsWorstWhenFull) {
  SearchBuffer buf(3);
  buf.Insert(3.0f, 3);
  buf.Insert(1.0f, 1);
  buf.Insert(2.0f, 2);
  EXPECT_FALSE(buf.Insert(5.0f, 5));  // rejected: worse than all
  EXPECT_TRUE(buf.Insert(0.5f, 0));   // evicts id 3
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf[0].id, 0u);
  EXPECT_EQ(buf[1].id, 1u);
  EXPECT_EQ(buf[2].id, 2u);
}

TEST(SearchBuffer, RejectsDuplicateIds) {
  SearchBuffer buf(4);
  EXPECT_TRUE(buf.Insert(1.0f, 7));
  EXPECT_FALSE(buf.Insert(1.0f, 7));  // same id, same (bit-identical) dist
  EXPECT_EQ(buf.size(), 1u);
}

TEST(SearchBuffer, DuplicatesAmongEqualDistances) {
  SearchBuffer buf(8);
  // Several ids sharing one distance; re-inserting any of them is a no-op.
  EXPECT_TRUE(buf.Insert(1.0f, 1));
  EXPECT_TRUE(buf.Insert(1.0f, 2));
  EXPECT_TRUE(buf.Insert(1.0f, 3));
  EXPECT_FALSE(buf.Insert(1.0f, 2));
  EXPECT_EQ(buf.size(), 3u);
}

TEST(SearchBuffer, ExploredTracking) {
  SearchBuffer buf(4);
  buf.Insert(2.0f, 2);
  buf.Insert(1.0f, 1);
  long idx = buf.NextUnexplored();
  ASSERT_EQ(idx, 0);
  EXPECT_EQ(buf[0].id, 1u);
  buf.MarkExplored(0);
  idx = buf.NextUnexplored();
  ASSERT_EQ(idx, 1);
  buf.MarkExplored(1);
  EXPECT_EQ(buf.NextUnexplored(), -1);
}

TEST(SearchBuffer, InsertBeforeExploredRewindsScan) {
  SearchBuffer buf(4);
  buf.Insert(2.0f, 2);
  buf.MarkExplored(static_cast<size_t>(buf.NextUnexplored()));
  // A closer candidate arrives after the first was explored.
  buf.Insert(1.0f, 1);
  const long idx = buf.NextUnexplored();
  ASSERT_EQ(idx, 0);
  EXPECT_EQ(buf[0].id, 1u);
  EXPECT_EQ(buf[0].explored, 0u);
  EXPECT_EQ(buf[1].id, 2u);
  EXPECT_EQ(buf[1].explored, 1u);
}

TEST(SearchBuffer, WorstDistIsInfinityUntilFull) {
  SearchBuffer buf(2);
  EXPECT_GT(buf.WorstDist(), 1e37f);
  buf.Insert(1.0f, 1);
  EXPECT_GT(buf.WorstDist(), 1e37f);
  buf.Insert(2.0f, 2);
  EXPECT_FLOAT_EQ(buf.WorstDist(), 2.0f);
}

TEST(SearchBuffer, ResetClearsState) {
  SearchBuffer buf(4);
  buf.Insert(1.0f, 1);
  buf.MarkExplored(static_cast<size_t>(buf.NextUnexplored()));
  buf.Reset(6);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 6u);
  EXPECT_EQ(buf.NextUnexplored(), -1);
}

TEST(SearchBuffer, StressAgainstSortedReference) {
  const size_t cap = 16;
  SearchBuffer buf(cap);
  std::vector<std::pair<float, uint32_t>> ref;
  Rng rng(42);
  for (uint32_t i = 0; i < 500; ++i) {
    const float dist = rng.UniformFloat();
    buf.Insert(dist, i);
    ref.push_back({dist, i});
  }
  std::sort(ref.begin(), ref.end());
  ASSERT_EQ(buf.size(), cap);
  for (size_t i = 0; i < cap; ++i) {
    EXPECT_FLOAT_EQ(buf[i].dist, ref[i].first) << i;
    EXPECT_EQ(buf[i].id, ref[i].second) << i;
  }
}

// --- live-aware capacity (dead entries) ----------------------------------

TEST(SearchBuffer, DeadEntriesDoNotCountTowardCapacity) {
  SearchBuffer buf(2);
  EXPECT_TRUE(buf.Insert(1.0f, 1, /*dead=*/true));
  EXPECT_TRUE(buf.Insert(2.0f, 2, /*dead=*/true));
  EXPECT_TRUE(buf.Insert(3.0f, 3));
  EXPECT_GT(buf.WorstDist(), 1e37f);  // one live entry: not full
  EXPECT_TRUE(buf.Insert(5.0f, 5, /*dead=*/true));
  EXPECT_TRUE(buf.Insert(4.0f, 4));
  // Full at two live entries; the dead entry at 5 lay beyond the second.
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.num_dead(), 2u);
  EXPECT_FLOAT_EQ(buf.WorstDist(), 4.0f);
  EXPECT_FALSE(buf.Insert(4.5f, 6, /*dead=*/true));  // beyond the window
  // A closer live entry evicts the second live one and nothing else.
  EXPECT_TRUE(buf.Insert(0.5f, 7));
  ASSERT_EQ(buf.size(), 4u);
  const uint32_t want[] = {7, 1, 2, 3};
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(buf[i].id, want[i]) << i;
  // Dead entries are expanded like live ones.
  EXPECT_EQ(buf.NextUnexplored(), 0);
  buf.MarkExplored(0);
  EXPECT_EQ(buf.NextUnexplored(), 1);
  EXPECT_EQ(buf[1].dead, 1u);
  buf.Reset(2);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.num_dead(), 0u);
}

/// Brute-force model of the live-aware buffer: every distinct candidate
/// offered so far, stably sorted by distance, cut after the capacity-th
/// live entry. Explored marks are kept by id.
class ReferenceBuffer {
 public:
  explicit ReferenceBuffer(size_t capacity) : capacity_(capacity) {}

  bool Insert(float dist, uint32_t id, bool dead) {
    for (const SearchBuffer::Entry& e : offered_) {
      if (e.id == id) return false;  // offered before: duplicate or cut
    }
    const auto pos = std::upper_bound(
        offered_.begin(), offered_.end(), dist,
        [](float d, const SearchBuffer::Entry& e) { return d < e.dist; });
    const size_t at = static_cast<size_t>(pos - offered_.begin());
    offered_.insert(pos, {dist, id, 0, static_cast<uint8_t>(dead)});
    return at < Contents().size();
  }

  std::vector<SearchBuffer::Entry> Contents() const {
    std::vector<SearchBuffer::Entry> out;
    size_t live = 0;
    for (const SearchBuffer::Entry& e : offered_) {
      if (live == capacity_) break;
      out.push_back(e);
      out.back().explored = explored_.count(e.id) ? 1 : 0;
      live += e.dead ? 0 : 1;
    }
    return out;
  }

  long NextUnexplored() const {
    const std::vector<SearchBuffer::Entry> c = Contents();
    for (size_t i = 0; i < c.size(); ++i) {
      if (!c[i].explored) return static_cast<long>(i);
    }
    return -1;
  }

  void MarkExplored(size_t i) { explored_.insert(Contents()[i].id); }

  /// Raises the capacity: the contents grow by the candidates it now
  /// admits, which a widening buffer must take back from its spill.
  void Widen(size_t capacity) { capacity_ = capacity; }

 private:
  size_t capacity_;
  std::vector<SearchBuffer::Entry> offered_;
  std::set<uint32_t> explored_;
};

template <typename Buffer>
void ExpectSameEntries(const Buffer& got,
                       const std::vector<SearchBuffer::Entry>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  size_t dead = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << what << " id at " << i;
    ASSERT_EQ(got[i].dist, want[i].dist) << what << " dist at " << i;
    ASSERT_EQ(got[i].dead, want[i].dead) << what << " dead at " << i;
    ASSERT_EQ(got[i].explored, want[i].explored) << what << " explored " << i;
    dead += want[i].dead;
  }
  ASSERT_EQ(got.num_dead(), dead) << what;
}

/// Seeded random inserts (coarse distances, so ties occur; repeated ids,
/// as a search without a visited set offers them) interleaved with
/// expansions, against the model. With `dead_permille` = 0 the buffer is
/// also checked against a plain buffer fed through Insert(dist, id).
void CheckAgainstReference(size_t capacity, uint32_t dead_permille,
                           uint64_t seed) {
  SearchBuffer buf(capacity);
  SearchBuffer plain(capacity);
  ReferenceBuffer ref(capacity);
  Rng rng(seed);
  std::vector<std::pair<float, bool>> seen;  // by id: (dist, dead)
  for (size_t op = 0; op < 3000; ++op) {
    const std::string what = "capacity " + std::to_string(capacity) +
                             " dead " + std::to_string(dead_permille) +
                             "/1000 seed " + std::to_string(seed) + " op " +
                             std::to_string(op);
    if (rng.Bounded(4) == 0) {
      const long want = ref.NextUnexplored();
      ASSERT_EQ(buf.NextUnexplored(), want) << what;
      if (dead_permille == 0) {
        ASSERT_EQ(plain.NextUnexplored(), want) << what;
      }
      if (want >= 0) {
        buf.MarkExplored(static_cast<size_t>(want));
        if (dead_permille == 0) plain.MarkExplored(static_cast<size_t>(want));
        ref.MarkExplored(static_cast<size_t>(want));
      }
    } else {
      // Re-offer a known id one time in eight, with its own distance.
      uint32_t id;
      if (!seen.empty() && rng.Bounded(8) == 0) {
        id = static_cast<uint32_t>(rng.Bounded(seen.size()));
      } else {
        id = static_cast<uint32_t>(seen.size());
        seen.push_back({static_cast<float>(rng.Bounded(200)) / 8.0f,
                        rng.Bounded(1000) < dead_permille});
      }
      const auto [dist, dead] = seen[id];
      const bool want = ref.Insert(dist, id, dead);
      ASSERT_EQ(buf.Insert(dist, id, dead), want) << what;
      if (dead_permille == 0) {
        ASSERT_EQ(plain.Insert(dist, id), want) << what;
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(buf, ref.Contents(), what));
    if (dead_permille == 0) {
      ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(plain, ref.Contents(), what));
    }
  }
}

TEST(SearchBuffer, LiveAwareMatchesBruteForceReference) {
  for (size_t capacity : {1, 4, 16}) {
    for (uint32_t dead_permille : {0u, 300u, 800u}) {
      for (uint64_t seed : {11u, 12u}) {
        ASSERT_NO_FATAL_FAILURE(
            CheckAgainstReference(capacity, dead_permille, seed));
      }
    }
  }
}

// --- the widening buffer ----------------------------------------------------

/// The widening buffer against the same model, with widenings interleaved:
/// after every operation it must hold exactly what the model's prefix at
/// the current capacity holds, explored marks included, so a spilled
/// entry comes back in its place and with its mark. Equal distances are
/// common here, so the spill's insertion order is exercised.
void CheckWideningAgainstReference(size_t capacity, size_t limit,
                                   uint32_t dead_permille, uint64_t seed) {
  WideningBuffer buf;
  buf.SetLimit(limit);
  buf.Reset(capacity);
  ReferenceBuffer ref(capacity);
  Rng rng(seed);
  std::vector<std::pair<float, bool>> seen;  // by id: (dist, dead)
  size_t widenings = 0;
  for (size_t op = 0; op < 3000; ++op) {
    const std::string what = "capacity " + std::to_string(capacity) +
                             " dead " + std::to_string(dead_permille) +
                             "/1000 seed " + std::to_string(seed) + " op " +
                             std::to_string(op);
    const uint64_t roll = rng.Bounded(64);
    if (roll == 0 && capacity < limit) {
      capacity = std::min(limit, capacity + 1 + rng.Bounded(capacity));
      buf.Widen(capacity);
      ref.Widen(capacity);
      ++widenings;
    } else if (roll < 16) {
      const long want = ref.NextUnexplored();
      ASSERT_EQ(buf.NextUnexplored(), want) << what;
      if (want >= 0) {
        buf.MarkExplored(static_cast<size_t>(want));
        ref.MarkExplored(static_cast<size_t>(want));
      }
    } else {
      uint32_t id;
      if (!seen.empty() && rng.Bounded(8) == 0) {
        id = static_cast<uint32_t>(rng.Bounded(seen.size()));
      } else {
        id = static_cast<uint32_t>(seen.size());
        seen.push_back({static_cast<float>(rng.Bounded(200)) / 8.0f,
                        rng.Bounded(1000) < dead_permille});
      }
      const auto [dist, dead] = seen[id];
      ASSERT_EQ(buf.Insert(dist, id, dead), ref.Insert(dist, id, dead))
          << what;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(buf, ref.Contents(), what));
  }
  EXPECT_GT(widenings, 0u);
}

TEST(WideningBuffer, WidenMatchesAFreshWiderBuffer) {
  for (size_t capacity : {1, 4, 16}) {
    for (uint32_t dead_permille : {0u, 300u, 800u}) {
      for (uint64_t seed : {21u, 22u}) {
        ASSERT_NO_FATAL_FAILURE(CheckWideningAgainstReference(
            capacity, 64 * capacity, dead_permille, seed));
      }
    }
  }
}

TEST(WideningBuffer, SpillsNothingAtItsLimit) {
  WideningBuffer buf;
  buf.SetLimit(2);
  buf.Reset(1);
  EXPECT_TRUE(buf.Insert(2.0f, 2));
  EXPECT_TRUE(buf.Insert(1.0f, 1));   // spills id 2
  EXPECT_FALSE(buf.Insert(3.0f, 3));  // spilled
  buf.Widen(2);                       // the limit: takes id 2 back
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[1].id, 2u);
  EXPECT_TRUE(buf.Insert(0.5f, 5));  // drops id 2 for good
  buf.Widen(2);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0].id, 5u);
  EXPECT_EQ(buf[1].id, 1u);
}

TEST(VisitedSet, MarksAndResets) {
  VisitedSet v(10);
  v.NextQuery();
  EXPECT_FALSE(v.Visited(3));
  EXPECT_TRUE(v.CheckAndMark(3));
  EXPECT_TRUE(v.Visited(3));
  EXPECT_FALSE(v.CheckAndMark(3));
  v.NextQuery();  // O(1) reset
  EXPECT_FALSE(v.Visited(3));
}

TEST(VisitedSet, SurvivesEpochWraparound) {
  VisitedSet v(4);
  // Force many epochs; correctness must hold across the uint32 wrap.
  for (int i = 0; i < 1000; ++i) {
    v.NextQuery();
    EXPECT_TRUE(v.CheckAndMark(2));
    EXPECT_FALSE(v.CheckAndMark(2));
  }
}

}  // namespace
}  // namespace blink
