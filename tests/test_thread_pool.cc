// Unit tests for the thread pool / batch parallelism substrate.
#include "util/thread_pool.h"

#include <atomic>
#include <gtest/gtest.h>
#include <set>
#include <vector>

namespace blink {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, WorksWithSingleWorker) {
  ThreadPool pool(1);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(100, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleIterationRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, RepeatedUseIsSafe) {
  // Regression for the dangling-stack-state bug: tasks from an earlier
  // ParallelFor must never touch a later frame.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(64, [&](size_t i) { sum += i; });
    ASSERT_EQ(sum.load(), 2016u) << "round " << round;
  }
}

TEST(ThreadPool, TinyRangesRaceCompletionAgainstFrameExit) {
  // Regression for the 1-core TSan flake (deflaked in the out-of-core PR):
  // with trivial per-item work the caller drains the whole range itself
  // and reaches the completion wait while the last helper task sits
  // between its counter decrement and its notify. The decrement must
  // happen under the frame's mutex, or the caller destroys the stack
  // state the helper is about to lock. Tiny ranges + many rounds maximize
  // that window; TSan turns any regression into a hard failure here.
  ThreadPool pool(4);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(2, [&](size_t i) { sum += i + 1; });
    ASSERT_EQ(sum.load(), 3u) << "round " << round;
  }
}

TEST(ThreadPool, LargeNSmallWork) {
  ThreadPool pool(3);
  std::atomic<size_t> count{0};
  pool.ParallelFor(1 << 17, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1u << 17);
}

TEST(ThreadPool, HelperFunctionSerialFallback) {
  std::vector<int> hits(50, 0);
  ParallelFor(1, 50, [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, HelperFunctionThreaded) {
  std::vector<std::atomic<int>> hits(500);
  ParallelFor(4, 500, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NumThreadsReported) {
  ThreadPool pool(7);
  EXPECT_EQ(pool.num_threads(), 7u);
  ThreadPool pool0(0);  // clamped to 1
  EXPECT_EQ(pool0.num_threads(), 1u);
}

TEST(ThreadPool, ExecutesOnMultipleThreadsWhenAvailable) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> tids;
  pool.ParallelFor(4000, [&](size_t) {
    std::unique_lock<std::mutex> lk(mu);
    tids.insert(std::this_thread::get_id());
  });
  // At least the calling thread participated; with real cores, more.
  EXPECT_GE(tids.size(), 1u);
}

}  // namespace
}  // namespace blink
