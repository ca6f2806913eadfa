// Minimal thread pool for batch-parallel work.
//
// The paper parallelizes search *across* queries: each worker runs the
// single-threaded search routine on a slice of the query batch (Sec. 5,
// "Optimizing graph search"). ParallelFor implements exactly that pattern;
// it is also used for graph construction and ground-truth computation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace blink {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    if (num_threads == 0) num_threads = 1;
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n), work-stealing in chunks across the pool
  /// (plus the calling thread). Blocks until every dispatched task has
  /// finished executing — tasks capture this frame's state by reference, so
  /// returning any earlier would leave dangling references.
  /// fn must be thread-safe across distinct i.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    if (n == 0) return;
    const size_t workers = workers_.size();
    if (workers <= 1 || n == 1) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    struct ForState {
      std::atomic<size_t> next{0};
      std::atomic<size_t> tasks_left{0};
      std::mutex mu;
      std::condition_variable cv;
    };
    ForState st;
    const size_t chunk = std::max<size_t>(1, n / (workers * 8));
    const size_t helper_tasks = workers - 1;
    st.tasks_left.store(helper_tasks, std::memory_order_relaxed);

    auto drain = [&st, &fn, n, chunk] {
      for (;;) {
        const size_t begin = st.next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) break;
        const size_t end = std::min(n, begin + chunk);
        for (size_t i = begin; i < end; ++i) fn(i);
      }
    };
    auto helper = [&st, drain] {
      drain();
      // The decrement must happen under st.mu: were the count to reach
      // zero outside the lock, the caller's predicate could observe it,
      // return, and destroy `st` (a stack frame) before this task takes
      // the lock — a use-after-free that preemption right after an
      // unlocked fetch_sub makes real on single-core runners.
      std::unique_lock<std::mutex> lk(st.mu);
      if (st.tasks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        st.cv.notify_all();
      }
    };
    {
      std::unique_lock<std::mutex> lk(mu_);
      for (size_t t = 0; t < helper_tasks; ++t) tasks_.push(helper);
    }
    cv_.notify_all();
    drain();  // the calling thread helps
    std::unique_lock<std::mutex> lk(st.mu);
    st.cv.wait(lk, [&st] {
      return st.tasks_left.load(std::memory_order_acquire) == 0;
    });
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience: parallel-for over a temporary pool of `threads` workers, or
/// serial execution when threads <= 1.
inline void ParallelFor(size_t threads, size_t n,
                        const std::function<void(size_t)>& fn) {
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(threads);
  pool.ParallelFor(n, fn);
}

}  // namespace blink
