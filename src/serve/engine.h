// Concurrent serving engine (DESIGN.md D7): the layer between a built index
// and heavy multi-client traffic.
//
// The Sec. 5 engine is tuned for single-batch throughput; serving adds two
// things it lacks:
//
//   1. Searcher pools. SearchBatch (eval/interface.h) makes a fresh
//      Searcher — and its visited array and scratch — per slice per call,
//      which is pure overhead when requests arrive as many small batches.
//      The engine runs `num_threads` worker threads, each owning one
//      Searcher (SearchIndex::MakeSearcher()) whose state stays warm across
//      requests: the visited epochs in particular make "reset" a counter
//      bump instead of an O(n) zeroing. Both run the same per-slice loop
//      (SearchRows).
//
//   2. One request queue that the workers pull from. Submit() enqueues one
//      query and returns a future; SearchBatch() enqueues its batch as at
//      most `num_threads` slices and waits for them. An idle worker takes
//      one item at a time: a sync slice if any is queued (its caller is
//      blocked on it, so a SearchBatch waits only for the queries the
//      workers already hold), else the oldest async query. So no query
//      waits on a timer, or behind another query while a worker is idle.
//
// The engine serves any SearchIndex. Static indices (VamanaIndex) are
// immutable and need no coordination; the dynamic index is served through
// DynamicView below. Both pool the one GraphSearcher (graph/search.h); the
// dynamic index's read view holds its epoch read guard for each query, so
// searches proceed concurrently with Insert/Delete/Consolidate.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/interface.h"
#include "graph/dynamic.h"
#include "graph/search.h"

namespace blink {

struct ServingOptions {
  size_t num_threads = 0;  ///< worker/searcher count; 0 = env NumThreads()
  size_t queue_capacity = 1 << 16;  ///< async backpressure bound

  /// OK iff the options describe a servable configuration. Degenerate
  /// values (`queue_capacity == 0` can never admit a query) are rejected
  /// here — Index::Serve() and the server tools call this at the
  /// configuration boundary and return the Status instead of standing up
  /// a broken engine. (The constructor additionally clamps as a
  /// last-resort defense for direct, pre-Validate constructions.)
  Status Validate() const {
    if (queue_capacity == 0) {
      return Status::InvalidArgument(
          "ServingOptions::queue_capacity must be >= 1 (0 can never admit "
          "a query)");
    }
    if (num_threads > (1u << 12)) {
      return Status::InvalidArgument(
          "ServingOptions::num_threads out of range (> 4096)");
    }
    return Status::OK();
  }
};

/// Aggregate counters since engine construction (monotonic, thread-safe).
struct ServingCounters {
  uint64_t queries = 0;
  uint64_t batches = 0;  ///< async takes by the workers (one query each)
  uint64_t distance_computations = 0;
  uint64_t hops = 0;
  uint64_t rejected = 0;  ///< TrySubmit admissions refused (overload)
};

class ServingEngine {
 public:
  /// The engine keeps a non-owning reference; `index` must outlive it.
  ServingEngine(const SearchIndex* index, const ServingOptions& options);
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Synchronous batch search on the workers: the batch is cut into at most
  /// `num_threads` slices, queued ahead of any async query, and awaited.
  /// Writes row-major ids (queries.rows x k, padded with kInvalidId) and,
  /// when given, per-query dists (+inf padding) and aggregate stats for
  /// this call. Thread-safe: any number of client threads may call
  /// concurrently. Its slices do not count toward inflight(),
  /// queue_depth() or `queue_capacity`.
  void SearchBatch(MatrixViewF queries, size_t k, const SearchOptions& params,
                   uint32_t* ids, float* dists = nullptr,
                   BatchStats* stats = nullptr);

  /// Asynchronous single-query submission (the query is copied). The future
  /// resolves to exactly k ids/dists (padded). Blocks only when
  /// `queue_capacity` queries are already waiting. During shutdown the
  /// future resolves immediately with outcome == SearchOutcome::kShutdown
  /// (all-padded ids), distinguishable from a real zero-hit answer.
  /// Thread-safe.
  std::future<SearchResult> Submit(const float* query, size_t k,
                                   const SearchOptions& params);

  /// Non-blocking admission-controlled submission (the network edge's
  /// path): kAccepted stores the future in `*out`; kRejectedOverload means
  /// `queue_capacity` queries are already in flight (queued + executing)
  /// and nothing was enqueued — the caller answers with a rejection
  /// instead of blocking its socket thread; kRejectedShutdown means the
  /// engine is stopping. `*out` is untouched unless kAccepted. Thread-safe.
  enum class SubmitOutcome { kAccepted, kRejectedOverload, kRejectedShutdown };
  SubmitOutcome TrySubmit(const float* query, size_t k,
                          const SearchOptions& params,
                          std::future<SearchResult>* out);

  /// Blocks until every previously submitted async query has completed.
  void Drain();

  const SearchIndex& index() const { return *index_; }
  size_t num_threads() const { return workers_.size(); }
  ServingCounters counters() const;
  /// Async queries admitted but not yet resolved (queued + executing).
  size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  /// Async queries waiting for a worker (a subset of inflight()).
  size_t queue_depth() const;

 private:
  /// A queued async query: owns a copy of the query and the promise.
  struct Request {
    std::vector<float> query;
    size_t k;
    SearchOptions params;
    std::promise<SearchResult> promise;
  };
  struct SyncCall;  // one SearchBatch call (engine.cc)
  /// Rows [lo, hi) of a SearchBatch call, searched by one worker.
  struct Slice {
    SyncCall* call;
    size_t lo, hi;
    BatchStats* stats;
  };

  void WorkerLoop(Searcher* searcher);
  void RunSlice(Searcher& searcher, const Slice& slice);
  void RunRequest(Searcher& searcher, Request& req);
  /// Resolves one async query against the in-flight count, waking Drain()
  /// when the count reaches zero.
  void Retire();

  const SearchIndex* index_;
  ServingOptions opts_;

  // The queue the workers pull from, under one mutex: sync slices, taken
  // first, and async queries, each in arrival order.
  std::deque<Slice> slices_;
  std::deque<Request> requests_;
  mutable std::mutex queue_mu_;    // mutable: queue_depth() is a const probe
  std::condition_variable queue_cv_;     // worker wakeups
  std::condition_variable capacity_cv_;  // producer backpressure
  bool stop_ = false;
  std::atomic<uint64_t> inflight_{0};    // queued + executing async queries
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  // Counters.
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> distance_computations_{0};
  std::atomic<uint64_t> hops_{0};
  std::atomic<uint64_t> rejected_{0};

  // One searcher per worker; workers_[i] owns searchers_[i]. Last, after
  // everything the workers touch.
  std::vector<std::unique_ptr<Searcher>> searchers_;
  std::vector<std::thread> workers_;
};

/// SearchIndex facade over a DynamicGraphIndex of any storage, so the
/// engine (and the eval harness) can serve a mutating index — float32 or
/// compressed LVQ — through the same seam. MakeSearcher() is the static
/// index's GraphSearcher over the dynamic index's read view, so both
/// kinds honor the same SearchOptions through the same code. Reads are
/// safe concurrently with writers — see graph/dynamic.h.
template <typename Storage>
class DynamicView : public SearchIndex {
 public:
  using Index = DynamicGraphIndex<Storage>;

  /// Non-owning; `index` must outlive the view.
  explicit DynamicView(const Index* index) : index_(index) {}

  std::string name() const override {
    return std::string("dynamic-") + index_->storage().encoding_name();
  }
  size_t size() const override { return index_->live_size(); }
  size_t dim() const override { return index_->dim(); }
  size_t memory_bytes() const override { return index_->memory_bytes(); }

  std::unique_ptr<Searcher> MakeSearcher() const override {
    return std::make_unique<GraphSearcher<typename Index::ReadView>>(
        index_->read_view());
  }

 private:
  const Index* index_;
};

}  // namespace blink
