#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "util/env.h"

namespace blink {

// ---------------------------------------------------------------------------
// ServingEngine.
// ---------------------------------------------------------------------------

ServingEngine::ServingEngine(const SearchIndex* index,
                             const ServingOptions& options)
    : index_(index), opts_(options) {
  if (opts_.num_threads == 0) opts_.num_threads = NumThreads();
  // Degenerate values are rejected with a Status at the configuration
  // boundary (ServingOptions::Validate, called by Index::Serve and the
  // server tools). The clamps below are last-resort defense for direct
  // constructions that skipped Validate — a 0 here would dispatch empty
  // batches forever / never admit a query.
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  pool_ = std::make_unique<ThreadPool>(opts_.num_threads);
  searchers_.reserve(opts_.num_threads);
  free_.reserve(opts_.num_threads);
  for (size_t i = 0; i < opts_.num_threads; ++i) {
    searchers_.push_back(index_->MakeSearcher());
    free_.push_back(searchers_.back().get());
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

ServingEngine::~ServingEngine() {
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  dispatcher_.join();  // flushes the remaining queue into final batches
  Drain();
  pool_.reset();  // runs any still-pending batch tasks before joining
}

Searcher* ServingEngine::AcquireSearcher() {
  std::unique_lock<std::mutex> lk(free_mu_);
  free_cv_.wait(lk, [this] { return !free_.empty(); });
  Searcher* s = free_.back();
  free_.pop_back();
  return s;
}

void ServingEngine::ReleaseSearcher(Searcher* s) {
  {
    std::unique_lock<std::mutex> lk(free_mu_);
    free_.push_back(s);
  }
  free_cv_.notify_one();
}

void ServingEngine::SearchBatch(MatrixViewF queries, size_t k,
                                const SearchOptions& params, uint32_t* ids,
                                float* dists, BatchStats* stats) {
  const size_t nq = queries.rows;
  if (nq == 0) return;
  BatchStats total;
  RunBatchSlices(
      nq, searchers_.size(), pool_.get(), &total,
      [&](size_t lo, size_t hi, BatchStats* slice_stats) {
        Searcher* searcher = AcquireSearcher();
        SearchRows(*searcher, queries, lo, hi, k, params, ids, dists,
                   slice_stats);
        ReleaseSearcher(searcher);
      });
  queries_.fetch_add(nq, std::memory_order_relaxed);
  distance_computations_.fetch_add(total.distance_computations,
                                   std::memory_order_relaxed);
  hops_.fetch_add(total.hops, std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->distance_computations += total.distance_computations;
    stats->hops += total.hops;
  }
}

std::future<SearchResult> ServingEngine::Submit(const float* query, size_t k,
                                                const SearchOptions& params) {
  Request req;
  req.query.assign(query, query + index_->dim());
  req.k = k;
  req.params = params;
  std::future<SearchResult> fut = req.promise.get_future();
  inflight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    capacity_cv_.wait(
        lk, [this] { return queue_.size() < opts_.queue_capacity || stop_; });
    if (stop_) {  // engine shutting down: fail fast, contract-shaped
      lk.unlock();
      // Padded like a real answer so result-shape invariants hold, but
      // tagged kShutdown: a zero-hit answer and a never-ran query used to
      // be indistinguishable here, which poisoned recall accounting.
      SearchResult empty;
      empty.ids.assign(k, kInvalidId);
      empty.dists.assign(k, kInvalidDist);
      empty.outcome = SearchOutcome::kShutdown;
      req.promise.set_value(std::move(empty));
      // Same completion protocol as ProcessBatch: a concurrent Drain()
      // waiting on this query must be woken.
      if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::unique_lock<std::mutex> drain_lk(drain_mu_);
        drain_cv_.notify_all();
      }
      return fut;
    }
    queue_.push_back(std::move(req));
  }
  queue_cv_.notify_all();
  return fut;
}

ServingEngine::SubmitOutcome ServingEngine::TrySubmit(
    const float* query, size_t k, const SearchOptions& params,
    std::future<SearchResult>* out) {
  // Admission bound: queued + executing. (Submit's producer backpressure
  // waits on the queue alone, which the dispatcher drains eagerly into the
  // worker pool; an admission decision has to count the work that is
  // already past the queue or the bound is porous under load.)
  for (;;) {
    uint64_t cur = inflight_.load(std::memory_order_relaxed);
    if (cur >= opts_.queue_capacity) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return SubmitOutcome::kRejectedOverload;
    }
    // Reserve the slot before touching the queue so concurrent TrySubmits
    // cannot overshoot the capacity between check and enqueue.
    if (inflight_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
  Request req;
  req.query.assign(query, query + index_->dim());
  req.k = k;
  req.params = params;
  std::future<SearchResult> fut = req.promise.get_future();
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    if (stop_) {
      lk.unlock();
      // Roll the reservation back (waking a concurrent Drain if we were
      // the last) — the caller gets the rejection, not a future.
      if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::unique_lock<std::mutex> drain_lk(drain_mu_);
        drain_cv_.notify_all();
      }
      return SubmitOutcome::kRejectedShutdown;
    }
    queue_.push_back(std::move(req));
  }
  queue_cv_.notify_all();
  *out = std::move(fut);
  return SubmitOutcome::kAccepted;
}

size_t ServingEngine::queue_depth() const {
  std::unique_lock<std::mutex> lk(queue_mu_);
  return queue_.size();
}

void ServingEngine::DispatcherLoop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty() && stop_) return;
      // Micro-batching: linger briefly for more queries unless the batch is
      // already full or we are shutting down.
      if (queue_.size() < opts_.max_batch && !stop_) {
        queue_cv_.wait_for(
            lk, std::chrono::microseconds(opts_.batch_linger_us),
            [this] { return queue_.size() >= opts_.max_batch || stop_; });
      }
      const size_t take = std::min(queue_.size(), opts_.max_batch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    capacity_cv_.notify_all();
    batches_.fetch_add(1, std::memory_order_relaxed);
    // shared_ptr because ThreadPool tasks are std::function (copyable) and
    // Request is move-only (promise).
    auto b = std::make_shared<std::vector<Request>>(std::move(batch));
    pool_->Submit([this, b] { ProcessBatch(std::move(*b)); });
  }
}

void ServingEngine::ProcessBatch(std::vector<Request> batch) {
  Searcher* searcher = AcquireSearcher();
  std::vector<SearchResult> results(batch.size());
  BatchStats stats;
  for (size_t i = 0; i < batch.size(); ++i) {
    SearchResult& res = results[i];
    res.ids.resize(batch[i].k);
    res.dists.resize(batch[i].k);
    BatchStats qs;
    searcher->Search(batch[i].query.data(), batch[i].k, batch[i].params,
                     res.ids.data(), res.dists.data(), &qs);
    res.distance_computations = qs.distance_computations;
    res.hops = qs.hops;
    stats.distance_computations += qs.distance_computations;
    stats.hops += qs.hops;
  }
  ReleaseSearcher(searcher);
  // Counters before promises (a client must see its query counted once its
  // future resolves); promises before the inflight decrement (Drain()
  // guarantees resolved futures).
  queries_.fetch_add(batch.size(), std::memory_order_relaxed);
  distance_computations_.fetch_add(stats.distance_computations,
                                   std::memory_order_relaxed);
  hops_.fetch_add(stats.hops, std::memory_order_relaxed);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(results[i]));
  }
  if (inflight_.fetch_sub(batch.size(), std::memory_order_acq_rel) ==
      batch.size()) {
    std::unique_lock<std::mutex> lk(drain_mu_);
    drain_cv_.notify_all();
  }
}

void ServingEngine::Drain() {
  std::unique_lock<std::mutex> lk(drain_mu_);
  drain_cv_.wait(lk, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

ServingCounters ServingEngine::counters() const {
  ServingCounters c;
  c.queries = queries_.load(std::memory_order_relaxed);
  c.batches = batches_.load(std::memory_order_relaxed);
  c.distance_computations =
      distance_computations_.load(std::memory_order_relaxed);
  c.hops = hops_.load(std::memory_order_relaxed);
  c.rejected = rejected_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace blink
