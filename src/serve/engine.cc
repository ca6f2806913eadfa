#include "serve/engine.h"

#include <latch>
#include <optional>

#include "util/env.h"

namespace blink {

// ---------------------------------------------------------------------------
// ServingEngine.
// ---------------------------------------------------------------------------

/// One SearchBatch call. Lives on the caller's stack until every slice has
/// counted `done` down.
struct ServingEngine::SyncCall {
  MatrixViewF queries;
  size_t k;
  const SearchOptions& params;
  uint32_t* ids;
  float* dists;
  std::latch done;
};

ServingEngine::ServingEngine(const SearchIndex* index,
                             const ServingOptions& options)
    : index_(index), opts_(options) {
  if (opts_.num_threads == 0) opts_.num_threads = NumThreads();
  // Degenerate values are rejected with a Status at the configuration
  // boundary (ServingOptions::Validate, called by Index::Serve and the
  // server tools). The clamps below are last-resort defense for direct
  // constructions that skipped Validate — a 0 here would never admit a
  // query.
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  searchers_.reserve(opts_.num_threads);
  for (size_t i = 0; i < opts_.num_threads; ++i) {
    searchers_.push_back(index_->MakeSearcher());
  }
  workers_.reserve(opts_.num_threads);
  for (size_t i = 0; i < opts_.num_threads; ++i) {
    workers_.emplace_back([this, s = searchers_[i].get()] { WorkerLoop(s); });
  }
}

ServingEngine::~ServingEngine() {
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  capacity_cv_.notify_all();
  for (std::thread& w : workers_) w.join();  // they serve the queue out first
  Drain();  // a Submit racing the stop may still hold its reservation
}

void ServingEngine::SearchBatch(MatrixViewF queries, size_t k,
                                const SearchOptions& params, uint32_t* ids,
                                float* dists, BatchStats* stats) {
  const size_t nq = queries.rows;
  if (nq == 0) return;
  BatchSlices slices(nq, workers_.size());
  SyncCall call{queries, k, params, ids, dists,
                std::latch(static_cast<std::ptrdiff_t>(slices.count()))};
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    for (size_t w = 0; w < slices.count(); ++w) {
      slices_.push_back(
          Slice{&call, slices.lo(w), slices.hi(w), slices.stats(w)});
    }
  }
  for (size_t w = 0; w < slices.count(); ++w) queue_cv_.notify_one();
  call.done.wait();
  const BatchStats total = slices.Total();
  queries_.fetch_add(nq, std::memory_order_relaxed);
  distance_computations_.fetch_add(total.distance_computations,
                                   std::memory_order_relaxed);
  hops_.fetch_add(total.hops, std::memory_order_relaxed);
  if (stats != nullptr) *stats += total;
}

std::future<SearchResult> ServingEngine::Submit(const float* query, size_t k,
                                                const SearchOptions& params) {
  Request req{{query, query + index_->dim()}, k, params, {}};
  std::future<SearchResult> fut = req.promise.get_future();
  inflight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    capacity_cv_.wait(lk, [this] {
      return requests_.size() < opts_.queue_capacity || stop_;
    });
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
      Retire();
      return fut;
    }
    requests_.push_back(std::move(req));
  }
  queue_cv_.notify_one();
  return fut;
}

ServingEngine::SubmitOutcome ServingEngine::TrySubmit(
    const float* query, size_t k, const SearchOptions& params,
    std::future<SearchResult>* out) {
  // Admission bound: queued + executing. (Submit's producer backpressure
  // waits on the queue alone, which the workers take from eagerly; an
  // admission decision has to count the work a worker already holds or
  // the bound is porous under load.)
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
  Request req{{query, query + index_->dim()}, k, params, {}};
  std::future<SearchResult> fut = req.promise.get_future();
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    if (stop_) {
      lk.unlock();
      // Roll the reservation back — the caller gets the rejection, not a
      // future.
      Retire();
      return SubmitOutcome::kRejectedShutdown;
    }
    requests_.push_back(std::move(req));
  }
  queue_cv_.notify_one();
  *out = std::move(fut);
  return SubmitOutcome::kAccepted;
}

size_t ServingEngine::queue_depth() const {
  std::unique_lock<std::mutex> lk(queue_mu_);
  return requests_.size();
}

void ServingEngine::WorkerLoop(Searcher* searcher) {
  for (;;) {
    Slice slice{};
    std::optional<Request> req;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] {
        return stop_ || !slices_.empty() || !requests_.empty();
      });
      if (!slices_.empty()) {
        slice = slices_.front();
        slices_.pop_front();
      } else if (!requests_.empty()) {
        req.emplace(std::move(requests_.front()));
        requests_.pop_front();
      } else {
        return;  // stopping, and nothing is left to serve
      }
      // A notify may have been spent on this worker; hand the rest on.
      if (!slices_.empty() || !requests_.empty()) queue_cv_.notify_one();
    }
    if (req) {
      capacity_cv_.notify_one();
      RunRequest(*searcher, *req);
    } else {
      RunSlice(*searcher, slice);
    }
  }
}

void ServingEngine::RunSlice(Searcher& searcher, const Slice& slice) {
  SyncCall& call = *slice.call;
  SearchRows(searcher, call.queries, slice.lo, slice.hi, call.k, call.params,
             call.ids, call.dists, slice.stats);
  call.done.count_down();  // the caller may unwind `call` from here on
}

void ServingEngine::RunRequest(Searcher& searcher, Request& req) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  SearchResult res;
  res.ids.resize(req.k);
  res.dists.resize(req.k);
  BatchStats qs;
  searcher.Search(req.query.data(), req.k, req.params, res.ids.data(),
                  res.dists.data(), &qs);
  res.distance_computations = qs.distance_computations;
  res.hops = qs.hops;
  // Counters before the promise: a client must see its query counted once
  // its future resolves.
  queries_.fetch_add(1, std::memory_order_relaxed);
  distance_computations_.fetch_add(qs.distance_computations,
                                   std::memory_order_relaxed);
  hops_.fetch_add(qs.hops, std::memory_order_relaxed);
  req.promise.set_value(std::move(res));
  // Promise before the in-flight decrement: Drain() guarantees resolved
  // futures.
  Retire();
}

void ServingEngine::Retire() {
  // Under drain_mu_, so a Drain() that sees zero (the destructor's, say)
  // cannot return while this thread still touches the engine.
  std::lock_guard<std::mutex> lk(drain_mu_);
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
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
