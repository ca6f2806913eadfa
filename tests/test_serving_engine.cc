// Serving engine tests: pooled-searcher correctness against the direct
// paths, async submission and work conservation (an idle worker never
// leaves a query waiting, and a sync batch goes ahead of an async
// backlog), a multi-threaded stress test — concurrent
// SearchBatch from many threads while a writer mutates the dynamic index —
// plus the serving-path hardening: options validation, deterministic
// TrySubmit admission control, the shutdown outcome tag, and
// GenerationHolder hot-swap semantics. Runs under the ASan and TSan CI
// jobs.
#include "serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "api/index.h"
#include "api/spec.h"
#include "serve/generation.h"
#include "testutil.h"
#include "util/prng.h"

namespace blink {
namespace {

/// testutil::Fixture (deep-like corpus, R=24/W=48) plus a built LVQ-8
/// index — the engine tests search it through every serving path. The
/// ground truth computed by the base fixture serves the recall checks.
struct StaticFixture : testutil::Fixture {
  StaticFixture()
      : testutil::Fixture(MakeDeepLike(3000, 100, /*seed=*/808)),
        index(BuildOgLvq(data.base, data.metric, 8, 0, bp)) {}

  std::unique_ptr<VamanaIndex<LvqStorage>> index;
};

TEST(ServingEngine, SyncMatchesDirectSearchBatch) {
  StaticFixture f;
  const size_t k = 10, nq = f.data.queries.rows();
  SearchOptions p;
  p.window = 32;
  Matrix<uint32_t> direct(nq, k), served(nq, k);
  SearchBatch(*f.index, f.data.queries, k, p, direct.data());

  ServingOptions opts;
  opts.num_threads = 4;
  ServingEngine engine(f.index.get(), opts);
  engine.SearchBatch(f.data.queries, k, p, served.data());
  for (size_t i = 0; i < direct.size(); ++i) {
    ASSERT_EQ(direct.data()[i], served.data()[i]) << "flat index " << i;
  }
  const ServingCounters c = engine.counters();
  EXPECT_EQ(c.queries, nq);
  EXPECT_GT(c.distance_computations, 0u);
  EXPECT_GT(c.hops, 0u);
}

TEST(ServingEngine, SyncReportsDistsAndStats) {
  StaticFixture f;
  const size_t k = 10, nq = f.data.queries.rows();
  SearchOptions p;
  p.window = 32;
  Matrix<uint32_t> ids(nq, k);
  MatrixF dists(nq, k);
  BatchStats stats;
  ServingOptions opts;
  opts.num_threads = 2;
  ServingEngine engine(f.index.get(), opts);
  engine.SearchBatch(f.data.queries, k, p, ids.data(), dists.data(), &stats);
  EXPECT_GT(stats.distance_computations, stats.hops);
  for (size_t qi = 0; qi < nq; ++qi) {
    for (size_t j = 1; j < k; ++j) {
      ASSERT_LE(dists(qi, j - 1), dists(qi, j)) << "unsorted dists, q" << qi;
    }
  }
}

TEST(ServingEngine, AsyncMatchesSync) {
  StaticFixture f;
  const size_t k = 10, nq = f.data.queries.rows();
  SearchOptions p;
  p.window = 32;
  Matrix<uint32_t> sync_ids(nq, k);
  ServingOptions opts;
  opts.num_threads = 4;
  ServingEngine engine(f.index.get(), opts);
  engine.SearchBatch(f.data.queries, k, p, sync_ids.data());

  std::vector<std::future<SearchResult>> futures;
  futures.reserve(nq);
  for (size_t qi = 0; qi < nq; ++qi) {
    futures.push_back(engine.Submit(f.data.queries.row(qi), k, p));
  }
  for (size_t qi = 0; qi < nq; ++qi) {
    SearchResult res = futures[qi].get();
    ASSERT_EQ(res.ids.size(), k);
    ASSERT_EQ(res.dists.size(), k);
    EXPECT_GT(res.distance_computations, 0u);
    for (size_t j = 0; j < k; ++j) {
      ASSERT_EQ(res.ids[j], sync_ids(qi, j)) << "query " << qi;
    }
  }
  EXPECT_EQ(engine.counters().batches, nq);  // one take per async query
}

TEST(ServingEngine, AsyncManyClientThreads) {
  StaticFixture f;
  const size_t k = 10, nq = f.data.queries.rows();
  SearchOptions p;
  p.window = 32;
  ServingOptions opts;
  opts.num_threads = 2;
  ServingEngine engine(f.index.get(), opts);
  Matrix<uint32_t> results(nq, k);
  std::vector<std::thread> clients;
  const size_t nclients = 8;
  for (size_t c = 0; c < nclients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t qi = c; qi < nq; qi += nclients) {
        SearchResult res = engine.Submit(f.data.queries.row(qi), k, p).get();
        EXPECT_EQ(res.ids.size(), k);
        std::copy(res.ids.begin(), res.ids.end(), results.row(qi));
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_GE(MeanRecallAtK(results, f.gt, k), 0.9);
  EXPECT_EQ(engine.counters().queries, nq);
}

TEST(ServingEngine, DrainWaitsForAllSubmitted) {
  StaticFixture f;
  SearchOptions p;
  p.window = 16;
  ServingOptions opts;
  opts.num_threads = 2;
  ServingEngine engine(f.index.get(), opts);
  std::vector<std::future<SearchResult>> futures;
  for (size_t qi = 0; qi < 64; ++qi) {
    futures.push_back(engine.Submit(f.data.queries.row(qi), 5, p));
  }
  engine.Drain();
  for (auto& fut : futures) {
    // After Drain every future must be immediately ready.
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

TEST(ServingEngine, ServesDynamicView) {
  Dataset data = MakeDeepLike(1200, 40, 809);
  DynamicIndex::Options o;
  o.graph_max_degree = 16;
  o.build_window = 48;
  DynamicIndex dyn(96, o);
  for (size_t i = 0; i < 1200; ++i) dyn.Insert(data.base.row(i));
  DynamicView<FloatStorage> view(&dyn);
  EXPECT_EQ(view.size(), 1200u);
  EXPECT_EQ(view.dim(), 96u);
  EXPECT_GT(view.memory_bytes(), 0u);

  const size_t k = 10, nq = data.queries.rows();
  SearchOptions p;
  p.window = 64;
  ServingOptions opts;
  opts.num_threads = 4;
  ServingEngine engine(&view, opts);
  Matrix<uint32_t> results(nq, k);
  BatchStats stats;
  engine.SearchBatch(data.queries, k, p, results.data(), nullptr, &stats);
  EXPECT_GT(stats.distance_computations, 0u);
  Matrix<uint32_t> gt = ComputeGroundTruth(data.base, data.queries, k,
                                           data.metric);
  EXPECT_GE(MeanRecallAtK(results, gt, k), 0.85);
}

// ---------------------------------------------------------------------------
// The ISSUE 2 stress test: concurrent SearchBatch from 8 threads while a
// writer inserts/deletes (and periodically consolidates), asserting no lost
// results and recall above a floor.
// ---------------------------------------------------------------------------

TEST(ServingEngine, ConcurrentReadWriteStress) {
  const size_t kStable = 700;   // never deleted; must stay findable
  const size_t kChurn = 500;    // inserted/deleted by the writer during load
  const size_t kDim = 96;
  Dataset data = MakeDeepLike(kStable + kChurn, 1, 810);

  DynamicIndex::Options o;
  o.graph_max_degree = 16;
  o.build_window = 48;
  o.initial_capacity = kStable + kChurn + 64;  // avoid stop-the-world growth
  DynamicIndex dyn(kDim, o);
  std::vector<uint32_t> stable_ids;
  for (size_t i = 0; i < kStable; ++i) {
    stable_ids.push_back(dyn.Insert(data.base.row(i)));
  }

  DynamicView<FloatStorage> view(&dyn);
  ServingOptions opts;
  opts.num_threads = 4;
  ServingEngine engine(&view, opts);
  SearchOptions p;
  p.window = 64;

  // Writer: churn the kChurn extra vectors through insert/delete cycles
  // with periodic consolidation (slot recycling under live traffic).
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    Rng rng(7);
    std::vector<uint32_t> churn_ids;
    size_t next = kStable;
    while (!stop_writer.load()) {
      if (churn_ids.size() < kChurn / 2 ||
          (next < kStable + kChurn && rng.Bounded(2) == 0)) {
        const size_t src = next < kStable + kChurn
                               ? next++
                               : kStable + rng.Bounded(kChurn);
        churn_ids.push_back(dyn.Insert(data.base.row(src)));
      } else if (!churn_ids.empty()) {
        const size_t pick = rng.Bounded(churn_ids.size());
        EXPECT_TRUE(dyn.Delete(churn_ids[pick]).ok());
        churn_ids[pick] = churn_ids.back();
        churn_ids.pop_back();
      }
      if (rng.Bounded(97) == 0) dyn.ConsolidateDeletes();
    }
  });

  // 8 reader threads: each repeatedly SearchBatches the *stable* vectors'
  // own coordinates through the engine. A stable vector must never get
  // lost: its exact duplicate is in the index, so it must appear in its own
  // top-k in the overwhelming majority of searches even mid-churn.
  const size_t kReaders = 8;
  const size_t kRounds = 6;
  const size_t kQueriesPerRound = 64;
  const size_t k = 10;
  std::atomic<uint64_t> self_hits{0};
  std::atomic<uint64_t> self_queries{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      Matrix<uint32_t> ids(kQueriesPerRound, k);
      MatrixF queries(kQueriesPerRound, kDim);
      std::vector<uint32_t> expected(kQueriesPerRound);
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t qi = 0; qi < kQueriesPerRound; ++qi) {
          const size_t pick = rng.Bounded(kStable);
          expected[qi] = stable_ids[pick];
          std::copy(data.base.row(pick), data.base.row(pick) + kDim,
                    queries.row(qi));
        }
        engine.SearchBatch(queries, k, p, ids.data());
        for (size_t qi = 0; qi < kQueriesPerRound; ++qi) {
          ++self_queries;
          for (size_t j = 0; j < k; ++j) {
            EXPECT_LT(ids(qi, j) == kInvalidId ? 0u : ids(qi, j),
                      dyn.capacity());  // every id is in-range
            if (ids(qi, j) == expected[qi]) {
              ++self_hits;
              break;
            }
          }
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop_writer.store(true);
  writer.join();

  // No lost results: under churn a self-query may occasionally miss, but
  // the overwhelming majority must find the stable vector.
  const double hit_rate = static_cast<double>(self_hits.load()) /
                          static_cast<double>(self_queries.load());
  EXPECT_GE(hit_rate, 0.95) << self_hits.load() << "/" << self_queries.load();

  // Quiesced recall floor: after the writer stops, every stable vector must
  // be findable and batch recall against brute force must clear the bar.
  dyn.ConsolidateDeletes();
  SearchResult res;
  size_t found = 0;
  for (size_t i = 0; i < kStable; ++i) {
    dyn.Search(data.base.row(i), k, 64, &res);
    for (uint32_t id : res.ids) {
      if (id == stable_ids[i]) {
        ++found;
        break;
      }
    }
  }
  EXPECT_GE(static_cast<double>(found) / kStable, 0.99);
}

// Async submissions racing a writer: every future must resolve with k
// in-range ids (no hangs, no lost promises).
TEST(ServingEngine, AsyncSubmitRacingWriter) {
  const size_t kDim = 96;
  Dataset data = MakeDeepLike(900, 60, 811);
  DynamicIndex::Options o;
  o.graph_max_degree = 16;
  o.build_window = 48;
  o.initial_capacity = 1200;
  DynamicIndex dyn(kDim, o);
  for (size_t i = 0; i < 600; ++i) dyn.Insert(data.base.row(i));

  DynamicView<FloatStorage> view(&dyn);
  ServingOptions opts;
  opts.num_threads = 2;
  ServingEngine engine(&view, opts);
  SearchOptions p;
  p.window = 48;

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    Rng rng(13);
    size_t next = 600;
    std::vector<uint32_t> extra;
    while (!stop_writer.load()) {
      if (next < 900 && rng.Bounded(2) == 0) {
        extra.push_back(dyn.Insert(data.base.row(next++)));
      } else if (!extra.empty()) {
        const size_t pick = rng.Bounded(extra.size());
        (void)dyn.Delete(extra[pick]);
        extra[pick] = extra.back();
        extra.pop_back();
      }
      std::this_thread::yield();
    }
  });

  const size_t k = 5;
  std::vector<std::future<SearchResult>> futures;
  for (int round = 0; round < 10; ++round) {
    futures.clear();
    for (size_t qi = 0; qi < data.queries.rows(); ++qi) {
      futures.push_back(engine.Submit(data.queries.row(qi), k, p));
    }
    for (auto& fut : futures) {
      SearchResult res = fut.get();
      ASSERT_EQ(res.ids.size(), k);
      for (uint32_t id : res.ids) {
        ASSERT_TRUE(id == kInvalidId || id < dyn.capacity());
      }
    }
  }
  stop_writer.store(true);
  writer.join();
}

// ---------------------------------------------------------------------------
// ISSUE 8 serving-path hardening: options validation, deterministic
// admission control, the shutdown outcome tag, and generation hot-swap.
// ---------------------------------------------------------------------------

TEST(ServingOptions, ValidateRejectsDegenerateConfigurations) {
  EXPECT_TRUE(ServingOptions{}.Validate().ok());

  ServingOptions o;
  o.queue_capacity = 0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);

  o = ServingOptions{};
  o.num_threads = (1u << 12) + 1;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);

}

/// A SearchIndex stub whose searchers park inside the search until the
/// gate opens — the deterministic way to hold async queries "executing"
/// while a test probes admission control or shutdown. With
/// `block_first_only`, only the first query ever parks; the rest answer
/// immediately (the shutdown test needs later queries to resolve while the
/// first pins the engine's in-flight count). Release(n) lets n parked
/// queries through a closed gate. Past the gate a query answers id 0, or,
/// when the gate wraps an `inner` index, that index's answer.
class GateIndex : public SearchIndex {
 public:
  explicit GateIndex(size_t dim, bool block_first_only = false)
      : dim_(dim), block_first_only_(block_first_only) {}
  explicit GateIndex(const SearchIndex* inner)
      : dim_(inner->dim()), block_first_only_(false), inner_(inner) {}

  std::string name() const override { return "gate-stub"; }
  size_t size() const override { return 1; }
  size_t dim() const override { return dim_; }
  size_t memory_bytes() const override { return sizeof(*this); }

  std::unique_ptr<Searcher> MakeSearcher() const override {
    return std::make_unique<Gate>(this);
  }

  /// Blocks until `n` queries have entered Search.
  void WaitEntered(uint64_t n) const {
    std::unique_lock<std::mutex> lk(mu_);
    entered_cv_.wait(lk, [&] { return entered_ >= n; });
  }

  void OpenGate() const {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    gate_cv_.notify_all();
  }

  void Release(uint64_t n) const {
    std::lock_guard<std::mutex> lk(mu_);
    permits_ += n;
    gate_cv_.notify_all();
  }

 private:
  size_t dim_;
  bool block_first_only_;
  const SearchIndex* inner_ = nullptr;
  // mutable: searchers reach the gate through a const index.
  mutable std::mutex mu_;
  mutable std::condition_variable entered_cv_;
  mutable std::condition_variable gate_cv_;
  mutable uint64_t entered_ = 0;
  mutable uint64_t permits_ = 0;
  mutable bool open_ = false;

  /// Parks the query (every one, or only the first) until the gate opens,
  /// then answers.
  class Gate : public Searcher {
   public:
    explicit Gate(const GateIndex* index)
        : Searcher(index->dim_),
          index_(index),
          inner_(index->inner_ != nullptr ? index->inner_->MakeSearcher()
                                          : nullptr) {}

   private:
    void SearchFinite(const float* query, size_t k,
                      const SearchOptions& params, uint32_t* ids,
                      float* dists, BatchStats* stats) override {
      {
        std::unique_lock<std::mutex> lk(index_->mu_);
        const uint64_t ticket = index_->entered_++;
        index_->entered_cv_.notify_all();
        if (!index_->block_first_only_ || ticket == 0) {
          index_->gate_cv_.wait(
              lk, [&] { return index_->open_ || index_->permits_ > 0; });
          if (!index_->open_) --index_->permits_;
        }
      }
      if (inner_ != nullptr) {
        inner_->Search(query, k, params, ids, dists, stats);
        return;
      }
      const uint32_t hit = 0;
      const float dist = 0.0f;
      WritePaddedRow(&hit, &dist, 1, k, ids, dists);
    }

    const GateIndex* index_;
    std::unique_ptr<Searcher> inner_;
  };
};

// TrySubmit with queue_capacity=1: the first query is admitted and parks
// in the gate; the second is rejected with kRejectedOverload (and counted)
// instead of blocking; once the gate opens and the engine drains, admission
// recovers. No sleeps — every step is sequenced by the gate.
TEST(ServingEngine, TrySubmitRejectsOverloadDeterministically) {
  GateIndex gate(/*dim=*/8);
  ServingOptions opts;
  opts.num_threads = 1;
  opts.queue_capacity = 1;
  ServingEngine engine(&gate, opts);
  const std::vector<float> q(8, 0.5f);
  SearchOptions p;

  std::future<SearchResult> admitted;
  ASSERT_EQ(engine.TrySubmit(q.data(), 3, p, &admitted),
            ServingEngine::SubmitOutcome::kAccepted);
  gate.WaitEntered(1);  // the admitted query is now executing

  std::future<SearchResult> rejected;
  EXPECT_EQ(engine.TrySubmit(q.data(), 3, p, &rejected),
            ServingEngine::SubmitOutcome::kRejectedOverload);
  EXPECT_EQ(engine.counters().rejected, 1u);
  EXPECT_EQ(engine.inflight(), 1u);  // the rejection admitted nothing

  gate.OpenGate();
  SearchResult res = admitted.get();
  EXPECT_EQ(res.outcome, SearchOutcome::kOk);
  ASSERT_EQ(res.ids.size(), 3u);
  EXPECT_EQ(res.ids[0], 0u);
  engine.Drain();

  // Capacity is back: the next admission succeeds and resolves.
  std::future<SearchResult> again;
  ASSERT_EQ(engine.TrySubmit(q.data(), 3, p, &again),
            ServingEngine::SubmitOutcome::kAccepted);
  EXPECT_EQ(again.get().outcome, SearchOutcome::kOk);
  EXPECT_EQ(engine.counters().rejected, 1u);
}

// The ISSUE 8 bugfix: a Submit that lands during shutdown resolves with
// outcome == kShutdown and all-padded ids — distinguishable from a real
// zero-hit answer. The first query parks in the gate so the destructor is
// pinned in its drain while a submitter races Submit against it.
TEST(ServingEngine, SubmitDuringShutdownIsTaggedNotZeroHit) {
  GateIndex gate(/*dim=*/8, /*block_first_only=*/true);
  ServingOptions opts;
  opts.num_threads = 2;
  auto engine = std::make_unique<ServingEngine>(&gate, opts);
  const std::vector<float> q(8, 0.5f);
  SearchOptions p;

  // The hammer loop uses a raw pointer: unique_ptr::reset() nulls the
  // stored pointer before the destructor runs, and the destructor itself
  // cannot finish while the gate pins its drain — which is exactly the
  // window this test submits into.
  ServingEngine* raw = engine.get();
  std::future<SearchResult> pinned = raw->Submit(q.data(), 4, p);
  gate.WaitEntered(1);  // the pin is executing; the drain must wait for it

  // Destruction starts now but cannot finish until the gate opens.
  std::thread destroyer([&] { engine.reset(); });

  // Hammer Submit until one lands after stop: pre-stop submissions resolve
  // kOk (the gate only blocks the first query); the first post-stop one
  // must come back tagged kShutdown with k padded ids.
  bool saw_shutdown = false;
  for (int i = 0; i < 1'000'000 && !saw_shutdown; ++i) {
    SearchResult res = raw->Submit(q.data(), 4, p).get();
    ASSERT_EQ(res.ids.size(), 4u);
    if (res.outcome == SearchOutcome::kShutdown) {
      saw_shutdown = true;
      for (uint32_t id : res.ids) EXPECT_EQ(id, kInvalidId);
      for (float d : res.dists) EXPECT_EQ(d, kInvalidDist);
    } else {
      ASSERT_EQ(res.outcome, SearchOutcome::kOk);
      EXPECT_EQ(res.ids[0], 0u);  // a real answer, not padding
    }
  }
  EXPECT_TRUE(saw_shutdown);

  gate.OpenGate();
  destroyer.join();
  SearchResult res = pinned.get();
  EXPECT_EQ(res.outcome, SearchOutcome::kOk);  // admitted before stop
}

// Two workers, two queries submitted back to back: whichever query reaches
// the gate first parks, and the idle worker must answer the other one while
// it is still parked. (An engine that gathers both into one micro-batch
// runs them in order on one worker, so the second waits on the gate.)
TEST(ServingEngine, IdleWorkerTakesQueryQueuedBehindParkedOne) {
  GateIndex gate(/*dim=*/8, /*block_first_only=*/true);
  ServingOptions opts;
  opts.num_threads = 2;
  ServingEngine engine(&gate, opts);
  const std::vector<float> q(8, 0.5f);
  SearchOptions p;

  std::future<SearchResult> a = engine.Submit(q.data(), 3, p);
  std::future<SearchResult> b = engine.Submit(q.data(), 3, p);
  auto ready = [](std::future<SearchResult>& f, std::chrono::milliseconds t) {
    return f.wait_for(t) == std::future_status::ready;
  };
  std::future<SearchResult>* parked = nullptr;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (parked == nullptr && std::chrono::steady_clock::now() < deadline) {
    if (ready(a, std::chrono::milliseconds(5))) {
      parked = &b;
    } else if (ready(b, std::chrono::milliseconds(0))) {
      parked = &a;
    }
  }
  const bool still_parked =
      parked != nullptr && !ready(*parked, std::chrono::milliseconds(0));
  gate.OpenGate();  // before any assertion can return, or the dtor hangs
  EXPECT_NE(parked, nullptr) << "the second query waited behind the first";
  EXPECT_TRUE(still_parked);
  EXPECT_EQ(a.get().outcome, SearchOutcome::kOk);
  EXPECT_EQ(b.get().outcome, SearchOutcome::kOk);
}

// A burst queued behind parked workers drains one query per take, and
// every answer is bit-identical to a direct Searcher's.
TEST(ServingEngine, BurstBehindParkedWorkersDrainsBitIdentically) {
  StaticFixture f;
  GateIndex gate(f.index.get());
  const size_t k = 10, kBurst = 64;
  ServingOptions opts;
  opts.num_threads = 2;
  ServingEngine engine(&gate, opts);
  SearchOptions p;
  p.window = 32;

  std::vector<std::future<SearchResult>> futures;
  for (size_t qi = 0; qi < kBurst; ++qi) {
    futures.push_back(engine.Submit(f.data.queries.row(qi), k, p));
  }
  gate.WaitEntered(2);  // both workers hold a query at the gate
  gate.OpenGate();

  std::unique_ptr<Searcher> direct = f.index->MakeSearcher();
  std::vector<uint32_t> ids(k);
  std::vector<float> dists(k);
  for (size_t qi = 0; qi < kBurst; ++qi) {
    const SearchResult res = futures[qi].get();
    ASSERT_EQ(res.outcome, SearchOutcome::kOk);
    direct->Search(f.data.queries.row(qi), k, p, ids.data(), dists.data(),
                   nullptr);
    ASSERT_EQ(res.ids, ids) << "query " << qi;
    ASSERT_EQ(std::memcmp(res.dists.data(), dists.data(), k * sizeof(float)),
              0)
        << "query " << qi;
  }
  EXPECT_EQ(engine.counters().batches, kBurst);
}

// A SearchBatch goes ahead of an async backlog: with both workers parked
// and 64 async queries queued behind them, the gate lets one query through
// at a time until the sync call returns. Its two slices run as soon as
// workers free up, so only a few backlog queries pass first. (An engine
// that queued the slices behind the backlog would need all 64 released.)
TEST(ServingEngine, SyncBatchOvertakesAsyncBacklog) {
  GateIndex gate(/*dim=*/8);
  const size_t kBacklog = 64;
  ServingOptions opts;
  opts.num_threads = 2;
  ServingEngine engine(&gate, opts);
  const std::vector<float> q(8, 0.5f);
  SearchOptions p;

  std::vector<std::future<SearchResult>> backlog;
  for (size_t i = 0; i < kBacklog; ++i) {
    backlog.push_back(engine.Submit(q.data(), 3, p));
  }
  gate.WaitEntered(2);  // both workers parked; the rest is queued
  EXPECT_EQ(engine.queue_depth(), kBacklog - 2);

  MatrixF queries(2, 8);
  std::fill(queries.data(), queries.data() + queries.size(), 0.25f);
  Matrix<uint32_t> ids(2, 3);
  std::atomic<bool> sync_done{false};
  std::thread caller([&] {
    engine.SearchBatch(queries, 3, p, ids.data());
    sync_done.store(true);
  });
  // One query through the gate per millisecond, so the caller has queued
  // its slices long before the backlog could drain.
  size_t released = 0;
  while (!sync_done.load() && released < kBacklog + 2) {
    gate.Release(1);
    ++released;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.OpenGate();
  caller.join();
  EXPECT_LT(released, kBacklog / 2) << "the sync batch waited for the backlog";
  for (size_t i = 0; i < 2; ++i) EXPECT_EQ(ids(i, 0), 0u);
  for (auto& fut : backlog) EXPECT_EQ(fut.get().outcome, SearchOutcome::kOk);
}

// SearchBatch runs on the same workers but is not async traffic: while an
// admitted query pins queue_capacity = 1, a sync batch still completes,
// and it leaves inflight(), queue_depth() and the admission bound as they
// were.
TEST(ServingEngine, SyncSlicesBypassAsyncAdmission) {
  GateIndex gate(/*dim=*/8, /*block_first_only=*/true);
  ServingOptions opts;
  opts.num_threads = 2;
  opts.queue_capacity = 1;
  ServingEngine engine(&gate, opts);
  const std::vector<float> q(8, 0.5f);
  SearchOptions p;

  std::future<SearchResult> admitted;
  ASSERT_EQ(engine.TrySubmit(q.data(), 3, p, &admitted),
            ServingEngine::SubmitOutcome::kAccepted);
  gate.WaitEntered(1);  // parked on one worker

  MatrixF queries(4, 8);
  std::fill(queries.data(), queries.data() + queries.size(), 0.25f);
  Matrix<uint32_t> ids(4, 3);
  engine.SearchBatch(queries, 3, p, ids.data());
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(ids(i, 0), 0u);
  EXPECT_EQ(engine.inflight(), 1u);
  EXPECT_EQ(engine.queue_depth(), 0u);
  std::future<SearchResult> rejected;
  EXPECT_EQ(engine.TrySubmit(q.data(), 3, p, &rejected),
            ServingEngine::SubmitOutcome::kRejectedOverload);

  gate.OpenGate();
  EXPECT_EQ(admitted.get().outcome, SearchOutcome::kOk);
  engine.Drain();
  EXPECT_EQ(engine.inflight(), 0u);
}

/// One small facade build for the GenerationHolder tests.
Index BuildFacadeIndex(const Dataset& data, int bits2 = 0) {
  IndexSpec spec;
  spec.kind = IndexKind::kStaticLvq;
  spec.metric = data.metric;
  spec.bits1 = 8;
  spec.bits2 = bits2;
  spec.graph.graph_max_degree = 16;
  spec.graph.window_size = 32;
  Result<Index> built = Build(spec, data.base);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// BlinkServer's /stats reads Index::name() from every connection thread.
// Storages used to build the encoding name into a mutable cache inside a
// const method, so two concurrent name() calls raced on it.
TEST(ServingEngine, ConcurrentNameCallsDoNotRace) {
  Dataset data = MakeDeepLike(300, 4, 902);
  IndexSpec dyn;
  dyn.kind = IndexKind::kDynamicLvq;
  dyn.metric = data.metric;
  dyn.graph.graph_max_degree = 16;
  Result<Index> dynamic = Build(dyn, data.base);
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().ToString();
  const Index lvq4x8 = BuildFacadeIndex(data, /*bits2=*/8);
  const Index& dynamic_lvq = dynamic.value();
  for (const Index* idx : {&lvq4x8, &dynamic_lvq}) {
    const std::string want = idx->name();
    std::string got[2];
    std::thread readers[2];
    for (int t = 0; t < 2; ++t) {
      readers[t] = std::thread([&, t] {
        for (int i = 0; i < 200; ++i) got[t] = idx->name();
      });
    }
    for (auto& r : readers) r.join();
    EXPECT_EQ(got[0], want);
    EXPECT_EQ(got[1], want);
  }
  EXPECT_EQ(dynamic_lvq.name(), "dynamic-LVQ-8");
}

TEST(GenerationHolder, CreateValidatesIndexAndOptions) {
  // Empty handle: rejected.
  ServingOptions opts;
  opts.num_threads = 1;
  EXPECT_FALSE(GenerationHolder::Create(Index(), opts).ok());

  // Degenerate serving options: rejected at the boundary.
  Dataset data = MakeDeepLike(300, 4, 900);
  ServingOptions bad;
  bad.queue_capacity = 0;
  EXPECT_FALSE(
      GenerationHolder::Create(BuildFacadeIndex(data), bad).ok());
}

TEST(GenerationHolder, SwapCutsOverAndOldGenerationSurvivesHeldRefs) {
  Dataset data = MakeDeepLike(600, 12, 901);
  ServingOptions opts;
  opts.num_threads = 2;
  Result<std::unique_ptr<GenerationHolder>> made =
      GenerationHolder::Create(BuildFacadeIndex(data), opts, "genA");
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  GenerationHolder& holder = *made.value();
  EXPECT_EQ(holder.generation(), 1u);
  EXPECT_EQ(holder.swap_count(), 0u);

  std::shared_ptr<ServingGeneration> gen1 = holder.Current();
  ASSERT_NE(gen1, nullptr);
  EXPECT_EQ(gen1->number, 1u);
  EXPECT_EQ(gen1->source, "genA");

  Result<uint64_t> swapped =
      holder.SwapTo(BuildFacadeIndex(data, /*bits2=*/8), "genB");
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped.value(), 2u);
  EXPECT_EQ(holder.generation(), 2u);
  EXPECT_EQ(holder.swap_count(), 1u);
  std::shared_ptr<ServingGeneration> gen2 = holder.Current();
  EXPECT_EQ(gen2->number, 2u);
  EXPECT_EQ(gen2->source, "genB");

  // The pre-swap generation we still hold answers correctly after the
  // cutover — the in-flight-request guarantee.
  const size_t k = 5, nq = data.queries.rows();
  SearchOptions p;
  p.window = 32;
  Matrix<uint32_t> old_ids(nq, k), new_ids(nq, k);
  gen1->engine->SearchBatch(data.queries, k, p, old_ids.data());
  gen2->engine->SearchBatch(data.queries, k, p, new_ids.data());
  Matrix<uint32_t> gt = ComputeGroundTruth(data.base, data.queries, k,
                                           data.metric);
  EXPECT_GE(MeanRecallAtK(old_ids, gt, k), 0.9);
  EXPECT_GE(MeanRecallAtK(new_ids, gt, k), 0.9);
}

TEST(GenerationHolder, SwapRejectsDimensionMismatch) {
  Dataset deep = MakeDeepLike(300, 4, 902);   // d = 96
  Dataset sift = MakeSiftLike(300, 4, 903);   // d = 128
  ServingOptions opts;
  opts.num_threads = 1;
  Result<std::unique_ptr<GenerationHolder>> made =
      GenerationHolder::Create(BuildFacadeIndex(deep), opts);
  ASSERT_TRUE(made.ok());
  GenerationHolder& holder = *made.value();

  Result<uint64_t> swapped = holder.SwapTo(BuildFacadeIndex(sift));
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kInvalidArgument)
      << swapped.status().ToString();
  // The failed swap changed nothing.
  EXPECT_EQ(holder.generation(), 1u);
  EXPECT_EQ(holder.swap_count(), 0u);
  EXPECT_EQ(holder.Current()->index.dim(), 96u);
}

}  // namespace
}  // namespace blink
