// serving_throughput — pooled-searcher ServingEngine vs per-call
// SearchBatch, swept over thread count x request batch size.
//
// The serving claim (ISSUE 2): when traffic arrives as many small batches,
// per-call SearchBatch pays a fresh searcher — visited array
// allocation + zeroing, scratch, query state — per slice per call, while
// the engine's pooled searchers keep that state warm (visited reset is an
// epoch bump). The sweep reports QPS for both paths and the speedup; the
// acceptance bar is >= 1.2x at 8 threads on the synthetic dataset.
//
// Scales with BLINK_SCALE like every bench.
#include "common.h"

namespace blinkbench {
namespace {

constexpr size_t kK = 10;

double BestOf3(const std::function<double()>& run) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) best = std::max(best, run());
  return best;
}

void Sweep() {
  // Serving-scale corpus: the per-call overhead being amortized (fresh
  // visited array: O(n) allocate + zero per searcher per call) only shows
  // at realistic index sizes; at toy sizes both paths tie.
  const size_t n = ScaledN(150000, 8000);
  const size_t nq = ScaledN(1000, 250);
  Dataset data = MakeDeepLike(n, nq, /*seed=*/42);
  ThreadPool build_pool(NumThreads());
  VamanaBuildParams bp = GraphParams(32, data.metric);
  auto index = BuildOgLvq(data.base, data.metric, 8, 0, bp, &build_pool);
  std::printf("index %s: n=%zu, %zu queries\n\n", index->name().c_str(), n, nq);

  SearchOptions params;
  params.window = 32;

  std::printf("%-8s %-8s %12s %12s %9s\n", "threads", "batch", "percall_qps",
              "engine_qps", "speedup");
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    ServingOptions opts;
    opts.num_threads = threads;
    ServingEngine engine(index.get(), opts);
    for (size_t batch : {1u, 8u, 32u, 128u}) {
      Matrix<uint32_t> ids(nq, kK);
      // Baseline: the request stream hits SearchBatch directly, one call
      // per micro-batch — fresh searchers every call.
      const double percall = BestOf3([&] {
        Timer t;
        for (size_t lo = 0; lo < nq; lo += batch) {
          const size_t take = std::min(batch, nq - lo);
          MatrixViewF slice(data.queries.row(lo), take, data.queries.cols());
          SearchBatch(*index, slice, kK, params, ids.row(lo), nullptr, nullptr,
                      &pool);
        }
        return static_cast<double>(nq) / t.Seconds();
      });
      // Engine: same request stream through the pooled searchers.
      const double pooled = BestOf3([&] {
        Timer t;
        for (size_t lo = 0; lo < nq; lo += batch) {
          const size_t take = std::min(batch, nq - lo);
          MatrixViewF slice(data.queries.row(lo), take, data.queries.cols());
          engine.SearchBatch(slice, kK, params, ids.row(lo));
        }
        return static_cast<double>(nq) / t.Seconds();
      });
      std::printf("%-8zu %-8zu %12.0f %12.0f %8.2fx\n", threads, batch,
                  percall, pooled, pooled / percall);
    }
  }
  std::printf("\n(acceptance: engine >= 1.2x per-call at threads=8, small "
              "batches)\n");
}

}  // namespace
}  // namespace blinkbench

int main() {
  blinkbench::Banner("serving_throughput",
                     "ServingEngine searcher pooling vs per-call SearchBatch");
  blinkbench::Sweep();
  return 0;
}
