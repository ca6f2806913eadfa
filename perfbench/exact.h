// Exact k-nearest-neighbor oracle for the recall checks.
//
// A plain loop, deliberately independent of the library's SIMD
// kernels: the oracle must stay right when the kernels under test are
// wrong. Ties break toward the lower row index.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// Squared L2 distance; `d` must be a multiple of 8 (every perfbench vector
/// has kDim = 96).
inline float ExactL2(const float* a, const float* b, size_t d) {
  // Eight fixed partial sums: deterministic, and wide enough for the
  // compiler to vectorize without reassociating anything itself.
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < d; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      const float t = a[i + j] - b[i + j];
      acc[j] += t * t;
    }
  }
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// A candidate neighbour: (distance, row). Pairs order by distance, then
/// by the lower row.
using Hit = std::pair<float, uint32_t>;

/// Offers `h` to `heap`, a max-heap holding the best <= k hits so far.
inline void PushTopK(std::vector<Hit>& heap, const Hit& h, size_t k) {
  if (heap.size() < k) {
    heap.push_back(h);
    std::push_heap(heap.begin(), heap.end());
  } else if (h < heap.front()) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = h;
    std::push_heap(heap.begin(), heap.end());
  }
}

/// Fills rows [lo, hi) of the base into `out` (row-major, d floats each).
using RowSource = std::function<void(size_t lo, size_t hi, float* out)>;
/// True when base row `i` may appear in query `q`'s answer.
using RowFilter = std::function<bool(size_t q, size_t i)>;

/// Exact top-k row ids of `nq` queries over `n` base rows produced by
/// `rows` in chunks; rows failing `filter` (when set) are skipped. Missing
/// slots (fewer than k admissible rows) hold UINT32_MAX. Threads split the
/// base; each regenerates or copies only its own chunks.
inline std::vector<uint32_t> ExactKnn(const RowSource& rows, size_t n,
                                      const float* queries, size_t nq,
                                      size_t d, size_t k, size_t threads,
                                      const RowFilter& filter = nullptr) {
  constexpr size_t kChunk = 2048;
  threads = std::max<size_t>(1, std::min(threads, (n + kChunk - 1) / kChunk));
  std::vector<std::vector<std::vector<Hit>>> part(
      threads, std::vector<std::vector<Hit>>(nq));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<float> buf(kChunk * d);
      auto& best = part[t];
      const size_t lo_t = n * t / threads, hi_t = n * (t + 1) / threads;
      for (size_t lo = lo_t; lo < hi_t; lo += kChunk) {
        const size_t hi = std::min(hi_t, lo + kChunk);
        rows(lo, hi, buf.data());
        for (size_t q = 0; q < nq; ++q) {
          auto& heap = best[q];  // max-heap on (dist, id) of size <= k
          const float* qv = queries + q * d;
          for (size_t i = lo; i < hi; ++i) {
            if (filter && !filter(q, i)) continue;
            PushTopK(heap,
                     {ExactL2(qv, buf.data() + (i - lo) * d, d),
                      static_cast<uint32_t>(i)},
                     k);
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  std::vector<uint32_t> out(nq * k, UINT32_MAX);
  for (size_t q = 0; q < nq; ++q) {
    std::vector<Hit> all;
    for (size_t t = 0; t < threads; ++t) {
      all.insert(all.end(), part[t][q].begin(), part[t][q].end());
    }
    std::sort(all.begin(), all.end());
    for (size_t j = 0; j < std::min(k, all.size()); ++j) {
      out[q * k + j] = all[j].second;
    }
  }
  return out;
}

/// Mean k-recall@k of `found` (nq x k) against `truth` (nq x k); a truth
/// row with fewer than k admissible rows is scored over the ones it has.
inline double RecallAtK(const uint32_t* found, const uint32_t* truth,
                        size_t nq, size_t k) {
  double sum = 0.0;
  size_t scored = 0;
  for (size_t q = 0; q < nq; ++q) {
    size_t want = 0, hit = 0;
    for (size_t j = 0; j < k; ++j) {
      const uint32_t t = truth[q * k + j];
      if (t == UINT32_MAX) continue;
      ++want;
      for (size_t m = 0; m < k; ++m) {
        if (found[q * k + m] == t) {
          ++hit;
          break;
        }
      }
    }
    if (want == 0) continue;
    sum += static_cast<double>(hit) / static_cast<double>(want);
    ++scored;
  }
  return scored == 0 ? 0.0 : sum / static_cast<double>(scored);
}

}  // namespace perfbench
