// Figure 7(c): memory-bandwidth utilization during search.
//
// The paper measures 160 GB/s (float16) and 135 GB/s (LVQ-8) against a
// 174 GB/s Intel MLC peak. Without MLC we estimate the peak with a large
// streaming read, and compute the search's achieved bandwidth from bytes
// actually fetched per query (vector blobs + adjacency rows touched,
// counted from per-query hop/distance statistics).
#include <cstring>

#include "common.h"

using namespace blinkbench;

namespace {

/// Streaming-read bandwidth estimate (GB/s) over a buffer far larger than
/// the last-level cache.
double PeakReadBandwidth() {
  const size_t bytes = 512ull << 20;
  Arena buf(bytes);
  std::memset(buf.data(), 1, bytes);
  volatile uint64_t sink = 0;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    const uint64_t* p = reinterpret_cast<const uint64_t*>(buf.data());
    uint64_t acc = 0;
    for (size_t i = 0; i < bytes / 8; i += 8) {
      acc += p[i] + p[i + 1] + p[i + 2] + p[i + 3] + p[i + 4] + p[i + 5] +
             p[i + 6] + p[i + 7];
    }
    sink = sink + acc;
    best = std::max(best, static_cast<double>(bytes) / t.Seconds() / 1e9);
  }
  return best;
}

template <typename Index>
void Measure(const Index& idx, const Dataset& data, size_t vector_bytes,
             double peak) {
  SearchOptions p;
  p.window = 40;
  const size_t adj_bytes = (idx.graph().max_degree() + 1) * sizeof(uint32_t);
  std::unique_ptr<Searcher> searcher = idx.MakeSearcher();
  uint32_t ids[10];
  BatchStats stats;
  Timer t;
  for (size_t q = 0; q < data.queries.rows(); ++q) {
    searcher->Search(data.queries.row(q), 10, p, ids, nullptr, &stats);
  }
  const double secs = t.Seconds();
  const size_t total_fetch =
      stats.distance_computations * vector_bytes + stats.hops * adj_bytes;
  const double gbps = static_cast<double>(total_fetch) / secs / 1e9;
  std::printf("%-16s fetched %.2f GB in %.2fs -> %.1f GB/s  (%.0f%% of peak)\n",
              idx.storage().encoding_name().c_str(),
              static_cast<double>(total_fetch) / 1e9, secs, gbps,
              100.0 * gbps / peak);
}

}  // namespace

int main() {
  Banner("Figure 7(c)", "achieved memory bandwidth: float16 vs LVQ-8");
  const double peak = PeakReadBandwidth();
  std::printf("streaming-read peak estimate: %.1f GB/s\n\n", peak);

  const size_t n = ScaledN(40000), nq = 2000;
  Dataset data = MakeDeepLike(n, nq);
  auto f16 = BuildVamanaF16(data.base, data.metric, GraphParams(32, data.metric));
  auto lvq = BuildOgLvq(data.base, data.metric, 8, 0, GraphParams(32, data.metric));

  Measure(*f16, data, data.base.cols() * sizeof(Float16), peak);
  Measure(*lvq, data, lvq->storage().dataset().vector_footprint(), peak);

  std::printf("\nPaper: 90%% (float16) and 78%% (LVQ-8) of the MLC peak on a\n"
              "40-core socket. A single core cannot saturate a socket; the\n"
              "transferable statistic is bytes per vector fetch: float16\n"
              "moves %zu B/vector vs LVQ-8's %zu B/vector here.\n",
              data.base.cols() * sizeof(Float16),
              lvq->storage().dataset().vector_footprint());
  return 0;
}
