// Figure 7(d): throughput scaling with the number of threads, float16 vs
// LVQ-8.
//
// The paper's shape: float16 saturates at the physical core count because
// it exhausts memory bandwidth, while LVQ-8 keeps scaling into the
// hyperthreads (up to 80) thanks to its reduced bandwidth demand. We sweep
// 1..2x the host's hardware threads.
#include "common.h"

using namespace blinkbench;

namespace {

template <typename Index>
void Scaling(const Index& idx, const Dataset& data, const Matrix<uint32_t>& gt,
             const std::vector<size_t>& thread_counts) {
  std::printf("%-16s", idx.storage().encoding_name().c_str());
  SearchOptions p;
  p.window = 40;
  double single = 0.0;
  for (size_t t : thread_counts) {
    ThreadPool pool(t);
    const double best =
        MeasureSetting(idx, data.queries, &gt, 10, p,
                       {.best_of = 3, .pool = t > 1 ? &pool : nullptr})
            .qps;
    if (t == thread_counts.front()) single = best;
    std::printf(" %8.0f(%4.1fx)", best, best / single);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  Banner("Figure 7(d)", "QPS vs worker threads: float16 vs LVQ-8");
  const size_t n = ScaledN(30000), nq = 2000, k = 10;
  Dataset data = MakeDeepLike(n, nq);
  Matrix<uint32_t> gt = ComputeGroundTruth(data.base, data.queries, k, data.metric);

  const size_t hw = NumThreads();
  std::vector<size_t> counts = {1};
  for (size_t t = 2; t <= 2 * hw; t *= 2) counts.push_back(t);
  if (counts.back() != 2 * hw) counts.push_back(2 * hw);

  std::printf("hardware threads: %zu; sweep:", hw);
  for (size_t t : counts) std::printf(" %zu", t);
  std::printf("\n\n");

  auto f16 = BuildVamanaF16(data.base, data.metric, GraphParams(32, data.metric));
  auto lvq = BuildOgLvq(data.base, data.metric, 8, 0, GraphParams(32, data.metric));
  Scaling(*f16, data, gt, counts);
  Scaling(*lvq, data, gt, counts);

  std::printf("\nPaper (40C/80T socket): float16 tops out at 40 threads\n"
              "(bandwidth-bound, 23.5x over 1T); LVQ-8 scales to 80 (33x).\n"
              "This host has %zu hardware thread(s): scaling saturates there.\n",
              hw);
  return 0;
}
