// Build-surface guard: this TU includes ONLY the umbrella header (plus
// gtest), so it fails to compile the moment blink.h stops being
// self-contained — a missing transitive include, a renamed public symbol,
// or header rot in any of the layers it pulls in.
//
// The test itself is one end-to-end round trip through the public API:
// synthesize a dataset, build an OG-LVQ index, search it, and check recall
// against exact ground truth, exercising quantization, graph build, SIMD
// dispatch, and evaluation in one pass.
#include "blink.h"

#include <gtest/gtest.h>

namespace blink {
namespace {

TEST(BlinkUmbrella, BuildSearchRecallRoundTrip) {
  Dataset data = MakeDeepLike(/*n=*/2000, /*nq=*/50);
  ASSERT_EQ(data.base.cols(), data.queries.cols());

  VamanaBuildParams bp;
  bp.graph_max_degree = 24;
  bp.window_size = 48;
  bp.alpha = data.metric == Metric::kL2 ? 1.2f : 0.95f;
  auto index =
      BuildOgLvq(data.base, data.metric, /*bits1=*/8, /*bits2=*/0, bp);
  ASSERT_NE(index, nullptr);
  EXPECT_GT(index->memory_bytes(), 0u);

  const size_t k = 10;
  SearchOptions params;
  params.window = 40;
  Matrix<uint32_t> ids(data.queries.rows(), k);
  SearchBatch(*index, data.queries, k, params, ids.data());

  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, k, data.metric);
  const double recall = MeanRecallAtK(ids, gt, k);
  // LVQ-8 at this scale should be near-exact; 0.8 leaves slack for the
  // quantization error while still catching a broken pipeline.
  EXPECT_GE(recall, 0.8) << "end-to-end recall collapsed";
}

TEST(BlinkUmbrella, SimdBackendIsSelected) {
  const char* name = simd::BackendName();
  ASSERT_NE(name, nullptr);
  const bool known = std::string(name) == "scalar" ||
                     std::string(name) == "avx2" ||
                     std::string(name) == "avx512";
  EXPECT_TRUE(known) << "unknown backend: " << name;
}

}  // namespace
}  // namespace blink
