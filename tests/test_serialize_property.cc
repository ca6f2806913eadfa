// Property-style serialization round-trip (ISSUE 3 satellite): a
// randomized sweep over (dim, degree, bits1/bits2, n) asserting that
// save -> load -> search produces byte-identical ids, for both the
// single-graph bundle and the sharded manifest layout.
#include <gtest/gtest.h>

#include <tuple>

#include "api/index.h"
#include "graph/serialize.h"
#include "shard/serialize.h"
#include "testutil.h"
#include "util/prng.h"

namespace blink {
namespace {

using testutil::ExpectSameIds;
using testutil::SearchIds;

struct Config {
  size_t n;
  size_t d;
  uint32_t R;
  int bits1;
  int bits2;
  uint64_t seed;
};

/// Draws a randomized-but-deterministic configuration sweep: dimensions,
/// degrees and bit widths are sampled with a fixed-seed PRNG so failures
/// reproduce exactly while still covering odd shapes (non-multiple-of-16
/// dims, 3-bit codes, tiny corpora).
std::vector<Config> SampleConfigs(size_t count, uint64_t seed) {
  const size_t dims[] = {8, 17, 33, 96, 130};
  const uint32_t degrees[] = {4, 8, 16, 24};
  const std::pair<int, int> bits[] = {{8, 0}, {4, 0}, {3, 0}, {4, 8}, {8, 4}};
  Rng rng(seed);
  std::vector<Config> out;
  for (size_t i = 0; i < count; ++i) {
    Config c;
    c.n = 40 + static_cast<size_t>(rng() % 360);
    c.d = dims[rng() % (sizeof(dims) / sizeof(dims[0]))];
    c.R = degrees[rng() % (sizeof(degrees) / sizeof(degrees[0]))];
    const auto& b = bits[rng() % (sizeof(bits) / sizeof(bits[0]))];
    c.bits1 = b.first;
    c.bits2 = b.second;
    c.seed = rng();
    out.push_back(c);
  }
  return out;
}

MatrixF GaussianData(size_t n, size_t d, uint64_t seed) {
  MatrixF data(n, d);
  Rng rng(seed);
  for (size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = rng.Gaussian(0.0f, 1.0f);
  }
  return data;
}

class SerializePropertyTest : public testutil::TempPathTest {};

TEST_F(SerializePropertyTest, SingleBundleRoundTripIsByteIdentical) {
  size_t case_id = 0;
  for (const Config& c : SampleConfigs(10, /*seed=*/0xF00D)) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " d=" + std::to_string(c.d) +
                 " R=" + std::to_string(c.R) +
                 " bits=" + std::to_string(c.bits1) + "x" +
                 std::to_string(c.bits2));
    MatrixF base = GaussianData(c.n, c.d, c.seed);
    MatrixF queries = GaussianData(8, c.d, c.seed ^ 0xABCD);
    VamanaBuildParams bp;
    bp.graph_max_degree = c.R;
    bp.window_size = 2 * c.R;
    auto built = BuildOgLvq(base, Metric::kL2, c.bits1, c.bits2, bp);
    const std::string prefix =
        Path("prop_single_" + std::to_string(case_id));
    // The bundle is two files; register both for cleanup.
    Path("prop_single_" + std::to_string(case_id) + ".graph");
    Path("prop_single_" + std::to_string(case_id) + ".vecs");
    ASSERT_TRUE(SaveIndexBundle(prefix, *built).ok());
    OpenOptions opts;
    opts.use_huge_pages = false;
    auto loaded = Open(prefix, opts);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    SearchOptions p;
    p.window = 2 * c.R;
    const size_t k = std::min<size_t>(10, c.n);
    ExpectSameIds(SearchIds(*built, queries, k, p),
                  SearchIds(loaded.value().AsSearchIndex(), queries, k, p),
                  "single bundle round trip");
    ++case_id;
  }
}

TEST_F(SerializePropertyTest, ShardedManifestRoundTripIsByteIdentical) {
  size_t case_id = 0;
  for (const Config& c : SampleConfigs(6, /*seed=*/0xBEEF)) {
    const size_t S = 2 + c.seed % 3;  // 2..4 shards
    SCOPED_TRACE("n=" + std::to_string(c.n) + " d=" + std::to_string(c.d) +
                 " R=" + std::to_string(c.R) +
                 " bits=" + std::to_string(c.bits1) + "x" +
                 std::to_string(c.bits2) + " S=" + std::to_string(S));
    MatrixF base = GaussianData(c.n, c.d, c.seed);
    MatrixF queries = GaussianData(8, c.d, c.seed ^ 0xABCD);
    ShardedBuildParams sp;
    sp.partition.num_shards = S;
    sp.graph.graph_max_degree = c.R;
    sp.graph.window_size = 2 * c.R;
    sp.bits1 = c.bits1;
    sp.bits2 = c.bits2;
    auto built = BuildShardedLvq(base, Metric::kL2, sp);
    const std::string dir = DirPath("prop_sharded_" + std::to_string(case_id));
    ASSERT_TRUE(SaveShardedIndex(dir, *built).ok());
    auto loaded = LoadShardedIndex(dir, Metric::kL2, sp.graph, false);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded.value()->num_shards(), S);
    ASSERT_EQ(loaded.value()->bits1(), c.bits1);
    ASSERT_EQ(loaded.value()->bits2(), c.bits2);
    SearchOptions p;
    p.window = 2 * c.R;
    const size_t k = std::min<size_t>(10, c.n);
    for (uint32_t nprobe : {0u, 1u, 2u}) {
      p.nprobe_shards = nprobe;
      ExpectSameIds(SearchIds(*built, queries, k, p),
                    SearchIds(*loaded.value(), queries, k, p),
                    "sharded round trip nprobe=" + std::to_string(nprobe));
    }
    ++case_id;
  }
}

}  // namespace
}  // namespace blink
