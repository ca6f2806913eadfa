// Unit tests for index persistence (graph/serialize.h).
#include "graph/serialize.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <gtest/gtest.h>
#include <string>
#include <unistd.h>
#include <vector>

#include "api/index.h"
#include "testutil.h"
#include "util/binio.h"
#include "util/mmap_file.h"

namespace blink {
namespace {

using testutil::ExpectSameIds;
using testutil::SearchIds;

class SerializeTest : public testutil::TempPathTest {
 protected:
  /// Registers both files of an index bundle and returns the prefix.
  std::string BundlePrefix(const std::string& name) {
    const std::string graph = Path(name + ".graph");
    Path(name + ".vecs");
    return graph.substr(0, graph.size() - sizeof(".graph") + 1);
  }
};

/// All bytes of a file, for before/after comparisons.
std::vector<uint8_t> Slurp(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<uint8_t> bytes;
  if (f != nullptr) {
    char buf[4096];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + got);
    }
    std::fclose(f);
  }
  return bytes;
}

TEST_F(SerializeTest, GraphRoundTrip) {
  Dataset data = MakeDeepLike(500, 5, 600);
  FloatStorage storage(data.base, data.metric);
  VamanaBuildParams bp;
  bp.graph_max_degree = 16;
  bp.window_size = 32;
  BuiltGraph g = BuildVamana(storage, bp);
  const std::string p = Path("a.graph");
  ASSERT_TRUE(SaveGraph(p, g.graph, g.entry_point, {data.metric, bp}).ok());
  auto r = LoadGraph(p, /*use_huge_pages=*/false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const BuiltGraph& g2 = r.value();
  ASSERT_EQ(g2.graph.size(), g.graph.size());
  ASSERT_EQ(g2.graph.max_degree(), g.graph.max_degree());
  ASSERT_EQ(g2.entry_point, g.entry_point);
  for (size_t i = 0; i < g.graph.size(); ++i) {
    ASSERT_EQ(g2.graph.degree(i), g.graph.degree(i)) << i;
    for (uint32_t e = 0; e < g.graph.degree(i); ++e) {
      ASSERT_EQ(g2.graph.neighbors(i)[e], g.graph.neighbors(i)[e]) << i;
    }
  }
}

TEST_F(SerializeTest, LvqRoundTripIsBitExact) {
  Dataset data = MakeDeepLike(300, 5, 601);
  LvqDataset::Options o;
  o.bits = 8;
  LvqDataset ds = LvqDataset::Encode(data.base, o);
  const std::string p = Path("a.vecs");
  ASSERT_TRUE(SaveLvq(p, ds).ok());
  auto r = LoadLvq(p, false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const LvqDataset& ds2 = r.value();
  ASSERT_EQ(ds2.size(), ds.size());
  ASSERT_EQ(ds2.dim(), ds.dim());
  ASSERT_EQ(ds2.bits(), ds.bits());
  ASSERT_EQ(ds2.vector_footprint(), ds.vector_footprint());
  EXPECT_EQ(ds2.mean(), ds.mean());
  for (size_t i = 0; i < ds.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(ds2.blob(i), ds.blob(i), ds.vector_footprint()))
        << i;
  }
}

TEST_F(SerializeTest, Lvq2RoundTripIsBitExact) {
  Dataset data = MakeDeepLike(200, 5, 602);
  LvqDataset::Options o;
  o.bits = 4;
  o.bits2 = 8;
  LvqDataset ds = LvqDataset::Encode(data.base, o);
  const std::string p = Path("b.vecs");
  ASSERT_TRUE(SaveLvq(p, ds).ok());
  auto r = LoadLvq(p, false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const LvqDataset& ds2 = r.value();
  ASSERT_EQ(ds2.bits(), 4);
  ASSERT_EQ(ds2.bits2(), 8);
  std::vector<float> a(ds.dim()), b(ds.dim());
  for (size_t i = 0; i < ds.size(); i += 13) {
    ds.Decode(i, a.data());
    ds2.Decode(i, b.data());
    for (size_t j = 0; j < ds.dim(); ++j) ASSERT_EQ(a[j], b[j]) << i;
  }
}

TEST_F(SerializeTest, FullIndexBundleServesIdenticalResults) {
  Dataset data = MakeDeepLike(1500, 30, 603);
  VamanaBuildParams bp;
  bp.graph_max_degree = 16;
  bp.window_size = 32;
  auto built = BuildOgLvq(data.base, data.metric, 8, 0, bp);
  const std::string prefix = BundlePrefix("bundle");
  ASSERT_TRUE(SaveIndexBundle(prefix, *built).ok());

  OpenOptions opts;
  opts.use_huge_pages = false;
  auto loaded = Open(prefix, opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SearchOptions p;
  p.window = 40;
  const size_t k = 10;
  ExpectSameIds(SearchIds(*built, data.queries, k, p),
                SearchIds(loaded.value().AsSearchIndex(), data.queries, k, p),
                "bundle round trip");
}

TEST_F(SerializeTest, TwoLevelBundleRoundTrips) {
  Dataset data = MakeDeepLike(800, 10, 604);
  VamanaBuildParams bp;
  bp.graph_max_degree = 16;
  bp.window_size = 32;
  auto built = BuildOgLvq(data.base, data.metric, 4, 8, bp);
  const std::string prefix = BundlePrefix("bundle2");
  ASSERT_TRUE(SaveIndexBundle(prefix, *built).ok());
  OpenOptions opts;
  opts.use_huge_pages = false;
  auto loaded = Open(prefix, opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().spec().bits1, 4);
  EXPECT_EQ(loaded.value().spec().bits2, 8);
  SearchOptions p;
  p.window = 32;
  ExpectSameIds(SearchIds(*built, data.queries, 10, p),
                SearchIds(loaded.value().AsSearchIndex(), data.queries, 10, p),
                "two-level bundle round trip");
}

TEST_F(SerializeTest, CorruptFilesRejected) {
  const std::string p = Path("bad.graph");
  FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t junk = 0x12345678;
  std::fwrite(&junk, 4, 1, f);
  std::fclose(f);
  EXPECT_FALSE(LoadGraph(p).ok());
  EXPECT_FALSE(LoadLvq(p).ok());
  EXPECT_FALSE(LoadGraph("/nonexistent/x.graph").ok());
}

TEST_F(SerializeTest, GraphWithOutOfRangeNeighborRejected) {
  FlatGraph g(4, 2, false);
  const uint32_t bogus[] = {99};  // beyond n=4
  g.SetNeighbors(0, bogus, 1);
  const std::string p = Path("oob.graph");
  ASSERT_TRUE(SaveGraph(p, g, 0, IndexMeta{}).ok());
  EXPECT_FALSE(LoadGraph(p).ok());
}

TEST_F(SerializeTest, GraphWithOutOfRangeEntryPointRejected) {
  FlatGraph g(4, 2, false);
  const std::string p = Path("oob_entry.graph");
  ASSERT_TRUE(SaveGraph(p, g, /*entry_point=*/4, IndexMeta{}).ok());  // n=4
  EXPECT_FALSE(LoadGraph(p).ok());
}

// The version-1 reader's range checks, on byte-patched copies of the v1
// fixture (no writer emits v1 any more). v1 layout: magic u32 | version
// u32 | n u64 | R u32 | entry u32, then [deg][deg ids] rows.
class LegacyGraphPatch : public SerializeTest {
 protected:
  static constexpr size_t kNOffset = 8;
  static constexpr size_t kEntryOffset = 20;
  static constexpr size_t kRow0Offset = 24;

  std::vector<uint8_t> Fixture() const {
    return Slurp(std::string(BLINK_TEST_DATA_DIR) + "/v1_static_lvq.graph");
  }
  /// Writes `bytes` to a temp file and returns its path.
  std::string Write(const std::string& name, const std::vector<uint8_t>& bytes) {
    const std::string p = Path(name);
    FILE* f = std::fopen(p.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (f != nullptr) {
      std::fwrite(bytes.data(), 1, bytes.size(), f);
      std::fclose(f);
    }
    return p;
  }
};

TEST_F(LegacyGraphPatch, UnpatchedFixtureLoads) {
  auto r = LoadGraph(Write("v1.graph", Fixture()), false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().graph.size(), 64u);
}

TEST_F(LegacyGraphPatch, OutOfRangeNeighborRejected) {
  std::vector<uint8_t> bytes = Fixture();
  uint32_t deg = 0;
  std::memcpy(&deg, bytes.data() + kRow0Offset, sizeof(deg));
  ASSERT_GT(deg, 0u) << "row 0 needs a neighbour to corrupt";
  const uint32_t bogus = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + kRow0Offset + 4, &bogus, sizeof(bogus));
  auto r = LoadGraph(Write("v1_oob.graph", bytes), false);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("neighbor id out of range"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(LegacyGraphPatch, OutOfRangeEntryPointRejected) {
  std::vector<uint8_t> bytes = Fixture();
  uint64_t n = 0;
  std::memcpy(&n, bytes.data() + kNOffset, sizeof(n));
  const uint32_t entry = static_cast<uint32_t>(n);  // one past the last node
  std::memcpy(bytes.data() + kEntryOffset, &entry, sizeof(entry));
  auto r = LoadGraph(Write("v1_oob_entry.graph", bytes), false);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("entry point out of range"),
            std::string::npos)
      << r.status().ToString();
}

// ---------------------------------------------------------------------------
// Atomic-save protocol: an interrupted save must never leave a torn file
// where the destination path is, and leftover temp files must be inert.
// ---------------------------------------------------------------------------

// A writer destroyed before Commit() — what an exception or early error
// return mid-save comes down to — leaves neither a destination file nor a
// stray temp behind.
TEST_F(SerializeTest, AbandonedAtomicWriteLeavesNothing) {
  const std::string p = Path("abandoned.graph");
  const std::string tmp = p + ".tmp." + std::to_string(::getpid());
  {
    binio::AtomicFile f(p);
    ASSERT_TRUE(f.ok());
    const uint32_t partial = 0x47414C42u;
    std::fwrite(&partial, 4, 1, f.get());
    // no Commit(): simulate the save dying mid-payload
  }
  FILE* dest = std::fopen(p.c_str(), "rb");
  EXPECT_EQ(dest, nullptr) << "destination must not exist";
  FILE* left = std::fopen(tmp.c_str(), "rb");
  EXPECT_EQ(left, nullptr) << "temp must be cleaned up";
  if (dest != nullptr) std::fclose(dest);
  if (left != nullptr) std::fclose(left);
}

// A crash hard enough to skip destructors (SIGKILL, power loss) leaves the
// partial temp file on disk. It must be invisible to loaders and a
// subsequent save of the same artifact must still succeed and replace
// nothing until its own commit.
TEST_F(SerializeTest, MidSaveCrashLeavesOldArtifactServable) {
  Dataset data = MakeDeepLike(200, 5, 604);
  FloatStorage storage(data.base, data.metric);
  VamanaBuildParams bp;
  bp.graph_max_degree = 8;
  bp.window_size = 16;
  BuiltGraph g = BuildVamana(storage, bp);
  const std::string p = Path("crashed.graph");
  const IndexMeta meta{data.metric, bp};
  ASSERT_TRUE(SaveGraph(p, g.graph, g.entry_point, meta).ok());
  const std::vector<uint8_t> before = Slurp(p);

  // Simulate a crashed writer: a partial header under the temp-name
  // convention of some other (dead) process.
  const std::string stale = Path("crashed.graph.tmp.99999");
  FILE* f = std::fopen(stale.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t partial = 0x47414C42u;
  std::fwrite(&partial, 4, 1, f);
  std::fclose(f);

  // The artifact still loads, byte-identical to what was committed.
  auto r = LoadGraph(p, /*use_huge_pages=*/false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Slurp(p), before);

  // Saving again replaces the artifact atomically, stale temp and all.
  ASSERT_TRUE(SaveGraph(p, g.graph, g.entry_point, meta).ok());
  EXPECT_TRUE(LoadGraph(p, false).ok());
}

// When the final rename cannot land (here: the destination is a
// directory), the save must report the failure and clean up its temp.
TEST_F(SerializeTest, FailedCommitReportsAndCleansUp) {
  FlatGraph g(4, 2, false);
  const std::string p = DirPath("rename_target.graph");
  std::filesystem::create_directories(p);  // rename over a directory fails
  const Status st = SaveGraph(p, g, 0, IndexMeta{});
  EXPECT_FALSE(st.ok());
  const std::string tmp = p + ".tmp." + std::to_string(::getpid());
  FILE* left = std::fopen(tmp.c_str(), "rb");
  EXPECT_EQ(left, nullptr) << "temp must be cleaned up after failed rename";
  if (left != nullptr) std::fclose(left);
}

// ---------------------------------------------------------------------------
// View placement (map mode over v3 aligned artifacts).
// ---------------------------------------------------------------------------

TEST_F(SerializeTest, MappedGraphMatchesLoaded) {
  Dataset data = MakeDeepLike(300, 5, 605);
  FloatStorage storage(data.base, data.metric);
  VamanaBuildParams bp;
  bp.graph_max_degree = 12;
  bp.window_size = 24;
  BuiltGraph g = BuildVamana(storage, bp);
  const std::string p = Path("mapped.graph");
  const IndexMeta meta{data.metric, bp};
  ASSERT_TRUE(SaveGraph(p, g.graph, g.entry_point, meta).ok());

  auto map = MmapFile::Map(p);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  ASSERT_TRUE(IsAlignedArtifact(map.value()));
  IndexMeta got_meta;
  bool has_meta = false;
  auto r = ReadGraph(map.value(), p, {.view = true}, &got_meta, &has_meta);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const BuiltGraph& m = r.value();
  EXPECT_TRUE(m.graph.mapped());
  EXPECT_TRUE(has_meta);
  EXPECT_EQ(got_meta.metric, data.metric);
  EXPECT_EQ(got_meta.params.window_size, bp.window_size);
  ASSERT_EQ(m.graph.size(), g.graph.size());
  ASSERT_EQ(m.graph.max_degree(), g.graph.max_degree());
  ASSERT_EQ(m.entry_point, g.entry_point);
  for (size_t i = 0; i < g.graph.size(); ++i) {
    ASSERT_EQ(m.graph.degree(i), g.graph.degree(i)) << i;
    ASSERT_EQ(0, std::memcmp(m.graph.neighbors(i), g.graph.neighbors(i),
                             g.graph.degree(i) * sizeof(uint32_t)))
        << i;
  }
  // The v3 contract: the mapped row section sits on a 64-byte file offset,
  // so SIMD loads over it are cache-line aligned.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(m.graph.neighbors(0)) % 64, 4u)
      << "row 0 ids follow the 4-byte degree at an aligned row base";
}

TEST_F(SerializeTest, MappedLvqIsBitExact) {
  Dataset data = MakeDeepLike(150, 5, 606);
  LvqDataset::Options o;
  o.bits = 8;
  LvqDataset ds = LvqDataset::Encode(data.base, o);
  const std::string p = Path("mapped.vecs");
  ASSERT_TRUE(SaveLvq(p, ds).ok());
  auto map = MmapFile::Map(p);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(IsAlignedArtifact(map.value()));
  auto r = ReadLvq(map.value(), p, {.view = true});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const LvqDataset& m = r.value();
  EXPECT_TRUE(m.mapped());
  ASSERT_EQ(m.size(), ds.size());
  EXPECT_EQ(m.mean(), ds.mean());
  for (size_t i = 0; i < ds.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(m.blob(i), ds.blob(i), ds.vector_footprint()))
        << i;
  }
  EXPECT_EQ(reinterpret_cast<uintptr_t>(m.raw_blob()) % 64, 0u);
}

TEST_F(SerializeTest, MappedLvq2IsBitExact) {
  Dataset data = MakeDeepLike(120, 5, 607);
  LvqDataset::Options o;
  o.bits = 4;
  o.bits2 = 8;
  LvqDataset ds = LvqDataset::Encode(data.base, o);
  const std::string p = Path("mapped2.vecs");
  ASSERT_TRUE(SaveLvq(p, ds).ok());
  auto map = MmapFile::Map(p);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(IsAlignedArtifact(map.value()));
  auto r = ReadLvq(map.value(), p, {.view = true});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const LvqDataset& m = r.value();
  ASSERT_EQ(m.size(), ds.size());
  ASSERT_EQ(m.bits2(), ds.bits2());
  for (size_t i = 0; i < ds.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(m.residual_codes(i), ds.residual_codes(i),
                             ds.residual_stride()))
        << i;
  }
  EXPECT_EQ(reinterpret_cast<uintptr_t>(m.raw_residuals()) % 64, 0u);
}

// Pre-v3 artifacts are not mappable: the probe says so, and a view
// request over one still parses but copies (Open() uses the probe to
// record kLoad for such bundles).
TEST_F(SerializeTest, LegacyGraphIsNotMappable) {
  const std::string p =
      std::string(BLINK_TEST_DATA_DIR) + "/v1_static_lvq.graph";
  auto map = MmapFile::Map(p);
  ASSERT_TRUE(map.ok());
  EXPECT_FALSE(IsAlignedArtifact(map.value()));
  auto r = ReadGraph(map.value(), p, {.view = true, .use_huge_pages = false});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().graph.mapped());
  EXPECT_EQ(r.value().graph.size(), 64u);
}

}  // namespace
}  // namespace blink
