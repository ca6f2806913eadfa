// Open() robustness (ISSUE 5 satellite): every malformed, truncated,
// missing or legacy artifact must come back as a descriptive Status —
// never a crash — and the checked-in version-1 fixtures (tests/data/,
// written by the pre-metadata serializers) must keep loading with the
// OpenOptions fallbacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/index.h"
#include "api/registry.h"
#include "filter/predicate.h"
#include "filter/synthetic.h"
#include "graph/serialize.h"
#include "quant/lvq.h"
#include "simd/distance.h"
#include "testutil.h"
#include "util/prng.h"
#include "util/thread_pool.h"

namespace blink {
namespace {

using testutil::TempPathTest;

const std::string kDataDir = BLINK_TEST_DATA_DIR;

/// The dataset every fixture in tests/data/ was generated from (see
/// tests/data/README.md): MakeDeepLike(64, 8, seed=7), R=8 / W=16 /
/// alpha=1.2 / L2.
struct V1World {
  Dataset data = MakeDeepLike(64, 8, 7);
  VamanaBuildParams bp;
  V1World() {
    bp.graph_max_degree = 8;
    bp.window_size = 16;
    bp.alpha = 1.2f;
  }
};

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const char* data, size_t size) {
  std::ofstream out(path, std::ios::binary);
  out.write(data, static_cast<std::streamsize>(size));
}

class OpenRobustness : public TempPathTest {};

// --- missing / unrecognized -------------------------------------------------

TEST_F(OpenRobustness, MissingPathIsDescriptiveNotFound) {
  auto r = Open("/nonexistent/prefix");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(".graph"), std::string::npos)
      << "message should say what was tried: " << r.status().ToString();
}

TEST_F(OpenRobustness, WrongMagicFileIsRejected) {
  const std::string p = Path("wrong_magic");
  WriteFile(p, "this is not an index artifact at all", 37);
  auto r = Open(p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("not a recognized index artifact"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(OpenRobustness, DirectoryWithoutManifestIsRejected) {
  const std::string dir = DirPath("no_manifest");
  std::filesystem::create_directories(dir);
  auto r = Open(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("manifest"), std::string::npos);
}

TEST_F(OpenRobustness, BundleWithWrongVecsMagicIsRejected) {
  const std::string prefix = Path("bad_vecs");
  const std::string graph_src = kDataDir + "/v1_static_lvq.graph";
  const auto graph_bytes = ReadFile(graph_src);
  WriteFile(prefix + ".graph", graph_bytes.data(), graph_bytes.size());
  (void)Path("bad_vecs.graph");
  (void)Path("bad_vecs.vecs");
  WriteFile(prefix + ".vecs", "XXXXGARBAGE", 11);
  auto r = Open(prefix);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
}

TEST_F(OpenRobustness, ForgedHugeVecsHeaderFailsWithoutAllocating) {
  // A 'BLAF' header claiming n = 2^40, d = 2^20 passes the field bounds
  // alone; the loader must reject it against the actual file size instead
  // of attempting a 2^62-byte allocation.
  const std::string prefix = Path("forged");
  (void)Path("forged.graph");
  (void)Path("forged.vecs");
  const auto graph = ReadFile(kDataDir + "/v1_static_lvq.graph");
  WriteFile(prefix + ".graph", graph.data(), graph.size());
  struct __attribute__((packed)) {
    uint32_t magic = 0x46414C42u;  // "BLAF"
    uint32_t version = 1;
    uint64_t n = 1ull << 40;
    uint64_t d = 1ull << 20;
  } hdr;
  WriteFile(prefix + ".vecs", reinterpret_cast<const char*>(&hdr),
            sizeof(hdr));
  auto r = Open(prefix);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("file size"), std::string::npos)
      << r.status().ToString();
}

TEST_F(OpenRobustness, ForgedHugeLvqRowCountFails) {
  // Same attack on the LVQ payload: take the valid v1 vecs file and bump
  // its row count to 2^39 without adding payload.
  const std::string prefix = Path("forged_lvq");
  (void)Path("forged_lvq.graph");
  (void)Path("forged_lvq.vecs");
  const auto graph = ReadFile(kDataDir + "/v1_static_lvq.graph");
  WriteFile(prefix + ".graph", graph.data(), graph.size());
  auto vecs = ReadFile(kDataDir + "/v1_static_lvq.vecs");
  const uint64_t huge = 1ull << 39;
  std::memcpy(vecs.data() + 8, &huge, sizeof(huge));  // n field (magic+version)
  WriteFile(prefix + ".vecs", vecs.data(), vecs.size());
  auto r = Open(prefix);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("file size"), std::string::npos)
      << r.status().ToString();
}

TEST_F(OpenRobustness, ForgedLvq2ResidualWidthFails) {
  // A two-level payload whose header claims 16-bit residuals (twice the
  // real width) over a cut residual section: the residual bound must trip
  // against the file size before any residual allocation is sized.
  const V1World w;
  IndexSpec spec;
  spec.kind = IndexKind::kStaticLvq;
  spec.metric = w.data.metric;
  spec.bits1 = 4;
  spec.bits2 = 8;
  spec.graph = w.bp;
  auto built = Build(spec, w.data.base);
  ASSERT_TRUE(built.ok());
  const std::string prefix = Path("forged_lvq2");
  (void)Path("forged_lvq2.graph");
  (void)Path("forged_lvq2.vecs");
  (void)Path("forged_lvq2.meta");
  ASSERT_TRUE(built.value().Save(prefix).ok());
  auto vecs = ReadFile(prefix + ".vecs");
  const uint32_t bits2 = 16;
  std::memcpy(vecs.data() + 8, &bits2, sizeof(bits2));  // magic, version
  WriteFile(prefix + ".vecs", vecs.data(), vecs.size() - 64);
  OpenOptions opts;
  opts.use_huge_pages = false;
  auto r = Open(prefix, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("file size"), std::string::npos)
      << r.status().ToString();
}

// --- truncation -------------------------------------------------------------

// Every strict prefix of a valid artifact must fail with a Status. Loading
// byte-by-byte would be slow; probing a spread of cut points (including
// mid-header and mid-payload) covers the decode paths.
void ExpectTruncationsFail(const std::string& src, const std::string& dst,
                           const OpenOptions& opts) {
  const auto bytes = ReadFile(src);
  ASSERT_GT(bytes.size(), 16u);
  for (size_t cut : {size_t{0}, size_t{2}, size_t{5}, size_t{11},
                     size_t{17}, bytes.size() / 4, bytes.size() / 2,
                     bytes.size() - 5, bytes.size() - 1}) {
    if (cut >= bytes.size()) continue;
    WriteFile(dst, bytes.data(), cut);
    auto r = Open(dst, opts);
    EXPECT_FALSE(r.ok()) << src << " truncated to " << cut
                         << " bytes unexpectedly loaded";
  }
}

TEST_F(OpenRobustness, TruncatedDynamicFileFails) {
  ExpectTruncationsFail(kDataDir + "/v1_dynamic_lvq.bldy",
                        Path("trunc_dyn"), {});
}

TEST_F(OpenRobustness, TruncatedGraphFails) {
  const std::string prefix = Path("trunc_static");
  (void)Path("trunc_static.graph");
  (void)Path("trunc_static.vecs");
  const auto vecs = ReadFile(kDataDir + "/v1_static_lvq.vecs");
  WriteFile(prefix + ".vecs", vecs.data(), vecs.size());
  ExpectTruncationsFail(kDataDir + "/v1_static_lvq.graph", prefix + ".graph",
                        {});
}

TEST_F(OpenRobustness, TruncatedVecsFails) {
  const std::string prefix = Path("trunc_vecs");
  (void)Path("trunc_vecs.graph");
  (void)Path("trunc_vecs.vecs");
  const auto graph = ReadFile(kDataDir + "/v1_static_lvq.graph");
  WriteFile(prefix + ".graph", graph.data(), graph.size());
  const auto vecs = ReadFile(kDataDir + "/v1_static_lvq.vecs");
  for (size_t cut : {size_t{2}, size_t{9}, vecs.size() / 2,
                     vecs.size() - 1}) {
    WriteFile(prefix + ".vecs", vecs.data(), cut);
    auto r = Open(prefix);
    EXPECT_FALSE(r.ok()) << "vecs truncated to " << cut;
  }
}

TEST_F(OpenRobustness, TruncatedManifestFails) {
  const std::string dir = DirPath("trunc_manifest");
  std::filesystem::create_directories(dir);
  const auto manifest = ReadFile(kDataDir + "/v1_sharded/manifest");
  for (size_t cut : {size_t{2}, size_t{9}, size_t{21}, manifest.size() / 2,
                     manifest.size() - 1}) {
    WriteFile(dir + "/manifest", manifest.data(), cut);
    auto r = Open(dir);
    EXPECT_FALSE(r.ok()) << "manifest truncated to " << cut;
  }
}

TEST_F(OpenRobustness, ShardedWithMissingShardFileFails) {
  const std::string dir = DirPath("missing_shard");
  std::filesystem::create_directories(dir);
  for (const char* name : {"manifest", "shard_0000.graph", "shard_0000.vecs",
                           "shard_0001.graph", "shard_0001.vecs"}) {
    const auto bytes = ReadFile(kDataDir + "/v1_sharded/" + name);
    WriteFile(dir + "/" + name, bytes.data(), bytes.size());
  }
  std::remove((dir + "/shard_0001.graph").c_str());
  auto r = Open(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("shard_0001"), std::string::npos)
      << r.status().ToString();
}

// A truncated two-level shard reports its own (residual-section) error:
// the shard loader picks the encoding once instead of retrying the bytes
// as a one-level payload.
TEST_F(OpenRobustness, ShardedWithTruncatedTwoLevelShardFails) {
  const V1World w;
  IndexSpec spec;
  spec.kind = IndexKind::kSharded;
  spec.metric = w.data.metric;
  spec.bits1 = 4;
  spec.bits2 = 8;
  spec.graph = w.bp;
  spec.partition.num_shards = 2;
  auto built = Build(spec, w.data.base);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string dir = DirPath("trunc_shard");
  ASSERT_TRUE(built.value().Save(dir).ok());
  const std::string shard = dir + "/shard_0001.vecs";
  const auto vecs = ReadFile(shard);
  WriteFile(shard, vecs.data(), vecs.size() - 5);
  OpenOptions opts;
  opts.use_huge_pages = false;
  auto r = Open(dir, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("LVQ2 residual"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(r.status().message().find("bad LVQ magic"), std::string::npos)
      << r.status().ToString();
}

// The manifest's LVQ bits must lie in [1, 16] and agree with every
// shard's own encoding. A forged pair used to open, report the manifest's
// numbers in spec() (77 fails IndexSpec::Validate) and be saved back.
TEST_F(OpenRobustness, ShardedManifestBitsMustMatchShards) {
  const V1World w;
  IndexSpec spec;
  spec.kind = IndexKind::kSharded;
  spec.metric = w.data.metric;
  spec.graph = w.bp;
  spec.partition.num_shards = 2;
  auto built = Build(spec, w.data.base);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string dir = DirPath("forged_bits");
  ASSERT_TRUE(built.value().Save(dir).ok());
  const auto manifest = ReadFile(dir + "/manifest");
  for (const auto& [bits1, bits2] :
       {std::pair<uint32_t, uint32_t>{77, 3}, {4, 0}}) {
    auto forged = manifest;
    // bits1 and bits2 follow the magic, the version, S, n and d.
    std::memcpy(forged.data() + 32, &bits1, sizeof(bits1));
    std::memcpy(forged.data() + 36, &bits2, sizeof(bits2));
    WriteFile(dir + "/manifest", forged.data(), forged.size());
    auto r = Open(dir);
    EXPECT_FALSE(r.ok()) << bits1 << "/" << bits2 << " over LVQ-8 shards";
    if (r.ok()) continue;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError)
        << r.status().ToString();
  }
  WriteFile(dir + "/manifest", manifest.data(), manifest.size());
  auto intact = Open(dir);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  EXPECT_EQ(intact.value().spec().bits1, 8);
  EXPECT_EQ(intact.value().spec().bits2, 0);
}

// A sidecar that is present must parse. One with a wrong magic used to be
// skipped, so the index opened without metadata and lost kCapFilter, while
// a corrupt body already failed.
TEST_F(OpenRobustness, SidecarWithWrongMagicFailsOpen) {
  const V1World w;
  auto md = std::make_shared<const MetadataStore>(
      MakeSyntheticMetadata(w.data.base.rows(), {ColumnType::kF64}, 5));
  struct Case {
    IndexKind kind;
    std::string path;
    std::string sidecar;
  };
  const std::string stat = Path("bad_meta_static");
  (void)Path("bad_meta_static.graph");
  (void)Path("bad_meta_static.vecs");
  (void)Path("bad_meta_static.meta");
  const std::string dyn = Path("bad_meta_dynamic");
  (void)Path("bad_meta_dynamic.meta");
  const std::string sharded = DirPath("bad_meta_sharded");
  for (const Case& c :
       {Case{IndexKind::kStaticLvq, stat, stat + ".meta"},
        Case{IndexKind::kSharded, sharded, sharded + "/metadata.meta"},
        Case{IndexKind::kDynamicLvq, dyn, dyn + ".meta"}}) {
    SCOPED_TRACE(KindName(c.kind));
    IndexSpec spec;
    spec.kind = c.kind;
    spec.metric = w.data.metric;
    spec.graph = w.bp;
    spec.partition.num_shards = 2;
    auto built = Build(spec, w.data.base);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE(built.value().AttachMetadata(md).ok());
    ASSERT_TRUE(built.value().Save(c.path).ok());
    auto intact = Open(c.path);
    ASSERT_TRUE(intact.ok()) << intact.status().ToString();
    EXPECT_TRUE(intact.value().has(kCapFilter));

    auto bytes = ReadFile(c.sidecar);
    ASSERT_GE(bytes.size(), 4u);
    bytes[0] ^= 0x5A;
    WriteFile(c.sidecar, bytes.data(), bytes.size());
    for (LoadMode mode : {LoadMode::kLoad, LoadMode::kMap}) {
      OpenOptions opts;
      opts.load_mode = mode;
      auto r = Open(c.path, opts);
      EXPECT_FALSE(r.ok()) << "a corrupt sidecar was skipped";
      if (r.ok()) continue;
      EXPECT_EQ(r.status().code(), StatusCode::kIOError)
          << r.status().ToString();
      EXPECT_NE(r.status().message().find(c.sidecar), std::string::npos)
          << r.status().ToString();
    }
  }
}

// --- version-1 back-compat fixtures ----------------------------------------

TEST(OpenBackCompat, V1StaticBundleLoadsWithFallbacks) {
  const V1World w;
  OpenOptions opts;
  opts.fallback_metric = w.data.metric;
  opts.fallback_graph = w.bp;
  opts.use_huge_pages = false;
  auto idx = Open(kDataDir + "/v1_static_lvq", opts);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_FALSE(idx.value().self_described());  // v1: config came from opts
  EXPECT_EQ(idx.value().kind(), IndexKind::kStaticLvq);
  EXPECT_EQ(idx.value().size(), 64u);
  EXPECT_EQ(idx.value().dim(), w.data.base.cols());
  EXPECT_EQ(idx.value().spec().bits1, 8);
}

TEST(OpenBackCompat, V1ShardedDirLoadsWithFallbacks) {
  const V1World w;
  OpenOptions opts;
  opts.fallback_metric = w.data.metric;
  opts.fallback_graph = w.bp;
  opts.use_huge_pages = false;
  auto idx = Open(kDataDir + "/v1_sharded", opts);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_FALSE(idx.value().self_described());
  EXPECT_EQ(idx.value().kind(), IndexKind::kSharded);
  EXPECT_EQ(idx.value().size(), 64u);
  EXPECT_EQ(idx.value().spec().partition.num_shards, 2u);
  SearchOptions p;
  p.window = 16;
  const auto ids = testutil::SearchIds(idx.value().AsSearchIndex(),
                                       w.data.queries, 5, p);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_LT(ids.data()[i], 64u);
  }
}

TEST(OpenBackCompat, V1DynamicFilesLoadWithFallbacks) {
  const V1World w;
  OpenOptions opts;
  opts.fallback_metric = w.data.metric;
  opts.fallback_graph = w.bp;
  for (const auto& [file, kind, live] :
       {std::tuple{"/v1_dynamic_f32.bldy", IndexKind::kDynamicF32,
                   size_t{61}},  // 64 inserted, 3 deleted
        std::tuple{"/v1_dynamic_lvq.bldy", IndexKind::kDynamicLvq,
                   size_t{63}}}) {
    auto idx = Open(kDataDir + file, opts);
    ASSERT_TRUE(idx.ok()) << file << ": " << idx.status().ToString();
    EXPECT_FALSE(idx.value().self_described()) << file;
    EXPECT_EQ(idx.value().kind(), kind) << file;
    EXPECT_EQ(idx.value().size(), live) << file;
    EXPECT_TRUE(idx.value().has(kCapInsert | kCapDelete | kCapConsolidate));
    // Still mutable after the reload.
    auto id = idx.value().Insert(w.data.base.row(0));
    ASSERT_TRUE(id.ok()) << file;
    EXPECT_EQ(idx.value().size(), live + 1) << file;
  }
}

/// One SearchBatchEx call as (id, distance bits) pairs, flattened.
std::vector<uint32_t> SearchBits(const Index& idx, MatrixViewF queries,
                                 size_t k, const SearchOptions& p) {
  std::vector<uint32_t> ids(queries.rows * k);
  std::vector<float> dists(queries.rows * k);
  idx.SearchBatchEx(queries, k, p, ids.data(), dists.data(), nullptr);
  std::vector<uint32_t> out;
  for (size_t i = 0; i < ids.size(); ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, &dists[i], sizeof(bits));
    out.push_back(ids[i]);
    out.push_back(bits);
  }
  return out;
}

/// FNV-1a over 32-bit words.
void HashWords(const uint32_t* v, size_t n, uint64_t* h) {
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 4; ++b) {
      *h ^= (v[i] >> (8 * b)) & 0xFFu;
      *h *= 1099511628211ull;
    }
  }
}

/// FNV-1a over SearchBits' bytes.
uint64_t SearchChecksum(const Index& idx, MatrixViewF queries, size_t k,
                        const SearchOptions& p) {
  uint64_t h = 1469598103934665603ull;
  const std::vector<uint32_t> bits = SearchBits(idx, queries, k, p);
  HashWords(bits.data(), bits.size(), &h);
  return h;
}

// What every tests/data fixture serves — ids and distance bits — pinned to
// values recorded with the loaders of the previous release, so a reader
// change that moves one bit of a legacy artifact fails here. Distance bits
// depend on the SIMD kernel's summation order, hence one pin per backend.
TEST(OpenBackCompat, FixtureSearchesArePinned) {
  const V1World w;
  struct Pin {
    const char* path;
    LoadMode mode;
    uint64_t scalar, avx2, avx512;
  };
  const std::string backend = simd::BackendName();
  for (const Pin& pin : {
           Pin{"/v1_static_lvq", LoadMode::kLoad, 0xbf5c41a12c46f1a1,
               0x00d16cfd9f869a67, 0xdad01d8a0924258f},
           Pin{"/v1_static_lvq", LoadMode::kMap, 0xbf5c41a12c46f1a1,
               0x00d16cfd9f869a67, 0xdad01d8a0924258f},
           Pin{"/v1_sharded", LoadMode::kLoad, 0xe47e12e3ec2be6fa,
               0xcb65c6456de4cf44, 0xb764e6e115e44e65},
           Pin{"/v1_dynamic_f32.bldy", LoadMode::kLoad, 0x3d3334266e2b2ec6,
               0xe545ecf9c9e857a1, 0x7aa7876919850eca},
           Pin{"/v1_dynamic_lvq.bldy", LoadMode::kLoad, 0xdd099eacc6db584d,
               0xed35b0fc5e68dacc, 0x98c86b958be9908a},
       }) {
    OpenOptions opts;
    opts.fallback_metric = w.data.metric;
    opts.fallback_graph = w.bp;
    opts.use_huge_pages = false;
    opts.load_mode = pin.mode;
    auto idx = Open(kDataDir + pin.path, opts);
    ASSERT_TRUE(idx.ok()) << pin.path << ": " << idx.status().ToString();
    SearchOptions p;
    p.window = 16;
    const uint64_t got = SearchChecksum(idx.value(), w.data.queries, 5, p);
    const uint64_t want = backend == "avx512" ? pin.avx512
                          : backend == "avx2" ? pin.avx2
                                              : pin.scalar;
    EXPECT_EQ(got, want) << pin.path << " (" << LoadModeName(pin.mode)
                         << ", " << backend << "): 0x" << std::hex << got;
  }
}

/// FNV-1a over a byte range.
uint64_t Fnv1a(const char* p, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over the vector bytes of a saved artifact: the whole `.vecs`
/// file of a static bundle, or the vector section of a BLDY file (the
/// float32 rows, or the LVQ widths, mean, level-1 blobs and residual codes
/// that follow the 56-byte version-2 header).
uint64_t VectorBytesHash(const std::string& path, const IndexSpec& spec) {
  const std::vector<char> file = ReadFile(path);
  if (!IsDynamicKind(spec.kind)) {
    return Fnv1a(file.data(), file.size());
  }
  constexpr size_t kHeader = 56;
  uint64_t d = 0, n = 0;
  std::memcpy(&d, file.data() + 12, sizeof(d));
  std::memcpy(&n, file.data() + 20, sizeof(n));
  size_t bytes = n * d * sizeof(float);
  if (spec.kind == IndexKind::kDynamicLvq) {
    const size_t stride =
        LvqPaddedStride(4 + PackedBytes(d, spec.bits1), /*padding=*/32);
    const size_t residual = spec.bits2 > 0 ? PackedBytes(d, spec.bits2) : 0;
    bytes = 16 + d * sizeof(float) + n * (stride + residual);
  }
  EXPECT_LE(kHeader + bytes, file.size()) << path;
  return Fnv1a(file.data() + kHeader, std::min(bytes, file.size() - kHeader));
}

class BuildPin : public TempPathTest {};

/// The seeded delete -> Consolidate -> re-insert sequence the dynamic pins
/// run: 16 vectors go, the graph is repaired, and they come back in
/// reverse order into the recycled slots.
void Churn(const V1World& w, Index* idx) {
  Rng rng(0xB1D);
  std::vector<uint32_t> gone;
  while (gone.size() < 16) {
    const auto id = static_cast<uint32_t>(rng.Bounded(w.data.base.rows()));
    if (std::find(gone.begin(), gone.end(), id) != gone.end()) continue;
    ASSERT_TRUE(idx->Delete(id).ok());
    gone.push_back(id);
  }
  ASSERT_TRUE(idx->Consolidate().ok());
  for (auto it = gone.rbegin(); it != gone.rend(); ++it) {
    ASSERT_TRUE(idx->Insert(w.data.base.row(*it)).ok());
  }
}

// What Build encodes and serves, pinned for every float32 and LVQ flavor.
// The dynamic flavors also run a seeded delete -> Consolidate -> re-insert
// sequence, so recycled slots are re-encoded in place. The vector bytes do
// not depend on the SIMD backend; the search checksum does (summation
// order), hence one search pin per backend. The equivalence suites compare
// loops over one storage; this pin is the one that holds a storage or
// encoder rewrite to the bytes and results of the code it replaces.
TEST_F(BuildPin, EncodedBytesAndSearchesArePinned) {
  const V1World w;
  struct Pin {
    IndexKind kind;
    int bits1, bits2;
    const char* name;
    uint64_t bytes, scalar, avx2, avx512;
  };
  const std::string backend = simd::BackendName();
  for (const Pin& pin : {
           Pin{IndexKind::kStaticF32, 8, 0, "static_f32", 0x458f2c96acc0a82e,
               0x223ff528b9b94ff2, 0x1aa27a0426eea446, 0xf4dd589a29a1dbbb},
           Pin{IndexKind::kStaticLvq, 8, 0, "static_lvq8", 0xe339f32814385473,
               0xbf5c41a12c46f1a1, 0x00d16cfd9f869a67, 0xdad01d8a0924258f},
           Pin{IndexKind::kStaticLvq, 4, 8, "static_lvq4x8", 0x42a10afcf5773178,
               0x92fadb7d259e3f6a, 0xa983cf6faf081430, 0x0c150481b99da321},
           Pin{IndexKind::kDynamicF32, 8, 0, "dynamic_f32", 0x66c816892a3df060,
               0xca4bc903b0a25dbb, 0xdb3887ae836fe173, 0x645e57f131000738},
           Pin{IndexKind::kDynamicLvq, 8, 0, "dynamic_lvq8", 0xdcad7848158cc214,
               0xae88785b19309997, 0x07d3e3253640f2f4, 0xc6eb3a2da62f6fa9},
           Pin{IndexKind::kDynamicLvq, 4, 8, "dynamic_lvq4x8",
               0x384ec8790fb28921, 0xaf9182e377f1df13, 0xf02ffc820f67472d,
               0xb78b802c390787b3},
       }) {
    IndexSpec spec;
    spec.kind = pin.kind;
    spec.metric = w.data.metric;
    spec.bits1 = pin.bits1;
    spec.bits2 = pin.bits2;
    spec.graph = w.bp;
    auto built = Build(spec, w.data.base);
    ASSERT_TRUE(built.ok()) << pin.name << ": " << built.status().ToString();
    Index& idx = built.value();
    std::string saved = Path(std::string("pin_") + pin.name);
    if (IsDynamicKind(pin.kind)) {
      ASSERT_NO_FATAL_FAILURE(Churn(w, &idx)) << pin.name;
    } else {
      Path(std::string("pin_") + pin.name + ".graph");
      Path(std::string("pin_") + pin.name + ".vecs");
    }
    ASSERT_TRUE(idx.Save(saved).ok()) << pin.name;
    if (!IsDynamicKind(pin.kind)) saved += ".vecs";
    const uint64_t bytes = VectorBytesHash(saved, spec);
    EXPECT_EQ(bytes, pin.bytes) << pin.name << ": 0x" << std::hex << bytes;
    SearchOptions p;
    p.window = 16;
    const uint64_t got = SearchChecksum(idx, w.data.queries, 5, p);
    const uint64_t want = backend == "avx512" ? pin.avx512
                          : backend == "avx2" ? pin.avx2
                                              : pin.scalar;
    EXPECT_EQ(got, want) << pin.name << " (" << backend << "): 0x" << std::hex
                         << got;
  }
}

// What every search path serves, pinned per SIMD backend: ids, distance
// bits and BatchStats from Index::SearchBatchEx for every facade kind
// (the dynamic ones after the Churn sequence), unfiltered and filtered
// under both strategies, with no pool and across a 4-thread pool. The
// baselines pin ids alone. A rewrite of the batch or searcher plumbing must
// leave every one of these unchanged.
//
// The dynamic LVQ-4x8 word was re-recorded when the dynamic re-rank stopped
// counting its FullDistance gathers as distance computations (both indexes
// now count primary distances only), which moves its stats and nothing
// else. Its ids and distance bits alone stay pinned at their earlier
// values in `kResultsOnly`.
TEST_F(BuildPin, SearchResultsAndStatsArePinned) {
  const V1World w;
  auto md = std::make_shared<const MetadataStore>(
      MakeSyntheticMetadata(w.data.base.rows(), {ColumnType::kF64}, 3));
  auto pred = Predicate::Parse("num0<0.5");
  ASSERT_TRUE(pred.ok());
  const auto filter = std::make_shared<const Predicate>(pred.value());
  ThreadPool pool(4);
  constexpr size_t kK = 5;

  struct Pin {
    const char* name;  ///< registry name
    IndexKind kind;
    int bits1, bits2;
    uint64_t scalar, avx2, avx512;
  };
  const Pin kResultsOnly{"dynamic-lvq", IndexKind::kDynamicLvq, 4, 8,
                         0x87bdbc0a388d9c23, 0xbbc00304d86adf6b,
                         0xa1aa2276e68a3b0b};
  const std::string backend = simd::BackendName();
  auto for_backend = [&](const Pin& pin) {
    return backend == "avx512" ? pin.avx512
           : backend == "avx2" ? pin.avx2
                               : pin.scalar;
  };
  for (const Pin& pin : {
           Pin{"static-f32", IndexKind::kStaticF32, 8, 0, 0x29bb97deea83478b,
               0xf6ed4369f6740e1b, 0x14371ba06128b93b},
           Pin{"static-f16", IndexKind::kStaticF16, 8, 0, 0xe1ce2e4519d90f03,
               0x71cd1a1900695d4b, 0x89ccc08c3c0c5e33},
           Pin{"static-lvq", IndexKind::kStaticLvq, 8, 0, 0xa5957a37ee06a2df,
               0x41ca6eeeb32f0783, 0x6545cc761286a5e3},
           Pin{"static-lvq", IndexKind::kStaticLvq, 4, 8, 0x8f5508101ecb538f,
               0x35741887682cc123, 0x81cbc2f9e85dc4df},
           Pin{"static-leanvec", IndexKind::kStaticLeanVec, 8, 0,
               0xd6c1224c4586fdd7, 0x6068671e3205b63b, 0xaf8628e271212617},
           Pin{"static-leanvec-lvq", IndexKind::kStaticLeanVecLvq, 8, 0,
               0x51f83f0616c3098b, 0x95d733bcc0b143c7, 0xef189ba75bc1bc73},
           Pin{"sharded", IndexKind::kSharded, 8, 0, 0x865bd1fdc9f8886b,
               0x170105ab08c72297, 0x3e075ac12dec20db},
           Pin{"dynamic-f32", IndexKind::kDynamicF32, 8, 0, 0xcfb17e1f6c8ba8db,
               0x8b5d878947ff98cb, 0xe3dc661d3eff41e3},
           Pin{"dynamic-lvq", IndexKind::kDynamicLvq, 8, 0, 0x5f2090fafc990f87,
               0xaf183f5c432acde3, 0x973fd242318d16b3},
           Pin{"dynamic-lvq", IndexKind::kDynamicLvq, 4, 8, 0x675954c6b7db3933,
               0xbb88058d4bf9a71f, 0xb26ec6d48d947fa3},
           Pin{"hnsw", IndexKind::kStaticF32, 8, 0, 0x875ad6207f760743,
               0x875ad6207f760743, 0x875ad6207f760743},
           Pin{"ivf-pq", IndexKind::kStaticF32, 8, 0, 0xb2239773fe27b103,
               0xb2239773fe27b103, 0xb2239773fe27b103},
           Pin{"scann", IndexKind::kStaticF32, 8, 0, 0x64d13dc9f145b7a3,
               0x64d13dc9f145b7a3, 0x64d13dc9f145b7a3},
       }) {
    const std::string label = std::string(pin.name) + "/" +
                              std::to_string(pin.bits1) + "x" +
                              std::to_string(pin.bits2);
    IndexSpec spec;
    spec.kind = pin.kind;
    spec.metric = w.data.metric;
    spec.bits1 = pin.bits1;
    spec.bits2 = pin.bits2;
    spec.graph = w.bp;
    spec.partition.num_shards = 2;
    auto built = BuildNamed(pin.name, spec, w.data.base);
    ASSERT_TRUE(built.ok()) << label << ": " << built.status().ToString();
    Index& idx = built.value();
    const bool baseline = !idx.has(kCapSave);
    if (IsDynamicKind(pin.kind)) {
      ASSERT_NO_FATAL_FAILURE(Churn(w, &idx)) << label;
    }
    if (!baseline) {
      ASSERT_TRUE(idx.AttachMetadata(md).ok()) << label;
    }

    uint64_t h = 1469598103934665603ull;
    uint64_t results = h;  ///< ids and distance bits, no stats
    for (FilterStrategy strategy :
         {FilterStrategy::kAuto, FilterStrategy::kPostFilter,
          FilterStrategy::kInSearch}) {
      if (baseline && strategy != FilterStrategy::kAuto) continue;
      SearchOptions p;
      p.window = 16;
      if (strategy != FilterStrategy::kAuto) {
        p.filter = filter;
        p.filter_strategy = strategy;
      }
      for (ThreadPool* tp : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const size_t nq = w.data.queries.rows();
        std::vector<uint32_t> ids(nq * kK);
        std::vector<float> dists(nq * kK);
        BatchStats stats;
        idx.SearchBatchEx(w.data.queries, kK, p, ids.data(), dists.data(),
                          &stats, tp);
        // Every query has neighbors (the filter passes about half the
        // rows), so no pin can record a fail-closed, all-padded answer.
        for (size_t q = 0; q < nq; ++q) {
          EXPECT_NE(ids[q * kK], kInvalidId) << label;
        }
        HashWords(ids.data(), ids.size(), &h);
        HashWords(ids.data(), ids.size(), &results);
        if (baseline) continue;
        std::vector<uint32_t> dist_bits(dists.size());
        std::memcpy(dist_bits.data(), dists.data(),
                    dists.size() * sizeof(float));
        HashWords(dist_bits.data(), dist_bits.size(), &h);
        HashWords(dist_bits.data(), dist_bits.size(), &results);
        const uint32_t counts[] = {
            static_cast<uint32_t>(stats.distance_computations),
            static_cast<uint32_t>(stats.hops)};
        HashWords(counts, 2, &h);
      }
    }
    EXPECT_EQ(h, for_backend(pin))
        << label << " (" << backend << "): 0x" << std::hex << h;
    if (std::string(pin.name) == kResultsOnly.name &&
        pin.bits1 == kResultsOnly.bits1 && pin.bits2 == kResultsOnly.bits2) {
      EXPECT_EQ(results, for_backend(kResultsOnly))
          << label << " ids and distances (" << backend << "): 0x"
          << std::hex << results;
    }
  }
}

// --- new-format artifacts are self-describing -------------------------------

class OpenSelfDescribing : public TempPathTest {};

TEST_F(OpenSelfDescribing, WrongFallbacksAreIgnoredForV2) {
  const V1World w;
  IndexSpec spec;
  spec.kind = IndexKind::kStaticLvq;
  spec.metric = w.data.metric;
  spec.graph = w.bp;
  auto built = Build(spec, w.data.base);
  ASSERT_TRUE(built.ok());
  const std::string prefix = Path("v2_static");
  (void)Path("v2_static.graph");
  (void)Path("v2_static.vecs");
  ASSERT_TRUE(built.value().Save(prefix).ok());

  OpenOptions wrong;
  wrong.fallback_metric = Metric::kInnerProduct;  // must be overridden
  wrong.fallback_graph.window_size = 999;
  wrong.use_huge_pages = false;
  auto back = Open(prefix, wrong);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().self_described());
  EXPECT_EQ(back.value().metric(), Metric::kL2);
  EXPECT_EQ(back.value().spec().graph.window_size, w.bp.window_size);
}

// --- map mode (out-of-core serving, DESIGN.md D12) --------------------------

class OpenMapMode : public TempPathTest {
 protected:
  /// Registers both bundle files and returns the prefix.
  std::string BundlePrefix(const std::string& name) {
    const std::string graph = Path(name + ".graph");
    Path(name + ".vecs");
    return graph.substr(0, graph.size() - sizeof(".graph") + 1);
  }
};

// The core map-mode contract: for every static flavor, the built index, a
// heap-loaded reopen and a mapped reopen of its artifact serve identical
// ids and distance bits, and the spec records the mode actually in effect.
TEST_F(OpenMapMode, MappedSearchMatchesLoadedForEveryStaticFlavor) {
  const V1World w;
  struct Flavor {
    IndexKind kind;
    int bits1, bits2;
    const char* name;
  };
  for (const Flavor& fl :
       {Flavor{IndexKind::kStaticF32, 8, 0, "f32"},
        Flavor{IndexKind::kStaticF16, 8, 0, "f16"},
        Flavor{IndexKind::kStaticLvq, 8, 0, "lvq8"},
        Flavor{IndexKind::kStaticLvq, 4, 8, "lvq4x8"},
        Flavor{IndexKind::kStaticLeanVec, 8, 0, "leanvec_f32"},
        Flavor{IndexKind::kStaticLeanVecLvq, 8, 0, "leanvec_lvq"}}) {
    IndexSpec spec;
    spec.kind = fl.kind;
    spec.metric = w.data.metric;
    spec.bits1 = fl.bits1;
    spec.bits2 = fl.bits2;
    spec.graph = w.bp;
    auto built = Build(spec, w.data.base);
    ASSERT_TRUE(built.ok()) << fl.name << ": " << built.status().ToString();
    const std::string prefix = BundlePrefix(std::string("map_") + fl.name);
    ASSERT_TRUE(built.value().Save(prefix).ok()) << fl.name;

    OpenOptions heap;
    heap.use_huge_pages = false;
    auto loaded = Open(prefix, heap);
    ASSERT_TRUE(loaded.ok()) << fl.name << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value().spec().load_mode, LoadMode::kLoad) << fl.name;

    OpenOptions map = heap;
    map.load_mode = LoadMode::kMap;
    auto mapped = Open(prefix, map);
    ASSERT_TRUE(mapped.ok()) << fl.name << ": " << mapped.status().ToString();
    EXPECT_EQ(mapped.value().spec().load_mode, LoadMode::kMap)
        << fl.name << ": a fresh Save() must be v3 and actually map";
    EXPECT_TRUE(mapped.value().self_described()) << fl.name;
    EXPECT_EQ(mapped.value().size(), w.data.base.rows()) << fl.name;

    SearchOptions p;
    p.window = 16;
    const auto want = SearchBits(built.value(), w.data.queries, 5, p);
    EXPECT_EQ(SearchBits(loaded.value(), w.data.queries, 5, p), want)
        << "load vs built: " << fl.name;
    EXPECT_EQ(SearchBits(mapped.value(), w.data.queries, 5, p), want)
        << "map vs built: " << fl.name;
  }

  // A v1 artifact has no aligned sections: kMap falls back to a copy.
  OpenOptions map;
  map.fallback_metric = w.data.metric;
  map.fallback_graph = w.bp;
  map.use_huge_pages = false;
  map.load_mode = LoadMode::kMap;
  auto legacy = Open(kDataDir + "/v1_static_lvq", map);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy.value().spec().load_mode, LoadMode::kLoad);
}

// Every strict prefix of a v3 bundle must fail cleanly under a map-mode
// open too — the mapped parsers bounds-check instead of faulting.
TEST_F(OpenMapMode, TruncationSweepRejectsInMapMode) {
  const V1World w;
  IndexSpec spec;
  spec.kind = IndexKind::kStaticLvq;
  spec.metric = w.data.metric;
  spec.graph = w.bp;
  auto built = Build(spec, w.data.base);
  ASSERT_TRUE(built.ok());
  const std::string src = BundlePrefix("trunc_src");
  ASSERT_TRUE(built.value().Save(src).ok());

  const std::string dst = BundlePrefix("trunc_map");
  OpenOptions map;
  map.use_huge_pages = false;
  map.load_mode = LoadMode::kMap;

  const auto vecs = ReadFile(src + ".vecs");
  WriteFile(dst + ".vecs", vecs.data(), vecs.size());
  const auto graph = ReadFile(src + ".graph");
  for (size_t cut : {size_t{0}, size_t{2}, size_t{11}, size_t{17},
                     graph.size() / 4, graph.size() / 2, graph.size() - 5,
                     graph.size() - 1}) {
    WriteFile(dst + ".graph", graph.data(), cut);
    auto r = Open(dst, map);
    EXPECT_FALSE(r.ok()) << "graph truncated to " << cut
                         << " bytes opened in map mode";
  }
  WriteFile(dst + ".graph", graph.data(), graph.size());
  for (size_t cut : {size_t{2}, size_t{9}, vecs.size() / 2,
                     vecs.size() - 1}) {
    WriteFile(dst + ".vecs", vecs.data(), cut);
    auto r = Open(dst, map);
    EXPECT_FALSE(r.ok()) << "vecs truncated to " << cut
                         << " bytes opened in map mode";
  }
}

// Pre-v3 artifacts cannot be mapped; requesting kMap on one must silently
// fall back to the heap loaders and serve the same results as before.
TEST(OpenMapModeBackCompat, V1BundleFallsBackToHeapLoad) {
  const V1World w;
  OpenOptions opts;
  opts.fallback_metric = w.data.metric;
  opts.fallback_graph = w.bp;
  opts.use_huge_pages = false;
  opts.load_mode = LoadMode::kMap;
  auto idx = Open(kDataDir + "/v1_static_lvq", opts);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_EQ(idx.value().spec().load_mode, LoadMode::kLoad)
      << "a v1 artifact has no aligned sections to map";
  EXPECT_EQ(idx.value().size(), 64u);
}

// Sharded and dynamic flavors are heap-only; the map hint is ignored.
TEST(OpenMapModeBackCompat, NonStaticFlavorsIgnoreMapHint) {
  const V1World w;
  OpenOptions opts;
  opts.fallback_metric = w.data.metric;
  opts.fallback_graph = w.bp;
  opts.use_huge_pages = false;
  opts.load_mode = LoadMode::kMap;
  for (const char* path : {"/v1_sharded", "/v1_dynamic_lvq.bldy"}) {
    auto idx = Open(kDataDir + path, opts);
    ASSERT_TRUE(idx.ok()) << path << ": " << idx.status().ToString();
    EXPECT_EQ(idx.value().spec().load_mode, LoadMode::kLoad) << path;
  }
}

}  // namespace
}  // namespace blink
