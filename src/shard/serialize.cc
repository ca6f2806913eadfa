#include "shard/serialize.h"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "graph/serialize.h"
#include "util/binio.h"
#include "util/mmap_file.h"

namespace blink {

namespace {

using binio::WriteAll;
using binio::WritePod;

constexpr uint32_t kManifestMagic = 0x48534C42u;  // "BLSH"
constexpr uint32_t kManifestVersion = 1;
// Version 2 inserts the IndexMeta block (metric + graph build params)
// between the fixed header fields and the centroid payload.
constexpr uint32_t kManifestVersionMeta = 2;

std::string ShardPrefix(const std::string& dir, size_t s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/shard_%04zu", s);
  return dir + buf;
}

std::string ManifestPath(const std::string& dir) { return dir + "/manifest"; }

}  // namespace

bool IsShardedIndexDir(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(ManifestPath(path), ec);
}

Status SaveShardedIndex(const std::string& dir, const ShardedIndex& index) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create " + dir + ": " + ec.message());
  }
  const Partition& part = index.partition();
  const std::string path = ManifestPath(dir);
  // Atomic like every other artifact: IsShardedIndexDir() keys on the
  // manifest's existence, so a torn manifest would make the whole
  // directory look like a valid sharded index.
  binio::AtomicFile f(path);
  if (!f.ok()) return Status::IOError("cannot open " + path + " for writing");

  const uint64_t S = part.num_shards();
  const uint64_t n = part.total_size();
  const uint64_t d = index.dim();
  const uint32_t bits1 = static_cast<uint32_t>(index.bits1());
  const uint32_t bits2 = static_cast<uint32_t>(index.bits2());
  if (!WritePod(f.get(), kManifestMagic) ||
      !WritePod(f.get(), kManifestVersionMeta) || !WritePod(f.get(), S) ||
      !WritePod(f.get(), n) || !WritePod(f.get(), d) ||
      !WritePod(f.get(), bits1) || !WritePod(f.get(), bits2)) {
    return Status::IOError(path + ": manifest header write failed");
  }
  const IndexMeta meta{index.metric(), index.build_params()};
  BLINK_RETURN_NOT_OK(detail::WriteIndexMeta(f.get(), meta, path));
  if (!WriteAll(f.get(), part.centroids.data(),
                part.centroids.size() * sizeof(float))) {
    return Status::IOError(path + ": manifest centroid write failed");
  }
  for (uint64_t s = 0; s < S; ++s) {
    const auto& members = part.shard_to_global[s];
    const uint64_t m = members.size();
    if (!WritePod(f.get(), m) ||
        !WriteAll(f.get(), members.data(), m * sizeof(uint32_t))) {
      return Status::IOError(path + ": manifest shard list write failed");
    }
  }
  // Shards are written before the manifest commits: a crash anywhere in
  // the sequence leaves either no manifest (the directory is not a
  // sharded index yet) or a complete one whose shards already exist.
  for (uint64_t s = 0; s < S; ++s) {
    if (index.shard(s) == nullptr) continue;
    BLINK_RETURN_NOT_OK(SaveIndexBundle(ShardPrefix(dir, s), *index.shard(s)));
  }
  return f.Commit();
}

Result<std::unique_ptr<ShardedIndex>> LoadShardedIndex(
    const std::string& dir, Metric metric, const VamanaBuildParams& bp,
    bool use_huge_pages, bool* self_described) {
  if (self_described != nullptr) *self_described = false;
  const std::string path = ManifestPath(dir);
  Result<MmapFile> map = MmapFile::Map(path);
  if (!map.ok()) return map.status();
  binio::ByteReader r(map.value().data(), map.value().size());
  uint32_t magic = 0, version = 0, bits1 = 0, bits2 = 0;
  uint64_t S = 0, n = 0, d = 0;
  if (!r.Read(&magic) || magic != kManifestMagic) {
    return Status::IOError(path + ": bad manifest magic");
  }
  if (!r.Read(&version) ||
      (version != kManifestVersion && version != kManifestVersionMeta)) {
    return Status::IOError(path + ": unsupported manifest version");
  }
  if (!r.Read(&S) || !r.Read(&n) || !r.Read(&d) || !r.Read(&bits1) ||
      !r.Read(&bits2) || S == 0 || d == 0) {
    return Status::IOError(path + ": corrupt manifest header");
  }
  // A version-2 manifest overrides the caller's fallback configuration.
  Metric actual_metric = metric;
  VamanaBuildParams actual_bp = bp;
  if (version == kManifestVersionMeta) {
    IndexMeta meta;
    BLINK_RETURN_NOT_OK(detail::ReadIndexMeta(&r, &meta, path));
    actual_metric = meta.metric;
    actual_bp = meta.params;
    if (self_described != nullptr) *self_described = true;
  }
  // Bound every allocation below by what the file could actually hold: the
  // manifest stores S*d centroid floats and n member ids, so corrupt header
  // fields must fail with a Status like every other corruption, not OOM.
  const uint64_t fsize = map.value().size();
  if (d > fsize / sizeof(float) || S > (fsize / sizeof(float)) / d ||
      n > fsize / sizeof(uint32_t)) {
    return Status::IOError(path + ": manifest header disagrees with size");
  }
  Partition part;
  part.centroids = MatrixF(S, d);
  if (!r.ReadBytes(part.centroids.data(), S * d * sizeof(float))) {
    return Status::IOError(path + ": truncated centroids");
  }
  part.shard_to_global.resize(S);
  part.global_to_shard.assign(n, UINT32_MAX);
  for (uint64_t s = 0; s < S; ++s) {
    uint64_t m = 0;
    if (!r.Read(&m) || m > n) {
      return Status::IOError(path + ": corrupt shard list header");
    }
    auto& members = part.shard_to_global[s];
    members.resize(m);
    if (!r.ReadBytes(members.data(), m * sizeof(uint32_t))) {
      return Status::IOError(path + ": truncated shard list");
    }
    for (uint32_t g : members) {
      if (g >= n || part.global_to_shard[g] != UINT32_MAX) {
        return Status::IOError(path + ": shard lists are not a partition");
      }
      part.global_to_shard[g] = static_cast<uint32_t>(s);
    }
  }
  for (uint64_t g = 0; g < n; ++g) {
    if (part.global_to_shard[g] == UINT32_MAX) {
      return Status::IOError(path + ": shard lists are not a partition");
    }
  }

  if (bits1 < 1 || bits1 > 16 || bits2 > 16) {
    return Status::IOError(path + ": manifest LVQ bits out of range");
  }

  // Shards are static LVQ bundles, copied; the manifest's configuration is
  // the fallback for a version-1 shard graph. The manifest holds no graph
  // degree: it comes from the shard graphs' headers.
  ShardedBuildParams config;
  config.partition.num_shards = S;
  config.graph = actual_bp;
  config.bits1 = static_cast<int>(bits1);
  config.bits2 = static_cast<int>(bits2);
  std::vector<std::unique_ptr<ShardedIndex::Shard>> shards(S);
  for (uint64_t s = 0; s < S; ++s) {
    const size_t m = part.shard_to_global[s].size();
    if (m == 0) continue;
    const std::string prefix = ShardPrefix(dir, s);
    Result<StaticBundle> opened = OpenStaticBundle(
        prefix, {.use_huge_pages = use_huge_pages}, actual_metric, actual_bp);
    if (!opened.ok()) return opened.status();
    StaticBundle& b = opened.value();
    if (b.encoding != VecsEncoding::kLvq1 &&
        b.encoding != VecsEncoding::kLvq2) {
      return Status::IOError(b.vecs_path + ": not an LVQ payload");
    }
    Result<LvqDataset> ds = ReadLvq(b.vecs_file, b.vecs_path, b.place);
    if (!ds.ok()) return ds.status();
    if (ds.value().size() != m || ds.value().dim() != d) {
      return Status::IOError(prefix +
                             ": shard size/dim disagrees with manifest");
    }
    if (ds.value().bits() != static_cast<int>(bits1) ||
        ds.value().bits2() != static_cast<int>(bits2)) {
      return Status::IOError(prefix +
                             ": shard LVQ encoding disagrees with manifest");
    }
    config.graph.graph_max_degree = b.params.graph_max_degree;
    shards[s] = std::make_unique<ShardedIndex::Shard>(
        LvqStorage(std::move(ds).value(), b.metric), std::move(b.graph),
        b.params);
  }
  return std::make_unique<ShardedIndex>(std::move(shards), std::move(part),
                                        actual_metric, std::move(config));
}

}  // namespace blink
