// Index persistence: save/load for flat graphs, vector datasets (LVQ,
// float32, float16, LeanVec) and complete index bundles.
//
// Production deployments build once and serve many times; the paper's
// Table 1 is precisely about how expensive construction is. All formats are
// little-endian and versioned, with the same "BLNK" magic family as
// util/io.h. Writers stream through stdio; every reader parses a read-only
// mapping of the file (util/mmap_file.h) through one bounds-checked cursor
// (binio::ByteReader). A static bundle has one opener, OpenStaticBundle,
// shared by api::Open and the sharded per-shard loader.
//
// Format versions (DESIGN.md D10/D12 have the full tables):
//   graph "BLAG"     v1: header + variable-length adjacency rows.
//                    v2: v1 + an IndexMeta block (metric + build params),
//                        so the artifact is self-describing.
//                    v3: v2 header/meta, then zero-padding to a 64-byte
//                        file offset, then *fixed-stride* rows of
//                        (1 + max_degree) u32 — byte-identical to
//                        FlatGraph's in-memory layout, so a mapping of
//                        the file serves directly (DESIGN.md D12).
//   vecs  "BLAQ"/"BLA2"  LVQ-B / LVQ-B1xB2 payloads. v3 pads to a
//                        64-byte offset before each blob/residual
//                        section (v1 reads kept).
//         "BLAF"/"BLAH"  float32 / float16 payloads; v3 pads before the
//                        row section likewise.
//         "BLLV"         LeanVec two-level payload (v3 only): header
//                        (kind tag, n, d, d'), the projection model
//                        (mean + d x d' matrix), then the primary
//                        (d'-dim) and secondary (full-dim) sections —
//                        raw float32 rows (kind 0) or nested "BLAQ"
//                        LVQ-8 sections (kind 1), each 64-byte aligned.
//   dynamic "BLDY"   v1: header + rows + tombstones + free list + graph.
//                    v2: header additionally carries metric/alpha/window.
//                    (Always copied: the index is mutable.)
//   sharded manifest "BLSH" — see shard/serialize.h (v2 adds IndexMeta).
//
// Every static writer emits v3 (BLDY: v2). Version-1/2 artifacts remain
// readable forever; the readers fall back to caller-supplied configuration
// exactly as the pre-v2 API required.
//
// All saves are atomic: payloads stream to `<path>.tmp.<pid>` and rename
// over the destination only after an fsync, so a crash mid-save can never
// leave a torn file where Open()'s sniffing finds it.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "graph/builder.h"
#include "graph/dynamic.h"
#include "graph/graph.h"
#include "graph/index.h"
#include "graph/storage.h"
#include "quant/leanvec.h"
#include "quant/lvq.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace blink {

namespace binio {
class ByteReader;
}  // namespace binio

/// Build-time configuration embedded in version-2+ artifacts, so Open()
/// can reconstruct an index without the caller re-supplying the metric or
/// the build parameters.
struct IndexMeta {
  Metric metric = Metric::kL2;
  VamanaBuildParams params;
};

// ---------------------------------------------------------------------------
// Readers (DESIGN.md D12). Each container has exactly one parser, over the
// bytes of an established read-only mapping, and every parser ends with
// one placement step:
//   - view: a map-mode open of a v3 file — the returned graph/storage
//     references the mapped section in place (no copy, no allocation
//     proportional to the dataset). The caller keeps `map` alive for as
//     long as the result (api::Open stores the mapping next to the index).
//   - copy: anything else — the section is copied into owned arenas
//     (honoring `use_huge_pages`) and the mapping may be dropped at once.
//     kLoad is exactly this: map, parse, copy, unmap.
// Validation is the same either way: headers and section bounds are fully
// checked against the mapping's size before anything is sized from them,
// and graph adjacency rows are validated eagerly (they are the only ids
// indexed into other arrays, and the graph is the small section); viewed
// vector pages are never touched — they fault in lazily as searches visit
// them.
// ---------------------------------------------------------------------------

/// The view-or-copy choice a parser ends with. `view` is a request: pre-v3
/// sections (unaligned) are copied regardless.
struct Placement {
  bool view = false;
  bool use_huge_pages = true;  ///< arena tier of copied sections
};

/// True when a mapped artifact has the aligned v3 layout (its version
/// field, the u32 after the magic, is 3) — i.e. a view placement serves it
/// in place.
bool IsAlignedArtifact(const MmapFile& map);

/// Saves a built graph (adjacency + entry point) as version 3:
/// self-describing header, then 64-byte-aligned fixed-stride rows.
Status SaveGraph(const std::string& path, const FlatGraph& graph,
                 uint32_t entry_point, const IndexMeta& meta);

/// Parses a graph file (any version). For version 2+ files `*meta` (if
/// non-null) receives the embedded configuration, with
/// params.graph_max_degree set from the stored graph, and `*has_meta` is
/// set true; version-1 files leave `*meta` untouched and `*has_meta` false.
Result<BuiltGraph> ReadGraph(const MmapFile& map, const std::string& path,
                             const Placement& place, IndexMeta* meta = nullptr,
                             bool* has_meta = nullptr);
/// ReadGraph with copy placement over a transient mapping of `path`.
Result<BuiltGraph> LoadGraph(const std::string& path,
                             bool use_huge_pages = true,
                             IndexMeta* meta = nullptr,
                             bool* has_meta = nullptr);

/// LVQ dataset: one-level as "BLAQ" (mean + per-vector blobs), two-level
/// as "BLA2" (residual width, the level-1 "BLAQ" section, residual codes).
/// The readers accept either.
Status SaveLvq(const std::string& path, const LvqDataset& ds);
Result<LvqDataset> ReadLvq(const MmapFile& map, const std::string& path,
                           const Placement& place);
Result<LvqDataset> LoadLvq(const std::string& path,
                           bool use_huge_pages = true);

/// Float32 ("BLAF") and float16 ("BLAH") vector payloads.
Result<FloatStorage> ReadFloatVecs(const MmapFile& map,
                                   const std::string& path, Metric metric,
                                   const Placement& place);
Result<F16Storage> ReadF16Vecs(const MmapFile& map, const std::string& path,
                               Metric metric, const Placement& place);

/// LeanVec two-level payloads ("BLLV"). The reader checks that the file's
/// kind tag matches the requested flavor, and validates the embedded
/// model's dimensions against both payload sections. The small projection
/// model is always copied (it is read on every query).
Result<LeanVecStorage> ReadLeanVecVecs(const MmapFile& map,
                                       const std::string& path, Metric metric,
                                       const Placement& place);
Result<LeanVecLvqStorage> ReadLeanVecLvqVecs(const MmapFile& map,
                                             const std::string& path,
                                             Metric metric,
                                             const Placement& place);

/// The `.vecs` saver of each static storage, in its native payload format
/// — the overload set SaveIndexBundle dispatches on. LVQ storages write
/// "BLAQ" or "BLA2" by level count; LeanVec storages write "BLLV" tagged by
/// primary encoding.
Status SaveVecs(const std::string& path, const LvqStorage& storage);
Status SaveVecs(const std::string& path, const FloatStorage& storage);
Status SaveVecs(const std::string& path, const F16Storage& storage);
Status SaveVecs(const std::string& path, const LeanVecStorage& storage);
Status SaveVecs(const std::string& path, const LeanVecLvqStorage& storage);

/// The storage encoding of a `.vecs` file, sniffed from its magic (plus
/// the kind tag for "BLLV") — how Open() decides which static flavor to
/// reconstruct.
enum class VecsEncoding {
  kLvq1,
  kLvq2,
  kFloat32,
  kFloat16,
  kLeanVecF32,
  kLeanVecLvq,
};

/// Saves a complete static index as `<prefix>.graph` + `<prefix>.vecs`.
/// The graph file embeds the metric and build params, so the bundle
/// reloads without configuration.
template <typename Storage>
Status SaveIndexBundle(const std::string& prefix,
                       const VamanaIndex<Storage>& index) {
  BLINK_RETURN_NOT_OK(SaveVecs(prefix + ".vecs", index.storage()));
  return SaveGraph(prefix + ".graph", index.graph(), index.entry_point(),
                   IndexMeta{index.storage().metric(), index.build_params()});
}

/// A static bundle as its one opener leaves it: both files mapped, the
/// graph parsed, the encoding sniffed and the placement settled. The
/// caller parses `vecs_file` with `encoding`'s reader under `place` and,
/// when `place.view`, keeps both mappings alive as long as the index.
struct StaticBundle {
  BuiltGraph graph;
  Metric metric = Metric::kL2;  ///< the v2+ header's, else the fallback
  VamanaBuildParams params;     ///< likewise; max degree from the graph
  bool self_described = false;  ///< the graph header carried metric + params
  VecsEncoding encoding = VecsEncoding::kLvq1;
  Placement place;  ///< a view only when asked for and both files are v3
  std::string vecs_path;
  MmapFile graph_file;
  MmapFile vecs_file;
};

/// Opens `<prefix>.graph` and `.vecs`: the one opener of a static bundle,
/// used by api::Open and by the sharded per-shard loader. `metric` and
/// `bp` are the fallbacks for a version-1 graph; a version-2+ header
/// overrides both (the artifact is the source of truth for its own
/// configuration).
Result<StaticBundle> OpenStaticBundle(const std::string& prefix,
                                      const Placement& request, Metric metric,
                                      const VamanaBuildParams& bp);

/// Storage kind of a BLDY file.
enum class DynamicKind { kF32, kLvq };

namespace detail {
/// The header of a BLDY file (graph/serialize.cc writes and parses it).
struct DynHeader {
  uint32_t kind = 0;
  uint64_t dim = 0;
  uint64_t n = 0;
  uint64_t num_deleted = 0;
  uint32_t entry = 0;
  uint32_t max_degree = 0;
  // Version-2 fields.
  bool has_meta = false;
  Metric metric = Metric::kL2;
  float alpha = 1.2f;
  uint32_t build_window = 64;
};
}  // namespace detail

/// A dynamic-index ("BLDY") file read once: its mapping and parsed
/// header. Open sniffs a file, dispatches on `kind` and loads the index
/// from the same mapping.
struct DynamicFile {
  std::string path;
  MmapFile map;
  DynamicKind kind = DynamicKind::kF32;
  detail::DynHeader header;
  size_t header_bytes = 0;  ///< the payload follows the header
};

/// Maps `path` and parses its BLDY header. `*is_bldy` (if non-null) tells
/// whether the file mapped and carries the BLDY magic, so a caller can
/// tell a foreign file from a corrupt dynamic index.
Result<DynamicFile> SniffDynamicFile(const std::string& path,
                                     bool* is_bldy = nullptr);

/// Saves a dynamic index (storage rows, tombstone flags, free-slot list,
/// adjacency, entry point) as one file, version 2: the header embeds the
/// metric, pruning alpha and build window. The caller must guarantee no
/// concurrent writer for the duration of the call; concurrent readers are
/// fine. Both storages share the "BLDY" container, tagged by encoding.
Status SaveDynamic(const std::string& path, const DynamicIndex& index);
Status SaveDynamic(const std::string& path, const DynamicLvqIndex& index);

/// Loads a dynamic index saved with SaveDynamic (map, parse, copy). For
/// version-2 files the metric/alpha/build_window come from the header
/// (opts supplies only the initial_capacity floor); version-1 files take
/// all of `opts` as-is. graph_max_degree always comes from the file. The
/// loader checks that the file's encoding matches the requested index
/// flavor (float32 vs LVQ). `*self_described` (if non-null) reports
/// whether the file carried its own configuration.
Result<std::unique_ptr<DynamicIndex>> LoadDynamicF32(
    const DynamicFile& file, DynamicOptions opts,
    bool* self_described = nullptr);
Result<std::unique_ptr<DynamicLvqIndex>> LoadDynamicLvq(
    const DynamicFile& file, DynamicOptions opts,
    bool* self_described = nullptr);
/// The same, sniffing `path` first.
Result<std::unique_ptr<DynamicIndex>> LoadDynamicF32(
    const std::string& path, DynamicOptions opts,
    bool* self_described = nullptr);
Result<std::unique_ptr<DynamicLvqIndex>> LoadDynamicLvq(
    const std::string& path, DynamicOptions opts,
    bool* self_described = nullptr);

namespace detail {

/// The IndexMeta wire block shared by the graph (v2+) and sharded-manifest
/// (v2) headers: metric u32, window u32, alpha f32, max_candidates u32,
/// seed u64, two_passes u32. graph_max_degree is not part of the block —
/// every container already records it.
Status WriteIndexMeta(std::FILE* f, const IndexMeta& meta,
                      const std::string& path);
Status ReadIndexMeta(binio::ByteReader* r, IndexMeta* meta,
                     const std::string& path);

}  // namespace detail

}  // namespace blink
