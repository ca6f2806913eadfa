#include "graph/serialize.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/binio.h"

namespace blink {

namespace {

using binio::ByteReader;
using binio::WriteAll;
using binio::WritePod;

constexpr uint32_t kGraphMagic = 0x47414C42u;  // "BLAG"
constexpr uint32_t kLvqMagic = 0x51414C42u;    // "BLAQ"
constexpr uint32_t kLvq2Magic = 0x32414C42u;   // "BLA2"
constexpr uint32_t kF32Magic = 0x46414C42u;    // "BLAF"
constexpr uint32_t kF16Magic = 0x48414C42u;    // "BLAH"
constexpr uint32_t kDynMagic = 0x59444C42u;    // "BLDY"
constexpr uint32_t kLeanVecMagic = 0x564C4C42u;  // "BLLV"
constexpr uint32_t kVersion = 1;
// Version 2 appends the IndexMeta block (graph) or the extended header
// fields (dynamic); version-1 files remain loadable.
constexpr uint32_t kVersionMeta = 2;
// Version 3 zero-pads to a 64-byte file offset before each payload
// section, and the graph payload becomes fixed-stride rows — the layout a
// mapping can serve directly (DESIGN.md D12). v1/v2 files remain loadable.
constexpr uint32_t kVersionAligned = 3;

// File-offset alignment of v3 payload sections. Mappings are page-aligned,
// so a 64-byte file offset is a 64-byte (cache-line / SIMD-load) address.
constexpr size_t kSectionAlign = 64;

// Storage kind tags of the dynamic-index container.
constexpr uint32_t kDynKindF32 = 0;
constexpr uint32_t kDynKindLvq = 1;

// Primary-encoding kind tags of the LeanVec ("BLLV") container.
constexpr uint32_t kLeanVecKindF32 = 0;
constexpr uint32_t kLeanVecKindLvq = 1;

uint32_t MetricToWire(Metric m) {
  return m == Metric::kInnerProduct ? 1u : 0u;
}

Status MetricFromWire(uint32_t w, Metric* out, const std::string& path) {
  if (w > 1) return Status::IOError(path + ": unknown metric tag");
  *out = w == 1 ? Metric::kInnerProduct : Metric::kL2;
  return Status::OK();
}

/// Zero-pads the stream to the next kSectionAlign file offset (v3 writers).
bool WriteSectionPad(FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0) return false;
  const size_t rem = static_cast<size_t>(pos) % kSectionAlign;
  if (rem == 0) return true;
  const uint8_t zeros[kSectionAlign] = {};
  return WriteAll(f, zeros, kSectionAlign - rem);
}

/// Maps `path` for a parse that ends in `place`. A view is searched in
/// graph order (MADV_RANDOM, plus the huge-page hint); a copy reads front
/// to back, so the kernel's default readahead is kept.
Result<MmapFile> MapFor(const std::string& path, const Placement& place) {
  MmapFile::Options opts;
  opts.random = place.view;
  opts.huge_pages = place.view && place.use_huge_pages;
  return MmapFile::Map(path, opts);
}

/// The placement step every parser ends with: a section is served from
/// the mapping in place only when the caller asked for a view and the
/// file has the aligned v3 layout; otherwise it is copied.
bool Views(const Placement& place, uint32_t version) {
  return place.view && version == kVersionAligned;
}

/// Writes the level-1 "BLAQ" section of `ds` (header, mean, blobs).
Status SaveLvqTo(FILE* f, const LvqDataset& ds, const std::string& path) {
  const uint64_t n = ds.size(), d = ds.dim();
  const uint32_t bits = static_cast<uint32_t>(ds.bits());
  const uint64_t padding = ds.padding();
  if (!WritePod(f, kLvqMagic) || !WritePod(f, kVersionAligned) ||
      !WritePod(f, n) || !WritePod(f, d) || !WritePod(f, bits) ||
      !WritePod(f, padding) ||
      !WriteAll(f, ds.mean().data(), d * sizeof(float)) ||
      !WriteSectionPad(f) || !WriteAll(f, ds.raw_blob(), n * ds.stride())) {
    return Status::IOError(path + ": LVQ write failed");
  }
  return Status::OK();
}

/// One parsed "BLAQ" section, before placement.
struct LvqSection {
  uint32_t version = 0;
  size_t n = 0;
  std::vector<float> mean;
  LvqDataset::Options opts;
  const uint8_t* blob = nullptr;
};

/// The one "BLAQ" parser: whole files and the sections nested in "BLA2"
/// and "BLLV" payloads.
Status ParseLvqSection(ByteReader* r, const std::string& path,
                       const Placement& place, LvqSection* out) {
  uint32_t magic = 0, bits = 0;
  uint64_t n = 0, d = 0, padding = 0;
  if (!r->Read(&magic) || magic != kLvqMagic) {
    return Status::IOError(path + ": bad LVQ magic");
  }
  if (!r->Read(&out->version) ||
      (out->version != kVersion && out->version != kVersionAligned)) {
    return Status::IOError(path + ": unsupported LVQ version");
  }
  if (!r->Read(&n) || !r->Read(&d) || !r->Read(&bits) ||
      !r->Read(&padding) || bits < 1 || bits > 16 || d == 0 ||
      d > (1u << 20) || padding > (1u << 20)) {
    return Status::IOError(path + ": corrupt LVQ header");
  }
  // The payload is d mean floats + n strided rows; a header that implies
  // more than the file holds must fail like any other corruption, not
  // drive the allocation below into OOM.
  const size_t stride = LvqPaddedStride(
      LvqDataset::kHeaderBytes + PackedBytes(d, static_cast<int>(bits)),
      padding);
  out->mean.resize(d);
  if (!r->ReadBytes(out->mean.data(), d * sizeof(float)) ||
      (out->version == kVersionAligned && !r->Align(kSectionAlign)) ||
      n > r->remaining() / stride ||
      (out->blob = r->Take(n * stride)) == nullptr) {
    return Status::IOError(path + ": LVQ header disagrees with file size");
  }
  out->n = n;
  out->opts.bits = static_cast<int>(bits);
  out->opts.padding = padding;
  out->opts.use_huge_pages = place.use_huge_pages;
  return Status::OK();
}

/// A "BLAQ" section as a one-level dataset.
Result<LvqDataset> ParseLvq(ByteReader* r, const std::string& path,
                            const Placement& place) {
  LvqSection s;
  BLINK_RETURN_NOT_OK(ParseLvqSection(r, path, place, &s));
  return LvqDataset::FromRaw(s.n, std::move(s.mean), s.opts, s.blob,
                             /*residuals=*/nullptr, Views(place, s.version));
}

/// A "BLA2" payload: its residual width, a nested level-1 section, then
/// the residual rows.
Result<LvqDataset> ParseLvq2(ByteReader* r, const std::string& path,
                             const Placement& place) {
  uint32_t magic = 0, version = 0, bits2 = 0;
  if (!r->Read(&magic) || magic != kLvq2Magic) {
    return Status::IOError(path + ": bad LVQ2 magic");
  }
  if (!r->Read(&version) ||
      (version != kVersion && version != kVersionAligned) ||
      !r->Read(&bits2) || bits2 < 1 || bits2 > 16) {
    return Status::IOError(path + ": corrupt LVQ2 header");
  }
  LvqSection s;
  BLINK_RETURN_NOT_OK(ParseLvqSection(r, path, place, &s));
  s.opts.bits2 = static_cast<int>(bits2);
  const size_t stride = PackedBytes(s.mean.size(), s.opts.bits2);
  const uint8_t* residuals = nullptr;
  if ((version == kVersionAligned && !r->Align(kSectionAlign)) ||
      (residuals = r->Take(s.n * stride)) == nullptr) {
    return Status::IOError(path +
                           ": LVQ2 residual section disagrees with file size");
  }
  // Both levels are viewed only when both sections have the aligned layout.
  return LvqDataset::FromRaw(s.n, std::move(s.mean), s.opts, s.blob, residuals,
                             Views(place, version) && Views(place, s.version));
}

/// Shared (n, d) header + raw row payload of the float32/float16 formats.
Status SaveRawVecs(const std::string& path, uint32_t magic, uint64_t n,
                   uint64_t d, const void* rows, size_t row_bytes) {
  binio::AtomicFile f(path);
  if (!f.ok()) return Status::IOError("cannot open " + path + " for writing");
  if (!WritePod(f.get(), magic) || !WritePod(f.get(), kVersionAligned) ||
      !WritePod(f.get(), n) || !WritePod(f.get(), d) ||
      !WriteSectionPad(f.get()) || !WriteAll(f.get(), rows, n * row_bytes)) {
    return Status::IOError(path + ": vector write failed");
  }
  return f.Commit();
}

/// A parsed float32/float16 payload: its shape, the row section inside
/// the mapping, and whether that section is to be viewed in place.
struct RawVecs {
  uint64_t n = 0, d = 0;
  const uint8_t* rows = nullptr;
  bool view = false;
};

/// The one "BLAF"/"BLAH" parser.
Status ParseRawVecs(const MmapFile& map, const std::string& path,
                    uint32_t magic, size_t elem_bytes, const Placement& place,
                    RawVecs* out) {
  ByteReader r(map.data(), map.size());
  uint32_t got = 0, version = 0;
  if (!r.Read(&got) || got != magic) {
    return Status::IOError(path + ": bad vecs magic");
  }
  if (!r.Read(&version) ||
      (version != kVersion && version != kVersionAligned)) {
    return Status::IOError(path + ": unsupported vecs version");
  }
  if (!r.Read(&out->n) || !r.Read(&out->d) || out->d == 0 ||
      out->d > (1u << 20) || out->n > (1ull << 40)) {
    return Status::IOError(path + ": corrupt vecs header");
  }
  // Bound the section by what the file actually holds (a forged header
  // must fail with a Status, not an OOM).
  if ((version == kVersionAligned && !r.Align(kSectionAlign)) ||
      (out->rows = r.Take(out->n * out->d * elem_bytes)) == nullptr) {
    return Status::IOError(path + ": vecs header disagrees with file size");
  }
  out->view = Views(place, version);
  return Status::OK();
}

/// Header fields of the "BLLV" container. LeanVec postdates v3, so only
/// aligned files exist.
struct LeanVecHeader {
  uint32_t kind = 0;
  uint64_t n = 0, d = 0, dp = 0;
};

/// The one "BLLV" header + projection-model parser. Leaves the reader
/// aligned at the primary section. The model (mean + d x d' matrix) is
/// always copied — it is tiny and read on every query.
Status ParseLeanVecHead(ByteReader* r, uint32_t want_kind, LeanVecHeader* h,
                        LeanVecModel* model, const std::string& path) {
  uint32_t magic = 0, version = 0;
  if (!r->Read(&magic) || magic != kLeanVecMagic) {
    return Status::IOError(path + ": bad LeanVec magic");
  }
  if (!r->Read(&version) || version != kVersionAligned) {
    return Status::IOError(path + ": unsupported LeanVec version");
  }
  if (!r->Read(&h->kind) || h->kind > kLeanVecKindLvq || !r->Read(&h->n) ||
      !r->Read(&h->d) || !r->Read(&h->dp) || h->d == 0 || h->d > (1u << 20) ||
      h->dp == 0 || h->dp > h->d || h->n > (1ull << 40)) {
    return Status::IOError(path + ": corrupt LeanVec header");
  }
  if (h->kind != want_kind) {
    return Status::InvalidArgument(
        path + (want_kind == kLeanVecKindF32
                    ? ": not a float32 LeanVec payload"
                    : ": not an LVQ LeanVec payload"));
  }
  // Bound the model allocation by what the file can still hold (forged
  // headers fail with a Status, not an OOM).
  if ((h->d + h->d * h->dp) * sizeof(float) > r->remaining()) {
    return Status::IOError(path + ": LeanVec header disagrees with file size");
  }
  model->mean.resize(h->d);
  if (!r->ReadBytes(model->mean.data(), h->d * sizeof(float)) ||
      !r->Align(kSectionAlign)) {
    return Status::IOError(path + ": truncated LeanVec mean");
  }
  model->proj = MatrixF(h->d, h->dp);
  if (!r->ReadBytes(model->proj.data(), h->d * h->dp * sizeof(float)) ||
      !r->Align(kSectionAlign)) {
    return Status::IOError(path + ": truncated LeanVec projection");
  }
  return Status::OK();
}

Status WriteLeanVecHeaderAndModel(FILE* f, uint32_t kind,
                                  const LeanVecModel& model, uint64_t n,
                                  const std::string& path) {
  const uint64_t d = model.dim();
  const uint64_t dp = model.reduced_dim();
  if (!WritePod(f, kLeanVecMagic) || !WritePod(f, kVersionAligned) ||
      !WritePod(f, kind) || !WritePod(f, n) || !WritePod(f, d) ||
      !WritePod(f, dp) ||
      !WriteAll(f, model.mean.data(), d * sizeof(float)) ||
      !WriteSectionPad(f) ||
      !WriteAll(f, model.proj.data(), d * dp * sizeof(float)) ||
      !WriteSectionPad(f)) {
    return Status::IOError(path + ": LeanVec model write failed");
  }
  return Status::OK();
}

/// Float32 rows (a "BLAF" payload or a LeanVec section), viewed in place
/// or copied.
FloatStorage PlaceRows(const uint8_t* rows, size_t n, size_t d, Metric metric,
                       const Placement& place) {
  const float* f = reinterpret_cast<const float*>(rows);
  if (place.view) return FloatStorage::FromExternal(f, n, d, metric);
  return FloatStorage(MatrixViewF(f, n, d), metric, place.use_huge_pages);
}

/// The encoding of a mapped `.vecs` file. Sniffed once, so a corrupt
/// payload reports its own error instead of a retry's under another
/// encoding.
Result<VecsEncoding> PeekVecsEncoding(const MmapFile& map,
                                      const std::string& path) {
  ByteReader r(map.data(), map.size());
  uint32_t magic = 0;
  if (!r.Read(&magic)) {
    return Status::IOError(path + ": truncated vecs file");
  }
  if (magic == kLeanVecMagic) {
    uint32_t version = 0, kind = 0;
    if (!r.Read(&version) || !r.Read(&kind) || kind > kLeanVecKindLvq) {
      return Status::IOError(path + ": corrupt LeanVec header");
    }
    return kind == kLeanVecKindLvq ? VecsEncoding::kLeanVecLvq
                                   : VecsEncoding::kLeanVecF32;
  }
  switch (magic) {
    case kLvqMagic: return VecsEncoding::kLvq1;
    case kLvq2Magic: return VecsEncoding::kLvq2;
    case kF32Magic: return VecsEncoding::kFloat32;
    case kF16Magic: return VecsEncoding::kFloat16;
    default: return Status::IOError(path + ": unrecognized vecs magic");
  }
}

}  // namespace

namespace detail {

Status WriteIndexMeta(std::FILE* f, const IndexMeta& meta,
                      const std::string& path) {
  const uint32_t metric = MetricToWire(meta.metric);
  const uint32_t two_passes = meta.params.two_passes ? 1u : 0u;
  if (!WritePod(f, metric) || !WritePod(f, meta.params.window_size) ||
      !WritePod(f, meta.params.alpha) ||
      !WritePod(f, meta.params.max_candidates) ||
      !WritePod(f, meta.params.seed) || !WritePod(f, two_passes)) {
    return Status::IOError(path + ": metadata write failed");
  }
  return Status::OK();
}

Status ReadIndexMeta(ByteReader* r, IndexMeta* meta, const std::string& path) {
  uint32_t metric = 0, two_passes = 0;
  if (!r->Read(&metric) || !r->Read(&meta->params.window_size) ||
      !r->Read(&meta->params.alpha) ||
      !r->Read(&meta->params.max_candidates) ||
      !r->Read(&meta->params.seed) || !r->Read(&two_passes) ||
      two_passes > 1 || meta->params.window_size == 0 ||
      meta->params.window_size > (1u << 20) ||
      !(meta->params.alpha > 0.0f) || meta->params.alpha > 16.0f) {
    return Status::IOError(path + ": corrupt metadata block");
  }
  meta->params.two_passes = two_passes != 0;
  return MetricFromWire(metric, &meta->metric, path);
}

}  // namespace detail

Status SaveGraph(const std::string& path, const FlatGraph& graph,
                 uint32_t entry_point, const IndexMeta& meta) {
  binio::AtomicFile f(path);
  if (!f.ok()) return Status::IOError("cannot open " + path + " for writing");
  const uint64_t n = graph.size();
  const uint32_t R = graph.max_degree();
  if (!WritePod(f.get(), kGraphMagic) || !WritePod(f.get(), kVersionAligned) ||
      !WritePod(f.get(), n) || !WritePod(f.get(), R) ||
      !WritePod(f.get(), entry_point)) {
    return Status::IOError(path + ": header write failed");
  }
  BLINK_RETURN_NOT_OK(detail::WriteIndexMeta(f.get(), meta, path));
  if (!WriteSectionPad(f.get())) {
    return Status::IOError(path + ": section padding write failed");
  }
  // Fixed-stride payload: [deg][R ids] per node, unused tail zeroed —
  // exactly FlatGraph's in-memory row layout.
  std::vector<uint32_t> row(1 + static_cast<size_t>(R));
  for (size_t i = 0; i < n; ++i) {
    const uint32_t deg = graph.degree(i);
    row[0] = deg;
    std::memcpy(row.data() + 1, graph.neighbors(i), deg * sizeof(uint32_t));
    std::fill(row.begin() + 1 + deg, row.end(), 0u);
    if (!WriteAll(f.get(), row.data(), row.size() * sizeof(uint32_t))) {
      return Status::IOError(path + ": adjacency write failed");
    }
  }
  return f.Commit();
}

Result<BuiltGraph> ReadGraph(const MmapFile& map, const std::string& path,
                             const Placement& place, IndexMeta* meta,
                             bool* has_meta) {
  if (has_meta != nullptr) *has_meta = false;
  ByteReader r(map.data(), map.size());
  uint32_t magic = 0, version = 0, R = 0, entry = 0;
  uint64_t n = 0;
  if (!r.Read(&magic) || magic != kGraphMagic) {
    return Status::IOError(path + ": bad graph magic");
  }
  if (!r.Read(&version) ||
      (version != kVersion && version != kVersionMeta &&
       version != kVersionAligned)) {
    return Status::IOError(path + ": unsupported graph version");
  }
  if (!r.Read(&n) || !r.Read(&R) || !r.Read(&entry)) {
    return Status::IOError(path + ": corrupt graph header");
  }
  // Every adjacency row occupies at least its 4-byte degree field, so a
  // header claiming more rows than the file could hold is corrupt — and
  // must fail before n * R sizes the FlatGraph allocation. R gets the
  // dynamic loader's degree bound for the same reason. The entry point
  // must name a stored node — greedy search starts there unchecked.
  if (R == 0 || R > (1u << 20) || n > r.remaining() / sizeof(uint32_t)) {
    return Status::IOError(path + ": graph header disagrees with file size");
  }
  if (n > 0 && entry >= n) {
    return Status::IOError(path + ": entry point out of range");
  }
  if (version >= kVersionMeta) {
    IndexMeta local;
    BLINK_RETURN_NOT_OK(detail::ReadIndexMeta(&r, &local, path));
    local.params.graph_max_degree = R;
    if (meta != nullptr) *meta = local;
    if (has_meta != nullptr) *has_meta = true;
  }
  BuiltGraph out;
  out.entry_point = entry;
  if (version == kVersionAligned) {
    // Fixed-stride payload: each row is (1 + R) u32 regardless of degree.
    const size_t row_entries = 1 + static_cast<size_t>(R);
    const uint8_t* section = nullptr;
    if (!r.Align(kSectionAlign) ||
        (section = r.Take(n * row_entries * sizeof(uint32_t))) == nullptr) {
      return Status::IOError(path + ": graph header disagrees with file size");
    }
    const uint32_t* rows = reinterpret_cast<const uint32_t*>(section);
    // Eager validation: adjacency ids index the vector payload unchecked at
    // search time, and the graph is the small section — touch all of it
    // now so a corrupt row can never become an out-of-bounds read mid-query.
    for (size_t i = 0; i < n; ++i) {
      const uint32_t* row = rows + i * row_entries;
      if (row[0] > R) return Status::IOError(path + ": corrupt adjacency row");
      for (uint32_t e = 0; e < row[0]; ++e) {
        if (row[1 + e] >= n) {
          return Status::IOError(path + ": neighbor id out of range");
        }
      }
    }
    if (Views(place, version)) {
      out.graph = FlatGraph(rows, n, R);
      return out;
    }
    out.graph = FlatGraph(n, R, place.use_huge_pages);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t* row = rows + i * row_entries;
      out.graph.SetNeighbors(i, row + 1, row[0]);
    }
    return out;
  }
  // v1/v2 payload: variable-length [deg][deg ids] rows, always copied.
  out.graph = FlatGraph(n, R, place.use_huge_pages);
  std::vector<uint32_t> row(R);
  for (size_t i = 0; i < n; ++i) {
    uint32_t deg = 0;
    if (!r.Read(&deg) || deg > R) {
      return Status::IOError(path + ": corrupt adjacency row");
    }
    if (!r.ReadBytes(row.data(), deg * sizeof(uint32_t))) {
      return Status::IOError(path + ": truncated adjacency row");
    }
    for (uint32_t e = 0; e < deg; ++e) {
      if (row[e] >= n) return Status::IOError(path + ": neighbor id out of range");
    }
    out.graph.SetNeighbors(i, row.data(), deg);
  }
  return out;
}

Result<BuiltGraph> LoadGraph(const std::string& path, bool use_huge_pages,
                             IndexMeta* meta, bool* has_meta) {
  Result<MmapFile> map = MapFor(path, {});
  if (!map.ok()) return map.status();
  return ReadGraph(map.value(), path, {.use_huge_pages = use_huge_pages},
                   meta, has_meta);
}

Status SaveLvq(const std::string& path, const LvqDataset& ds) {
  binio::AtomicFile f(path);
  if (!f.ok()) return Status::IOError("cannot open " + path + " for writing");
  if (ds.bits2() == 0) {
    BLINK_RETURN_NOT_OK(SaveLvqTo(f.get(), ds, path));
    return f.Commit();
  }
  const uint32_t bits2 = static_cast<uint32_t>(ds.bits2());
  if (!WritePod(f.get(), kLvq2Magic) || !WritePod(f.get(), kVersionAligned) ||
      !WritePod(f.get(), bits2)) {
    return Status::IOError(path + ": header write failed");
  }
  // The nested level-1 section carries its own v3 pad; a second pad before
  // the residual rows gives them an aligned offset of their own.
  BLINK_RETURN_NOT_OK(SaveLvqTo(f.get(), ds, path));
  if (!WriteSectionPad(f.get()) ||
      !WriteAll(f.get(), ds.raw_residuals(),
                ds.size() * ds.residual_stride())) {
    return Status::IOError(path + ": residual write failed");
  }
  return f.Commit();
}

Result<LvqDataset> ReadLvq(const MmapFile& map, const std::string& path,
                           const Placement& place) {
  uint32_t magic = 0;
  ByteReader(map.data(), map.size()).Read(&magic);
  ByteReader r(map.data(), map.size());
  return magic == kLvq2Magic ? ParseLvq2(&r, path, place)
                             : ParseLvq(&r, path, place);
}

Result<LvqDataset> LoadLvq(const std::string& path, bool use_huge_pages) {
  Result<MmapFile> map = MapFor(path, {});
  if (!map.ok()) return map.status();
  return ReadLvq(map.value(), path, {.use_huge_pages = use_huge_pages});
}

Status SaveVecs(const std::string& path, const LvqStorage& storage) {
  return SaveLvq(path, storage.dataset());
}

Status SaveVecs(const std::string& path, const FloatStorage& storage) {
  return SaveRawVecs(path, kF32Magic, storage.size(), storage.dim(),
                     storage.size() > 0 ? storage.row(0) : nullptr,
                     storage.dim() * sizeof(float));
}

Result<FloatStorage> ReadFloatVecs(const MmapFile& map,
                                   const std::string& path, Metric metric,
                                   const Placement& place) {
  RawVecs v;
  BLINK_RETURN_NOT_OK(
      ParseRawVecs(map, path, kF32Magic, sizeof(float), place, &v));
  return PlaceRows(v.rows, v.n, v.d, metric,
                   {.view = v.view, .use_huge_pages = place.use_huge_pages});
}

Status SaveVecs(const std::string& path, const F16Storage& storage) {
  return SaveRawVecs(path, kF16Magic, storage.size(), storage.dim(),
                     storage.size() > 0 ? storage.row(0) : nullptr,
                     storage.dim() * sizeof(Float16));
}

Result<F16Storage> ReadF16Vecs(const MmapFile& map, const std::string& path,
                               Metric metric, const Placement& place) {
  RawVecs v;
  BLINK_RETURN_NOT_OK(
      ParseRawVecs(map, path, kF16Magic, sizeof(Float16), place, &v));
  const Float16* rows = reinterpret_cast<const Float16*>(v.rows);
  if (v.view) return F16Storage::FromExternal(rows, v.n, v.d, metric);
  return F16Storage(rows, v.n, v.d, metric, place.use_huge_pages);
}

Status SaveVecs(const std::string& path, const LeanVecStorage& storage) {
  binio::AtomicFile f(path);
  if (!f.ok()) return Status::IOError("cannot open " + path + " for writing");
  const uint64_t n = storage.size();
  BLINK_RETURN_NOT_OK(WriteLeanVecHeaderAndModel(f.get(), kLeanVecKindF32,
                                                 storage.model(), n, path));
  const FloatStorage& primary = storage.primary();
  const FloatStorage& secondary = storage.secondary();
  if (!WriteAll(f.get(), n > 0 ? primary.row(0) : nullptr,
                n * primary.dim() * sizeof(float)) ||
      !WriteSectionPad(f.get()) ||
      !WriteAll(f.get(), n > 0 ? secondary.row(0) : nullptr,
                n * secondary.dim() * sizeof(float))) {
    return Status::IOError(path + ": LeanVec payload write failed");
  }
  return f.Commit();
}

Status SaveVecs(const std::string& path, const LeanVecLvqStorage& storage) {
  binio::AtomicFile f(path);
  if (!f.ok()) return Status::IOError("cannot open " + path + " for writing");
  BLINK_RETURN_NOT_OK(WriteLeanVecHeaderAndModel(
      f.get(), kLeanVecKindLvq, storage.model(), storage.size(), path));
  // Each nested LVQ section carries its own v3 pad before its blob; the
  // extra pad between them gives the secondary header an aligned offset
  // (cf. SaveLvq's residual section).
  BLINK_RETURN_NOT_OK(SaveLvqTo(f.get(), storage.primary().dataset(), path));
  if (!WriteSectionPad(f.get())) {
    return Status::IOError(path + ": section padding write failed");
  }
  BLINK_RETURN_NOT_OK(SaveLvqTo(f.get(), storage.secondary().dataset(), path));
  return f.Commit();
}

Result<LeanVecStorage> ReadLeanVecVecs(const MmapFile& map,
                                       const std::string& path, Metric metric,
                                       const Placement& place) {
  ByteReader r(map.data(), map.size());
  LeanVecHeader h;
  LeanVecModel model;
  BLINK_RETURN_NOT_OK(ParseLeanVecHead(&r, kLeanVecKindF32, &h, &model, path));
  const uint8_t* primary = nullptr;
  const uint8_t* secondary = nullptr;
  if ((primary = r.Take(h.n * h.dp * sizeof(float))) == nullptr ||
      !r.Align(kSectionAlign) ||
      (secondary = r.Take(h.n * h.d * sizeof(float))) == nullptr) {
    return Status::IOError(path + ": LeanVec header disagrees with file size");
  }
  return LeanVecStorage(std::move(model),
                        PlaceRows(primary, h.n, h.dp, metric, place),
                        PlaceRows(secondary, h.n, h.d, metric, place));
}

Result<LeanVecLvqStorage> ReadLeanVecLvqVecs(const MmapFile& map,
                                             const std::string& path,
                                             Metric metric,
                                             const Placement& place) {
  ByteReader r(map.data(), map.size());
  LeanVecHeader h;
  LeanVecModel model;
  BLINK_RETURN_NOT_OK(ParseLeanVecHead(&r, kLeanVecKindLvq, &h, &model, path));
  Result<LvqDataset> primary = ParseLvq(&r, path, place);
  if (!primary.ok()) return primary.status();
  if (!r.Align(kSectionAlign)) {
    return Status::IOError(path + ": truncated LeanVec section padding");
  }
  Result<LvqDataset> secondary = ParseLvq(&r, path, place);
  if (!secondary.ok()) return secondary.status();
  if (primary.value().size() != h.n || primary.value().dim() != h.dp ||
      secondary.value().size() != h.n || secondary.value().dim() != h.d) {
    return Status::IOError(path + ": LeanVec sections disagree with header");
  }
  return LeanVecLvqStorage(std::move(model),
                           LvqStorage(std::move(primary).value(), metric),
                           LvqStorage(std::move(secondary).value(), metric));
}

bool IsAlignedArtifact(const MmapFile& map) {
  ByteReader r(map.data(), map.size());
  uint32_t magic = 0, version = 0;
  return r.Read(&magic) && r.Read(&version) && version == kVersionAligned;
}

Result<StaticBundle> OpenStaticBundle(const std::string& prefix,
                                      const Placement& request, Metric metric,
                                      const VamanaBuildParams& bp) {
  StaticBundle b;
  const std::string graph_path = prefix + ".graph";
  b.vecs_path = prefix + ".vecs";
  Result<MmapFile> gmap = MapFor(graph_path, request);
  if (!gmap.ok()) return gmap.status();
  Result<MmapFile> vmap = MapFor(b.vecs_path, request);
  if (!vmap.ok()) return vmap.status();
  b.graph_file = std::move(gmap).value();
  b.vecs_file = std::move(vmap).value();
  b.place = {.view = request.view && IsAlignedArtifact(b.graph_file) &&
                     IsAlignedArtifact(b.vecs_file),
             .use_huge_pages = request.use_huge_pages};

  IndexMeta meta;
  Result<BuiltGraph> graph =
      ReadGraph(b.graph_file, graph_path, b.place, &meta, &b.self_described);
  if (!graph.ok()) return graph.status();
  b.graph = std::move(graph).value();
  b.metric = b.self_described ? meta.metric : metric;
  b.params = b.self_described ? meta.params : bp;
  b.params.graph_max_degree = b.graph.graph.max_degree();
  Result<VecsEncoding> enc = PeekVecsEncoding(b.vecs_file, b.vecs_path);
  if (!enc.ok()) return enc.status();
  b.encoding = enc.value();
  return b;
}

// ---------------------------------------------------------------------------
// Dynamic index bundles ("BLDY"): one file holding the storage rows, the
// tombstone flags, the free-slot list (recycling order is state — it
// determines the ids future inserts receive) and the adjacency rows.
// Version 2 extends the header with metric/alpha/build_window so the file
// reloads without caller configuration. The index is mutable, so its
// parser always copies.
// ---------------------------------------------------------------------------

namespace {

using detail::DynHeader;

/// The version-2 header describing `index` (either storage kind).
template <typename Index>
DynHeader DynHeaderOf(const Index& index, uint32_t kind) {
  DynHeader h;
  h.kind = kind;
  h.dim = index.dim();
  h.n = index.size();
  h.num_deleted = index.num_deleted();
  h.entry = index.entry_point();
  h.max_degree = index.max_degree();
  h.metric = index.options().metric;
  h.alpha = index.options().alpha;
  h.build_window = index.options().build_window;
  return h;
}

Status WriteDynHeader(FILE* f, const DynHeader& h, const std::string& path) {
  if (!WritePod(f, kDynMagic) || !WritePod(f, kVersionMeta) ||
      !WritePod(f, h.kind) || !WritePod(f, h.dim) || !WritePod(f, h.n) ||
      !WritePod(f, h.num_deleted) || !WritePod(f, h.entry) ||
      !WritePod(f, h.max_degree) || !WritePod(f, MetricToWire(h.metric)) ||
      !WritePod(f, h.alpha) || !WritePod(f, h.build_window)) {
    return Status::IOError(path + ": dynamic header write failed");
  }
  return Status::OK();
}

Result<DynHeader> ReadDynHeader(ByteReader* r, const std::string& path) {
  uint32_t magic = 0, version = 0;
  DynHeader h;
  if (!r->Read(&magic) || magic != kDynMagic) {
    return Status::IOError(path + ": bad dynamic-index magic");
  }
  if (!r->Read(&version) ||
      (version != kVersion && version != kVersionMeta)) {
    return Status::IOError(path + ": unsupported dynamic-index version");
  }
  // Sanity bounds keep a corrupt header from driving the size arithmetic
  // below into overflow or absurd allocations (cf. the MakeAligned guard).
  constexpr uint64_t kMaxDim = 1u << 20;
  constexpr uint64_t kMaxDegree = 1u << 20;
  if (!r->Read(&h.kind) || !r->Read(&h.dim) || !r->Read(&h.n) ||
      !r->Read(&h.num_deleted) || !r->Read(&h.entry) ||
      !r->Read(&h.max_degree) || h.dim == 0 || h.dim > kMaxDim ||
      h.max_degree == 0 || h.max_degree > kMaxDegree ||
      h.num_deleted > h.n || h.n > (1ull << 40)) {
    return Status::IOError(path + ": corrupt dynamic-index header");
  }
  if (version == kVersionMeta) {
    uint32_t metric = 0;
    if (!r->Read(&metric) || !r->Read(&h.alpha) ||
        !r->Read(&h.build_window) || !(h.alpha > 0.0f) || h.alpha > 16.0f ||
        h.build_window == 0 || h.build_window > (1u << 20)) {
      return Status::IOError(path + ": corrupt dynamic-index metadata");
    }
    BLINK_RETURN_NOT_OK(MetricFromWire(metric, &h.metric, path));
    h.has_meta = true;
  }
  if (h.entry != DynamicIndex::kNoEntry && h.entry >= h.n) {
    return Status::IOError(path + ": entry point out of range");
  }
  return h;
}

/// The state shared by both storage kinds, written after the payload.
template <typename Index>
Status WriteDynState(FILE* f, const Index& index, size_t n,
                     const std::string& path) {
  if (!WriteAll(f, index.deleted_flags().data(), n)) {
    return Status::IOError(path + ": tombstone-flag write failed");
  }
  const uint64_t free_count = index.free_slots().size();
  if (!WritePod(f, free_count) ||
      !WriteAll(f, index.free_slots().data(),
                free_count * sizeof(uint32_t))) {
    return Status::IOError(path + ": free-slot write failed");
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t deg = index.graph().degree(i);
    if (!WritePod(f, deg) ||
        !WriteAll(f, index.graph().neighbors(i), deg * sizeof(uint32_t))) {
      return Status::IOError(path + ": adjacency write failed");
    }
  }
  return Status::OK();
}

Status ReadDynState(ByteReader* r, const DynHeader& h, size_t capacity,
                    FlatGraph* graph, std::vector<uint8_t>* deleted,
                    std::vector<uint32_t>* free_slots,
                    const std::string& path) {
  const size_t n = h.n;
  const uint8_t* flags = r->Take(n);
  if (flags == nullptr) {
    return Status::IOError(path + ": truncated tombstone flags");
  }
  deleted->assign(flags, flags + n);
  // Flags are the dynamic index's slot states: 0 live, 1 tombstoned
  // (navigable), 2 purged (queued for recycling). How flags, counts, the
  // free list and the rows agree is the restored index's CheckInvariants;
  // here only what sizes memory or indexes rows is checked.
  for (uint8_t flag : *deleted) {
    if (flag > 2) return Status::IOError(path + ": corrupt tombstone flag");
  }
  uint64_t free_count = 0;
  if (!r->Read(&free_count) || free_count > n) {
    return Status::IOError(path + ": corrupt free-slot count");
  }
  free_slots->resize(free_count);
  if (!r->ReadBytes(free_slots->data(), free_count * sizeof(uint32_t))) {
    return Status::IOError(path + ": truncated free-slot list");
  }
  *graph = FlatGraph(capacity, h.max_degree, /*use_huge_pages=*/false);
  std::vector<uint32_t> row(h.max_degree);
  for (size_t i = 0; i < n; ++i) {
    uint32_t deg = 0;
    if (!r->Read(&deg) || deg > h.max_degree) {
      return Status::IOError(path + ": corrupt adjacency row");
    }
    if (!r->ReadBytes(row.data(), deg * sizeof(uint32_t))) {
      return Status::IOError(path + ": truncated adjacency row");
    }
    graph->SetNeighbors(i, row.data(), deg);
  }
  return Status::OK();
}

/// Capacity a restored index is provisioned with: at least the saved rows,
/// the caller's requested floor, and the constructor's minimum.
size_t RestoredCapacity(const DynHeader& h, const DynamicOptions& opts) {
  return std::max<size_t>(std::max<size_t>(h.n, opts.initial_capacity), 16);
}

/// A restored index, or IOError when it breaks an invariant the writer
/// keeps (a file no writer could have produced).
template <typename Index>
Result<std::unique_ptr<Index>> CheckRestored(std::unique_ptr<Index> index,
                                             const std::string& path) {
  const Status st = index->CheckInvariants();
  if (!st.ok()) return Status::IOError(path + ": " + st.message());
  return index;
}

/// Checks a sniffed BLDY file's storage kind and applies its
/// configuration: version-2 headers override the caller's options — the
/// artifact is the single source of truth for metric / alpha / build
/// window. Returns a reader positioned at the payload.
Result<ByteReader> ParseDynPrologue(const DynamicFile& file,
                                    uint32_t want_kind, DynamicOptions* opts,
                                    bool* self_described) {
  const DynHeader& h = file.header;
  const std::string& path = file.path;
  if (h.kind != want_kind) {
    return Status::InvalidArgument(
        path + (want_kind == kDynKindF32 ? ": not a float32 dynamic index"
                                         : ": not an LVQ dynamic index"));
  }
  opts->graph_max_degree = h.max_degree;
  if (h.has_meta) {
    opts->metric = h.metric;
    opts->alpha = h.alpha;
    opts->build_window = h.build_window;
  }
  if (self_described != nullptr) *self_described = h.has_meta;
  ByteReader r(file.map.data(), file.map.size());
  r.Take(file.header_bytes);
  return r;
}

}  // namespace

Result<DynamicFile> SniffDynamicFile(const std::string& path, bool* is_bldy) {
  if (is_bldy != nullptr) *is_bldy = false;
  Result<MmapFile> map = MapFor(path, {});
  if (!map.ok()) return map.status();
  DynamicFile file;
  file.path = path;
  file.map = std::move(map).value();
  ByteReader r(file.map.data(), file.map.size());
  uint32_t magic = 0;
  if (is_bldy != nullptr) *is_bldy = r.Read(&magic) && magic == kDynMagic;
  r = ByteReader(file.map.data(), file.map.size());
  Result<DynHeader> header = ReadDynHeader(&r, path);
  if (!header.ok()) return header.status();
  file.header = header.value();
  file.header_bytes = file.map.size() - r.remaining();
  file.kind = file.header.kind == kDynKindLvq ? DynamicKind::kLvq
                                              : DynamicKind::kF32;
  return file;
}

Status SaveDynamic(const std::string& path, const DynamicIndex& index) {
  binio::AtomicFile f(path);
  if (!f.ok()) return Status::IOError("cannot open " + path + " for writing");
  const DynHeader h = DynHeaderOf(index, kDynKindF32);
  BLINK_RETURN_NOT_OK(WriteDynHeader(f.get(), h, path));
  if (!WriteAll(f.get(), index.storage().row(0),
                h.n * h.dim * sizeof(float))) {
    return Status::IOError(path + ": vector write failed");
  }
  BLINK_RETURN_NOT_OK(WriteDynState(f.get(), index, h.n, path));
  return f.Commit();
}

Status SaveDynamic(const std::string& path, const DynamicLvqIndex& index) {
  binio::AtomicFile f(path);
  if (!f.ok()) return Status::IOError("cannot open " + path + " for writing");
  const LvqDataset& ds = index.storage().dataset();
  const DynHeader h = DynHeaderOf(index, kDynKindLvq);
  BLINK_RETURN_NOT_OK(WriteDynHeader(f.get(), h, path));
  const uint32_t bits1 = static_cast<uint32_t>(ds.bits());
  const uint32_t bits2 = static_cast<uint32_t>(ds.bits2());
  const uint64_t padding = ds.padding();
  if (!WritePod(f.get(), bits1) || !WritePod(f.get(), bits2) ||
      !WritePod(f.get(), padding) ||
      !WriteAll(f.get(), ds.mean().data(), h.dim * sizeof(float)) ||
      !WriteAll(f.get(), ds.raw_blob(), h.n * ds.stride()) ||
      !WriteAll(f.get(), ds.raw_residuals(), h.n * ds.residual_stride())) {
    return Status::IOError(path + ": LVQ payload write failed");
  }
  BLINK_RETURN_NOT_OK(WriteDynState(f.get(), index, h.n, path));
  return f.Commit();
}

Result<std::unique_ptr<DynamicIndex>> LoadDynamicF32(const DynamicFile& file,
                                                     DynamicOptions opts,
                                                     bool* self_described) {
  Result<ByteReader> reader =
      ParseDynPrologue(file, kDynKindF32, &opts, self_described);
  if (!reader.ok()) return reader.status();
  ByteReader r = reader.value();
  const DynHeader& h = file.header;
  const std::string& path = file.path;
  // Rows must fit in the file before h.n sizes any allocation (forged
  // headers fail with a Status, not an OOM).
  const uint8_t* rows = r.Take(h.n * h.dim * sizeof(float));
  if (rows == nullptr) {
    return Status::IOError(path + ": dynamic header disagrees with file size");
  }
  const size_t capacity = RestoredCapacity(h, opts);
  FloatStorage storage(h.dim, opts.metric);
  storage.Grow(capacity);
  for (size_t i = 0; i < h.n; ++i) {
    storage.Set(i, reinterpret_cast<const float*>(rows) + i * h.dim);
  }
  FlatGraph graph;
  std::vector<uint8_t> deleted;
  std::vector<uint32_t> free_slots;
  BLINK_RETURN_NOT_OK(
      ReadDynState(&r, h, capacity, &graph, &deleted, &free_slots, path));
  return CheckRestored(
      DynamicIndex::Restore(h.dim, opts, std::move(storage), std::move(graph),
                            std::move(deleted), std::move(free_slots), h.n,
                            h.num_deleted, h.entry),
      path);
}

Result<std::unique_ptr<DynamicLvqIndex>> LoadDynamicLvq(
    const DynamicFile& file, DynamicOptions opts, bool* self_described) {
  Result<ByteReader> reader =
      ParseDynPrologue(file, kDynKindLvq, &opts, self_described);
  if (!reader.ok()) return reader.status();
  ByteReader r = reader.value();
  const DynHeader& h = file.header;
  const std::string& path = file.path;
  uint32_t bits1 = 0, bits2 = 0;
  uint64_t padding = 0;
  if (!r.Read(&bits1) || !r.Read(&bits2) || !r.Read(&padding) || bits1 < 1 ||
      bits1 > 16 || bits2 > 16 ||
      padding > (1u << 20)) {  // bounded so the stride can't overflow
    return Status::IOError(path + ": corrupt LVQ dynamic header");
  }
  LvqDataset::Options lvq_opts;
  lvq_opts.bits = static_cast<int>(bits1);
  lvq_opts.bits2 = static_cast<int>(bits2);
  lvq_opts.padding = padding;
  std::vector<float> mean(h.dim);
  if (!r.ReadBytes(mean.data(), h.dim * sizeof(float))) {
    return Status::IOError(path + ": truncated mean");
  }
  LvqDataset ds(std::move(mean), lvq_opts);
  // Same forged-header allocation bound as the float32 path, checked
  // before Grow() sizes the arena from h.n.
  const uint8_t* blob = nullptr;
  const uint8_t* residuals = nullptr;
  if ((blob = r.Take(h.n * ds.stride())) == nullptr ||
      (residuals = r.Take(h.n * ds.residual_stride())) == nullptr) {
    return Status::IOError(path + ": dynamic header disagrees with file size");
  }
  const size_t capacity = RestoredCapacity(h, opts);
  ds.Grow(capacity);
  ds.RestoreRows(blob, residuals, h.n);
  LvqStorage storage(std::move(ds), opts.metric);
  FlatGraph graph;
  std::vector<uint8_t> deleted;
  std::vector<uint32_t> free_slots;
  BLINK_RETURN_NOT_OK(
      ReadDynState(&r, h, capacity, &graph, &deleted, &free_slots, path));
  return CheckRestored(
      DynamicLvqIndex::Restore(h.dim, opts, std::move(storage),
                               std::move(graph), std::move(deleted),
                               std::move(free_slots), h.n, h.num_deleted,
                               h.entry),
      path);
}

Result<std::unique_ptr<DynamicIndex>> LoadDynamicF32(const std::string& path,
                                                     DynamicOptions opts,
                                                     bool* self_described) {
  Result<DynamicFile> file = SniffDynamicFile(path);
  if (!file.ok()) return file.status();
  return LoadDynamicF32(file.value(), opts, self_described);
}

Result<std::unique_ptr<DynamicLvqIndex>> LoadDynamicLvq(
    const std::string& path, DynamicOptions opts, bool* self_described) {
  Result<DynamicFile> file = SniffDynamicFile(path);
  if (!file.ok()) return file.status();
  return LoadDynamicLvq(file.value(), opts, self_described);
}

}  // namespace blink
