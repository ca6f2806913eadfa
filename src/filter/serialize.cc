#include "filter/serialize.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/binio.h"

namespace blink {

namespace {

constexpr uint32_t kMetaMagic = 0x444D4C42;  // "BLMD" little-endian
constexpr uint32_t kMetaVersion = 3;         // aligned/mmap-clean, like v3
constexpr size_t kSectionAlign = 64;

// Pads the write cursor (tracked by the caller) up to the next 64-byte
// boundary with zero bytes.
bool WritePad(FILE* f, uint64_t* offset) {
  const uint64_t misalign = *offset % kSectionAlign;
  if (misalign == 0) return true;
  const uint8_t zeros[kSectionAlign] = {};
  const size_t pad = kSectionAlign - misalign;
  if (!binio::WriteAll(f, zeros, pad)) return false;
  *offset += pad;
  return true;
}

struct MetaHeader {
  uint64_t n = 0;
  std::vector<ColumnType> types;
};

// Parses the fixed header; shared by both load modes.
Status ReadHeader(binio::ByteReader* c, MetaHeader* out) {
  uint32_t magic = 0, version = 0, num_cols = 0, reserved = 0;
  if (!c->Read(&magic) || magic != kMetaMagic)
    return Status::InvalidArgument("metadata: bad magic (not a BLMD file)");
  if (!c->Read(&version) || version != kMetaVersion)
    return Status::InvalidArgument("metadata: unsupported format version");
  if (!c->Read(&out->n) || !c->Read(&num_cols) || !c->Read(&reserved))
    return Status::InvalidArgument("metadata: truncated header");
  if (num_cols > 4096)
    return Status::InvalidArgument("metadata: implausible column count");
  out->types.resize(num_cols);
  for (uint32_t i = 0; i < num_cols; ++i) {
    uint8_t t = 0;
    if (!c->Read(&t)) return Status::InvalidArgument("metadata: truncated header");
    if (t > static_cast<uint8_t>(ColumnType::kF64))
      return Status::InvalidArgument("metadata: unknown column type");
    out->types[i] = static_cast<ColumnType>(t);
  }
  return Status::OK();
}

// A 64-byte-aligned run of `bytes`, or nullptr if out of bounds.
const uint8_t* Section(binio::ByteReader* c, size_t bytes) {
  return c->Align(kSectionAlign) ? c->Take(bytes) : nullptr;
}

}  // namespace

Status SaveMetadata(const std::string& path, const MetadataStore& store,
                    size_t n_rows) {
  const uint64_t n = std::min(n_rows, store.size());
  binio::AtomicFile out(path);
  if (!out.ok()) return Status::IOError("metadata: cannot open " + path);
  FILE* f = out.get();
  uint64_t offset = 0;
  bool ok = true;
  auto write_pod = [&](const auto& v) {
    offset += sizeof(v);
    return binio::WritePod(f, v);
  };
  ok = ok && write_pod(kMetaMagic);
  ok = ok && write_pod(kMetaVersion);
  ok = ok && write_pod(n);
  ok = ok && write_pod(static_cast<uint32_t>(store.num_columns()));
  ok = ok && write_pod(uint32_t{0});  // reserved
  for (size_t c = 0; ok && c < store.num_columns(); ++c)
    ok = write_pod(static_cast<uint8_t>(store.column_type(c)));
  ok = ok && WritePad(f, &offset);
  const size_t run = n * sizeof(uint64_t);
  ok = ok && binio::WriteAll(f, store.tags_data(), run);
  offset += run;
  for (size_t c = 0; ok && c < store.num_columns(); ++c) {
    ok = WritePad(f, &offset) && binio::WriteAll(f, store.column_data(c), run);
    offset += run;
  }
  if (!ok) return Status::IOError("metadata: short write to " + path);
  return out.Commit();
}

Result<MetadataStore> MapMetadata(const MmapFile& map) {
  binio::ByteReader c(map.data(), map.size());
  MetaHeader h;
  BLINK_RETURN_NOT_OK(ReadHeader(&c, &h));
  if (h.n > (uint64_t{1} << 32))
    return Status::InvalidArgument("metadata: implausible row count");
  const size_t run = static_cast<size_t>(h.n) * sizeof(uint64_t);
  const uint8_t* tags = Section(&c, run);
  if (tags == nullptr)
    return Status::InvalidArgument("metadata: truncated tags section");
  std::vector<const uint64_t*> cols(h.types.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    const uint8_t* col = Section(&c, run);
    if (col == nullptr)
      return Status::InvalidArgument("metadata: truncated column section");
    cols[i] = reinterpret_cast<const uint64_t*>(col);
  }
  if (c.remaining() != 0)
    return Status::InvalidArgument("metadata: trailing bytes after sections");
  return MetadataStore::FromExternal(static_cast<size_t>(h.n),
                                     std::move(h.types),
                                     reinterpret_cast<const uint64_t*>(tags),
                                     std::move(cols));
}

Result<std::shared_ptr<MetadataStore>> OpenMetadataSidecar(
    const std::string& path, bool view, bool use_huge_pages) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) && !ec) {
    return std::shared_ptr<MetadataStore>();
  }
  MmapFile::Options mopts;
  mopts.random = view;
  mopts.huge_pages = view && use_huge_pages;
  Result<MmapFile> map = MmapFile::Map(path, mopts);
  if (!map.ok()) return map.status();
  Result<MetadataStore> md = MapMetadata(map.value());
  if (!md.ok()) return Status::IOError(path + ": " + md.status().message());
  if (!view) return std::make_shared<MetadataStore>(md.value().OwnedCopy());
  // The view's columns point into the mapping: one allocation owns both,
  // and the returned pointer aliases the store inside it.
  struct Mapped {
    MmapFile map;
    MetadataStore store;
  };
  auto mapped = std::make_shared<Mapped>(
      Mapped{std::move(map).value(), std::move(md).value()});
  return std::shared_ptr<MetadataStore>(mapped, &mapped->store);
}

}  // namespace blink
