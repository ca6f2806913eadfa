// Metadata artifact IO (DESIGN.md D15, format table).
//
// A metadata store persists as a sidecar next to the index artifact
// (<prefix>.meta for static/dynamic, <dir>/metadata.meta for sharded) so
// filterless v1–v3 artifacts keep opening unchanged: a missing sidecar
// simply means "no metadata". A sidecar that is present must parse — a
// wrong magic fails Open() like a corrupt body, so a damaged file never
// silently drops the filter capability. The sidecar itself is v3-style
// self-describing, every section 64-byte aligned and mmap-clean:
//
//   offset  field
//   ------  -----------------------------------------------------------
//   0       u32 magic "BLMD"
//   4       u32 format version (3)
//   8       u64 row count n
//   16      u32 numeric column count C
//   20      u32 reserved (0)
//   24      u8  column types [C] (0 = i64, 1 = f64)
//   .       pad to 64
//   .       u64 tags[n]                 (64-byte aligned)
//   .       pad to 64
//   .       u64 column 0 cells [n]      (64-byte aligned)
//   .       ... one aligned run per remaining column
//
// Saving goes through binio::AtomicFile (tmp + fsync + rename), matching
// every other artifact writer. MapMetadata is the one parser: it wraps an
// MmapFile with zero copies (MetadataStore::FromExternal). Every Open()
// path reads its sidecar through OpenMetadataSidecar, which views the
// mapping or copies it out, as the index bundles do.
#pragma once

#include <memory>
#include <string>

#include "filter/metadata.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace blink {

/// Writes rows [0, n_rows) atomically; n_rows beyond store.size() clamps.
/// Pass n_rows = store.size() for full saves (dynamic indices persist only
/// the used prefix of their capacity-sized store).
Status SaveMetadata(const std::string& path, const MetadataStore& store,
                    size_t n_rows);
inline Status SaveMetadata(const std::string& path,
                           const MetadataStore& store) {
  return SaveMetadata(path, store, store.size());
}

/// Zero-copy view into `map` (kMap mode); the caller keeps `map` alive for
/// the store's lifetime, exactly like the mapped index bundles.
Result<MetadataStore> MapMetadata(const MmapFile& map);

/// Opens the metadata sidecar at `path`. No file there means no metadata:
/// the result is null. A file that is there is parsed or fails with
/// IOError. With `view` the store aliases a random-access mapping (with
/// huge-page advice per `use_huge_pages`) that the returned pointer keeps
/// alive; otherwise every cell is copied into an owned store, which the
/// caller may mutate.
Result<std::shared_ptr<MetadataStore>> OpenMetadataSidecar(
    const std::string& path, bool view, bool use_huge_pages = true);

}  // namespace blink
