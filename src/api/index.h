// The public front door (DESIGN.md D10): one spec, one Build, one
// self-describing Open, one handle — across every index flavor.
//
//   IndexSpec spec;                       // what you want
//   spec.kind = IndexKind::kStaticLvq;
//   Result<Index> idx = Build(spec, data);            // build it
//   idx.value().Save("/tmp/my_index");                // persist it
//   Result<Index> back = Open("/tmp/my_index");       // reload — no
//                                                     // metric, no params
//
// Open() sniffs the artifact: a "BLDY" file is a dynamic index, a
// directory with a manifest is a sharded index, a `<prefix>.graph` +
// `<prefix>.vecs` pair is a static bundle whose vecs magic picks the
// storage. Version-2 artifacts embed their own metric and build params;
// the handle they reopen into is configured exactly as the one that was
// saved. Version-1 (pre-API) artifacts still load, using the
// OpenOptions fallbacks.
//
// The Index handle is movable and type-erased. Every flavor searches
// through the same SearchIndex seam the evaluation harness and the
// serving engine already use; mutation (Insert/Delete/Consolidate) is
// forwarded to the dynamic flavors and returns an Unsupported Status on
// the rest — probe `capabilities()` to know without trying.
#pragma once

#include <memory>
#include <string>

#include "api/spec.h"
#include "eval/interface.h"
#include "filter/metadata.h"
#include "serve/engine.h"
#include "util/status.h"

namespace blink {

// The Capabilities bitmask (kCapSearch, kCapSave, ...) lives in
// eval/interface.h next to SearchOptions, whose defaulting is
// capability-aware; it is re-exported here through that include.

struct CalibrationTarget;  // api/calibrate.h

namespace detail {
class IndexImpl;
}  // namespace detail

/// Movable, type-erased handle over any index flavor. A default-constructed
/// handle is empty (operator bool is false); every other method requires a
/// non-empty handle.
class Index {
 public:
  Index();
  explicit Index(std::unique_ptr<detail::IndexImpl> impl);
  ~Index();
  Index(Index&&) noexcept;
  Index& operator=(Index&&) noexcept;
  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  explicit operator bool() const { return impl_ != nullptr; }

  // --- identity ------------------------------------------------------------
  std::string name() const;
  size_t size() const;  ///< live vectors (dynamic flavors exclude tombstones)
  size_t dim() const;
  size_t memory_bytes() const;
  IndexKind kind() const;
  Metric metric() const;
  Capabilities capabilities() const;
  bool has(Capabilities caps) const { return (capabilities() & caps) == caps; }
  /// The (resolved) spec this index was built from or reopened with.
  const IndexSpec& spec() const;
  /// True when the configuration came from the artifact itself (every
  /// Build()-made index; Open() of a version-2 artifact). False only for
  /// reopened version-1 artifacts, which used the OpenOptions fallbacks —
  /// the tools warn-and-ignore --metric exactly when this is true.
  bool self_described() const;

  // --- search --------------------------------------------------------------
  void SearchBatch(MatrixViewF queries, size_t k, const SearchOptions& params,
                   uint32_t* ids, ThreadPool* pool = nullptr) const;
  void SearchBatchEx(MatrixViewF queries, size_t k, const SearchOptions& params,
                     uint32_t* ids, float* dists, BatchStats* stats,
                     ThreadPool* pool = nullptr) const;
  std::unique_ptr<Searcher> MakeSearcher() const;
  /// The underlying type-erased index, for call sites that speak the
  /// eval/interface.h seam directly (RunSweep, ServingEngine, ...). Valid
  /// as long as the handle lives.
  const SearchIndex& AsSearchIndex() const;

  /// Deterministically searches the runtime-knob space (binary search on
  /// `window`, then greedy refinement of `nprobe_shards` and
  /// `rerank_window` where capabilities() says they apply) for the cheapest
  /// SearchOptions meeting `target.target_recall` on the given sample
  /// queries + ground truth. See api/calibrate.h for the target struct and
  /// CalibrateIndex() for the full per-step trace.
  Result<SearchOptions> Calibrate(const CalibrationTarget& target) const;

  // --- persistence ---------------------------------------------------------
  /// Saves a self-describing artifact that Open(path) reconstructs with no
  /// further configuration. Unsupported for baseline-wrapped indices.
  Status Save(const std::string& path) const;

  // --- mutation (dynamic flavors; Unsupported Status otherwise) ------------
  Result<uint32_t> Insert(const float* vec);
  Status Delete(uint32_t id);
  Status Consolidate();

  // --- per-vector metadata (filtered search; DESIGN.md D15) ----------------
  /// Attaches a metadata store keyed by vector id: row i describes vector
  /// i, and the store must cover every id the index holds. On success the
  /// handle gains kCapFilter and SearchOptions::filter becomes usable;
  /// Save() then writes the store as a `.meta` sidecar that Open()
  /// re-attaches. Null detaches and clears the capability. Dynamic flavors
  /// take an owned copy (rows are upserted in place); Unsupported for
  /// baseline-wrapped indices.
  Status AttachMetadata(std::shared_ptr<const MetadataStore> metadata);
  /// The attached store, or null when none. For sharded indices this is
  /// the global-id store (each shard holds a local-id slice).
  const MetadataStore* metadata() const;
  /// Dynamic flavors only: overwrites vector `id`'s metadata row — the tag
  /// bitmask plus the first `num_values` numeric columns (remaining
  /// columns keep their values). Unsupported elsewhere.
  Status UpsertMetadata(uint32_t id, uint64_t tags, const double* values,
                        size_t num_values);

  // --- serving -------------------------------------------------------------
  /// Stands up a ServingEngine over this index (pooled searchers pulling
  /// from one request queue). Validates `options` first — degenerate
  /// settings (queue_capacity == 0) return InvalidArgument instead of an
  /// engine that hangs. The handle must outlive the engine.
  Result<std::unique_ptr<ServingEngine>> Serve(
      const ServingOptions& options) const;

 private:
  std::unique_ptr<detail::IndexImpl> impl_;
};

/// Builds the index `spec` describes over `data`. Validates the spec,
/// resolves defaulted fields (alpha, window), and returns a handle with
/// kCapSave plus the kind's mutation capabilities.
Result<Index> Build(const IndexSpec& spec, MatrixViewF data,
                    ThreadPool* pool = nullptr);

/// Wraps an arbitrary SearchIndex (e.g. a baseline) into a search-only
/// handle — no Save, no mutation. `spec` records the configuration it was
/// built from; the registry uses this for the non-facade baselines.
Index WrapSearchIndex(std::unique_ptr<SearchIndex> index,
                      const IndexSpec& spec);

/// Fallback configuration for artifacts that predate the self-describing
/// (version-2) headers. Ignored for version-2 artifacts.
struct OpenOptions {
  Metric fallback_metric = Metric::kL2;
  VamanaBuildParams fallback_graph;
  /// Capacity floor for reopened dynamic indices (applies to both format
  /// versions; capacity is runtime provisioning, not artifact state).
  size_t dynamic_initial_capacity = 1024;
  bool use_huge_pages = true;
  /// kMap serves static bundles out of a read-only file mapping instead of
  /// copying them onto the heap (out-of-core serving; DESIGN.md D12).
  /// A hint, not a demand: non-static flavors and pre-v3 artifacts fall
  /// back to kLoad — check spec().load_mode for the mode in effect.
  LoadMode load_mode = LoadMode::kLoad;
};

/// Opens any artifact Save() (or the legacy per-flavor savers) produced,
/// sniffing the flavor from the artifact itself. See the file comment for
/// the detection rules.
Result<Index> Open(const std::string& path, const OpenOptions& options = {});

}  // namespace blink
