// IndexSpec: the declarative description of an index the public API builds
// from (DESIGN.md D10).
//
// One value type covers every flavor the system ships — the paper's static
// OG-LVQ configurations, the full-precision and float16 baselines, the
// partition-then-probe sharded index and the mutable dynamic index — so
// call sites say *what* they want ("two-level LVQ-4x8 over IP, R=64")
// instead of *which constructor* to reach for. Specs validate before any
// work happens, and an Open()ed artifact reconstructs the spec it was
// built from, making artifacts self-describing.
#pragma once

#include <string>

#include "eval/interface.h"
#include "graph/builder.h"
#include "graph/storage.h"
#include "shard/partitioner.h"
#include "util/status.h"

namespace blink {

/// Every index flavor the facade can build, save and reopen.
enum class IndexKind {
  kStaticF32,        ///< Vamana over float32 rows (the paper's "Vamana")
  kStaticF16,        ///< Vamana over float16 rows (Table 4 baseline)
  kStaticLvq,        ///< OG-LVQ: Vamana over LVQ-B / LVQ-B1xB2 (the system)
  kSharded,          ///< partition-then-probe over per-shard OG-LVQ (D8)
  kDynamicF32,       ///< mutable single-writer/multi-reader index, float32
  kDynamicLvq,       ///< mutable index with insert-time LVQ encoding (D9)
  kStaticLeanVec,    ///< learned d->d' projection primary, float32 both (D14)
  kStaticLeanVecLvq, ///< projected LVQ-8 primary, full-dim LVQ-8 secondary
};

/// Stable lowercase name ("static-lvq", "sharded", ...); the registry and
/// the tools' --kind flag both speak it.
const char* KindName(IndexKind kind);

/// How Open() materializes an artifact's payload (DESIGN.md D12). Both
/// modes map the file and run the same parser; they differ only in its
/// last step. kLoad copies every section into owned (huge-page) arenas and
/// drops the mapping; kMap serves the static flavors straight out of the
/// read-only mapping — near-instant open on a warm page cache, and
/// datasets larger than resident memory stay servable because the kernel
/// pages vectors in and out on demand. Requesting kMap is a hint: sharded
/// and dynamic flavors, and pre-v3 (unaligned) artifacts, silently fall
/// back to kLoad, and the spec records the mode actually in effect.
enum class LoadMode { kLoad, kMap };

/// Stable lowercase name ("load" / "map") for tools and reports.
const char* LoadModeName(LoadMode mode);

/// Parses KindName() output; error Status on unknown names.
Result<IndexKind> ParseIndexKind(const std::string& name);

/// Knobs specific to the dynamic flavors. Metric, degree, window and alpha
/// come from the spec's shared fields — the dynamic index simply interprets
/// graph.window_size as its insert-time search window.
struct DynamicSpec {
  size_t initial_capacity = 1024;  ///< slots provisioned before first Grow
};

/// Declarative index description: Build(spec, data) turns it into a live
/// Index. Fields irrelevant to the kind are ignored (e.g. `partition` for
/// an unsharded kind); Validate() rejects contradictory settings.
struct IndexSpec {
  IndexKind kind = IndexKind::kStaticLvq;
  Metric metric = Metric::kL2;

  /// LVQ code widths (kStaticLvq, kSharded, kDynamicLvq). bits2 == 0 means
  /// one-level LVQ-B; > 0 enables the two-level residual re-ranking.
  int bits1 = 8;
  int bits2 = 0;

  /// Vamana construction knobs, shared by every flavor: R, window, alpha,
  /// seed. `alpha` <= 0 selects the metric default (1.2 L2 / 0.95 IP) at
  /// Build time; window_size == 0 selects 2R.
  VamanaBuildParams graph;

  /// Reduced search dimension d' for the LeanVec kinds (D14): the primary
  /// stores d'-dimensional projections of the data, the secondary keeps the
  /// full d dimensions for re-ranking. 0 selects the default d/4 (floored
  /// at 1) at Build time; artifacts record the resolved value.
  size_t leanvec_dim = 0;

  /// Sharding (kSharded only).
  PartitionerParams partition;

  /// Dynamic-index extras (kDynamicF32 / kDynamicLvq only).
  DynamicSpec dynamic;

  /// The payload materialization in effect. Build() always produces kLoad
  /// (a built index is heap-resident by construction); Open() records the
  /// mode it actually used, which may be kLoad even when kMap was
  /// requested (fallback for non-static flavors and pre-v3 artifacts).
  LoadMode load_mode = LoadMode::kLoad;

  /// OK iff the spec describes a buildable configuration.
  Status Validate() const;

  /// The spec with alpha/window defaults resolved (what Build() uses and
  /// artifacts record).
  IndexSpec Resolved() const;
};

/// True for the kinds whose handle supports Insert/Delete/Consolidate.
bool IsDynamicKind(IndexKind kind);

/// True when the flavor described by `spec` carries a secondary view for
/// the Reranker seam (graph/reranker.h): the declarative twin of the
/// storages' has_second_level(). LVQ kinds re-rank iff bits2 > 0; the
/// LeanVec kinds always re-rank (a projection without full-dimension
/// re-scoring would cap recall at the projection's accuracy).
bool SpecHasReranker(const IndexSpec& spec);

/// The capability bitmask an Index built from `spec` reports: search + save
/// for every facade kind, shard probing for kSharded, two-level re-ranking
/// when SpecHasReranker() (the Reranker seam), and the mutation trio for
/// the dynamic kinds. The one definition shared by Build/Open (the
/// handle's capabilities()) and Calibrate (which knobs are worth tuning).
Capabilities SpecCapabilities(const IndexSpec& spec);

}  // namespace blink
