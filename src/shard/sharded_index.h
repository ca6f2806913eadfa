// Sharded index subsystem (DESIGN.md D8): serve datasets larger than one
// graph can build or hold by partitioning them into S independent
// Vamana+LVQ shards.
//
// Build: the Partitioner splits the dataset (balanced k-means or
// round-robin), then every shard's graph is built concurrently on the
// ThreadPool — S independent builds of n/S points each are both
// parallelizable across shards and cheaper in total than one build of n
// (per-insert search cost grows with graph size), which is where the
// build-time speedup in bench/sharded_scale comes from.
//
// Search: partition-then-probe. Per query, rank live shards by centroid
// distance, run the per-shard searchers (warm scratch via each shard's
// MakeSearcher) on the closest `SearchOptions::nprobe_shards` shards, and
// k-way-merge the per-shard top-k into global ids. Shards are disjoint, so
// the merge needs no dedup; padded per-shard slots (kInvalidId / +inf)
// sort last and are dropped, and the merged row is re-padded through
// WritePaddedRow — the eval/interface.h contract holds on every path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eval/interface.h"
#include "graph/index.h"
#include "shard/partitioner.h"

namespace blink {

struct ShardedBuildParams {
  PartitionerParams partition;
  VamanaBuildParams graph;
  int bits1 = 8;  ///< level-1 LVQ bits
  int bits2 = 0;  ///< level-2 residual bits (0 = one-level)
};

class ShardedIndex : public SearchIndex {
 public:
  using Shard = VamanaIndex<LvqStorage>;

  /// Adopts pre-built shards (the loader's path). `shards[s]` may be null
  /// only when partition.shard_to_global[s] is empty. `config` is what
  /// every shard was built with; it is kept even when no shard is live.
  ShardedIndex(std::vector<std::unique_ptr<Shard>> shards,
               Partition partition, Metric metric, ShardedBuildParams config);

  std::string name() const override;
  size_t size() const override { return partition_.total_size(); }
  size_t dim() const override;
  size_t memory_bytes() const override;

  /// Per-thread searcher owning one warm per-shard searcher each, so the
  /// ServingEngine's pooled-searcher path serves sharded indices unchanged.
  std::unique_ptr<Searcher> MakeSearcher() const override;

  size_t num_shards() const { return shards_.size(); }
  /// Null for an empty shard.
  const Shard* shard(size_t s) const { return shards_[s].get(); }
  const Partition& partition() const { return partition_; }
  Metric metric() const { return metric_; }
  /// LVQ encoding and graph build params of the shards: the build's
  /// configuration, or the manifest's on load (the loader checks each
  /// shard's encoding against it).
  int bits1() const { return config_.bits1; }
  int bits2() const { return config_.bits2; }
  const VamanaBuildParams& build_params() const { return config_.graph; }
  double build_seconds() const { return build_seconds_; }
  void set_build_seconds(double s) { build_seconds_ = s; }

  /// Attaches per-vector metadata keyed by *global* id (row i describes
  /// global vector i; must cover exactly size() rows). The global store is
  /// sliced through the partition's local→global maps into per-shard
  /// local-id stores attached to each shard, so filtered searches run
  /// inside each probed shard (widening + strategy crossover per shard)
  /// and the merge sees only surviving candidates. Null detaches.
  Status AttachMetadata(std::shared_ptr<const MetadataStore> md);
  /// The global-id store (null when none attached).
  const MetadataStore* metadata() const { return metadata_.get(); }
  std::shared_ptr<const MetadataStore> shared_metadata() const {
    return metadata_;
  }

  /// Cumulative per-shard probe counts (queries that searched shard s)
  /// since construction — the serving layer's /stats telemetry. Relaxed
  /// atomic counters: totals are exact, cross-shard ordering is not.
  std::vector<uint64_t> probe_counts() const {
    std::vector<uint64_t> counts(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      counts[s] = probe_counts_[s].load(std::memory_order_relaxed);
    }
    return counts;
  }

 private:
  class ShardedSearcher;

  std::vector<std::unique_ptr<Shard>> shards_;
  Partition partition_;
  Metric metric_;
  ShardedBuildParams config_;
  std::vector<uint32_t> live_shards_;  ///< shards with at least one vector
  std::shared_ptr<const MetadataStore> metadata_;  ///< global-id store
  double build_seconds_ = 0.0;
  /// mutable: probing is logically const (search path) but counted.
  mutable std::unique_ptr<std::atomic<uint64_t>[]> probe_counts_;
};

/// Partitions `data` and builds every shard's Vamana+LVQ index, shards
/// concurrently on `pool` (each shard build is single-threaded; with S = 1
/// the one build uses the whole pool). Deterministic for any thread count.
std::unique_ptr<ShardedIndex> BuildShardedLvq(MatrixViewF data, Metric metric,
                                              const ShardedBuildParams& params,
                                              ThreadPool* pool = nullptr);

/// Configure-once builder over BuildShardedLvq, for call sites that build
/// several datasets (or several S values) with one parameter set.
class ShardedBuilder {
 public:
  explicit ShardedBuilder(ShardedBuildParams params)
      : params_(std::move(params)) {}

  std::unique_ptr<ShardedIndex> Build(MatrixViewF data, Metric metric,
                                      ThreadPool* pool = nullptr) const {
    return BuildShardedLvq(data, metric, params_, pool);
  }

  ShardedBuildParams& params() { return params_; }
  const ShardedBuildParams& params() const { return params_; }

 private:
  ShardedBuildParams params_;
};

}  // namespace blink
