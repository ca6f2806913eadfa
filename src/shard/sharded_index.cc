#include "shard/sharded_index.h"

#include <algorithm>
#include <cstring>

#include "simd/distance.h"
#include "util/timer.h"

namespace blink {

// ---------------------------------------------------------------------------
// ShardedSearcher: one warm Searcher per live shard plus merge scratch.
// ---------------------------------------------------------------------------
class ShardedIndex::ShardedSearcher : public Searcher {
 public:
  explicit ShardedSearcher(const ShardedIndex* index)
      : Searcher(index->dim()), index_(index) {
    searchers_.resize(index_->shards_.size());
    for (uint32_t s : index_->live_shards_) {
      searchers_[s] = index_->shards_[s]->MakeSearcher();
    }
  }

 private:
  void SearchFinite(const float* query, size_t k, const SearchOptions& params,
                    uint32_t* ids, float* dists, BatchStats* stats) override {
    const auto& live = index_->live_shards_;
    const MatrixF& centroids = index_->partition_.centroids;
    const size_t d = centroids.cols();

    // Rank live shards by centroid distance (same "lower is better"
    // convention as the storages: squared L2 or negated inner product).
    order_.clear();
    for (uint32_t s : live) {
      const float dist =
          index_->metric_ == Metric::kL2
              ? simd::L2Sqr(query, centroids.row(s), d)
              : simd::IpDist(query, centroids.row(s), d);
      order_.push_back({dist, s});
    }
    if (stats != nullptr) stats->distance_computations += order_.size();

    const size_t nprobe =
        params.nprobe_shards == 0
            ? order_.size()
            : std::min<size_t>(params.nprobe_shards, order_.size());
    std::partial_sort(order_.begin(), order_.begin() + nprobe, order_.end());

    // Probe + merge. Per-shard padded slots (kInvalidId / +inf) are
    // dropped here; the merged row is re-padded below.
    shard_ids_.resize(k);
    shard_dists_.resize(k);
    merged_.clear();
    for (size_t p = 0; p < nprobe; ++p) {
      const uint32_t s = order_[p].shard;
      index_->probe_counts_[s].fetch_add(1, std::memory_order_relaxed);
      searchers_[s]->Search(query, k, params, shard_ids_.data(),
                            shard_dists_.data(), stats);
      const auto& to_global = index_->partition_.shard_to_global[s];
      for (size_t j = 0; j < k; ++j) {
        if (shard_ids_[j] == kInvalidId) break;  // padding is a suffix
        merged_.push_back({shard_dists_[j], to_global[shard_ids_[j]]});
      }
    }
    const size_t keep = std::min(k, merged_.size());
    std::partial_sort(merged_.begin(), merged_.begin() + keep, merged_.end());

    merged_ids_.resize(keep);
    merged_dists_.resize(keep);
    for (size_t j = 0; j < keep; ++j) {
      merged_ids_[j] = merged_[j].id;
      merged_dists_[j] = merged_[j].dist;
    }
    WritePaddedRow(merged_ids_.data(), merged_dists_.data(), keep, k, ids,
                   dists);
  }

  struct Ranked {
    float dist;
    uint32_t shard;
    bool operator<(const Ranked& o) const {
      return dist < o.dist || (dist == o.dist && shard < o.shard);
    }
  };
  struct Merged {
    float dist;
    uint32_t id;  // global
    bool operator<(const Merged& o) const {
      return dist < o.dist || (dist == o.dist && id < o.id);
    }
  };

  const ShardedIndex* index_;
  std::vector<std::unique_ptr<Searcher>> searchers_;  // indexed by shard
  std::vector<Ranked> order_;
  std::vector<uint32_t> shard_ids_;
  std::vector<float> shard_dists_;
  std::vector<Merged> merged_;
  std::vector<uint32_t> merged_ids_;
  std::vector<float> merged_dists_;
};

// ---------------------------------------------------------------------------
// ShardedIndex.
// ---------------------------------------------------------------------------
ShardedIndex::ShardedIndex(std::vector<std::unique_ptr<Shard>> shards,
                           Partition partition, Metric metric,
                           ShardedBuildParams config)
    : shards_(std::move(shards)),
      partition_(std::move(partition)),
      metric_(metric),
      config_(std::move(config)),
      probe_counts_(new std::atomic<uint64_t>[shards_.size()]) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    probe_counts_[s].store(0, std::memory_order_relaxed);
    if (shards_[s] != nullptr && shards_[s]->size() > 0) {
      live_shards_.push_back(static_cast<uint32_t>(s));
    }
  }
}

std::string ShardedIndex::name() const {
  std::string inner = live_shards_.empty()
                          ? std::string("empty")
                          : shards_[live_shards_[0]]->name();
  return "Sharded-S" + std::to_string(shards_.size()) + "[" + inner + "]";
}

size_t ShardedIndex::dim() const { return partition_.centroids.cols(); }

size_t ShardedIndex::memory_bytes() const {
  size_t total = partition_.centroids.size() * sizeof(float) +
                 partition_.global_to_shard.size() * sizeof(uint32_t);
  for (const auto& members : partition_.shard_to_global) {
    total += members.size() * sizeof(uint32_t);
  }
  for (uint32_t s : live_shards_) total += shards_[s]->memory_bytes();
  return total;
}

std::unique_ptr<Searcher> ShardedIndex::MakeSearcher() const {
  return std::make_unique<ShardedSearcher>(this);
}

Status ShardedIndex::AttachMetadata(std::shared_ptr<const MetadataStore> md) {
  if (md == nullptr) {
    for (uint32_t s : live_shards_) {
      BLINK_RETURN_NOT_OK(shards_[s]->AttachMetadata(nullptr));
    }
    metadata_ = nullptr;
    return Status::OK();
  }
  if (md->size() != size()) {
    return Status::InvalidArgument(
        "metadata store has " + std::to_string(md->size()) +
        " rows but the sharded index holds " + std::to_string(size()) +
        " vectors");
  }
  // Slice the global store into per-shard local-id stores. Each probed
  // shard then runs its own filtered search (selectivity estimate and
  // widening against its local rows); the merge in ShardedSearcher sees
  // only surviving candidates, so no global re-filtering is needed.
  for (uint32_t s : live_shards_) {
    auto slice = std::make_shared<MetadataStore>(
        md->Slice(partition_.shard_to_global[s]));
    BLINK_RETURN_NOT_OK(shards_[s]->AttachMetadata(std::move(slice)));
  }
  metadata_ = std::move(md);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Parallel per-shard build.
// ---------------------------------------------------------------------------
std::unique_ptr<ShardedIndex> BuildShardedLvq(MatrixViewF data, Metric metric,
                                              const ShardedBuildParams& params,
                                              ThreadPool* pool) {
  Timer timer;
  Partition partition = PartitionDataset(data, params.partition, pool);
  const size_t S = partition.num_shards();
  const size_t d = data.cols;

  std::vector<std::unique_ptr<ShardedIndex::Shard>> shards(S);
  auto build_shard = [&](size_t s, ThreadPool* shard_pool) {
    const auto& members = partition.shard_to_global[s];
    if (members.empty()) return;
    MatrixF rows(members.size(), d);
    for (size_t l = 0; l < members.size(); ++l) {
      std::memcpy(rows.row(l), data.row(members[l]), d * sizeof(float));
    }
    shards[s] = BuildOgLvq(rows, metric, params.bits1, params.bits2,
                           params.graph, shard_pool);
  };

  if (S == 1) {
    build_shard(0, pool);  // nothing to parallelize across; use the pool
  } else if (pool != nullptr) {
    // One task per shard, each built single-threaded: the parallelism is
    // across shards. Deterministic for any thread count (shard builds are
    // independent and each is internally deterministic).
    pool->ParallelFor(S, [&](size_t s) { build_shard(s, nullptr); });
  } else {
    for (size_t s = 0; s < S; ++s) build_shard(s, nullptr);
  }

  auto index = std::make_unique<ShardedIndex>(
      std::move(shards), std::move(partition), metric, params);
  index->set_build_seconds(timer.Seconds());
  return index;
}

}  // namespace blink
