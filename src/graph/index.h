// OG-LVQ: the paper's system — an optimized Vamana graph over (optionally
// LVQ-compressed) vector storage, with the Sec. 5 search engine.
//
// VamanaIndex<Storage> is the concrete, monomorphic index; the factory
// functions at the bottom build the configurations evaluated in the paper
// and return them behind the type-erased SearchIndex interface.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/interface.h"
#include "graph/builder.h"
#include "graph/search.h"
#include "graph/storage.h"

namespace blink {

template <typename Storage>
class VamanaIndex : public SearchIndex {
 public:
  /// Builds the graph over the given storage.
  VamanaIndex(Storage storage, const VamanaBuildParams& params,
              ThreadPool* pool = nullptr)
      : storage_(std::move(storage)), build_params_(params) {
    built_ = BuildVamana(storage_, params, pool);
  }

  /// Adopts a pre-built graph (e.g. built from a different storage — the
  /// Sec. 4 "build compressed, search full-precision" experiments).
  VamanaIndex(Storage storage, BuiltGraph graph, VamanaBuildParams params)
      : storage_(std::move(storage)),
        build_params_(params),
        built_(std::move(graph)) {}

  std::string name() const override {
    return std::string("OG-") + storage_.encoding_name() + "-R" +
           std::to_string(build_params_.graph_max_degree);
  }
  size_t size() const override { return storage_.size(); }
  size_t dim() const override { return storage_.dim(); }
  size_t memory_bytes() const override {
    return storage_.memory_bytes() + built_.graph.memory_bytes() +
           (metadata_ != nullptr ? metadata_->memory_bytes() : 0);
  }

  /// The index's one search path: a GraphSearcher (graph/search.h) over
  /// this index's read view, whose visited epochs, query scratch and
  /// filter plan survive across queries.
  std::unique_ptr<Searcher> MakeSearcher() const override {
    return std::make_unique<GraphSearcher<ReadView>>(read_view());
  }

  /// The read view GraphSearcher reads this index through: immutable, so
  /// plain rows, no dead ids and no read guard.
  class ReadView {
   public:
    using StorageT = Storage;
    using Rows = PlainRows;
    using Dead = NoDead;
    static constexpr bool kMayBeEmpty = false;

    explicit ReadView(const VamanaIndex* index) : index_(index) {}
    size_t dim() const { return index_->storage_.dim(); }
    NoReadGuard Lock() const { return {}; }
    const FlatGraph& graph() const { return index_->built_.graph; }
    const Storage& storage() const { return index_->storage_; }
    const MetadataStore* metadata() const { return index_->metadata_.get(); }
    uint32_t entry_point() const { return index_->built_.entry_point; }
    size_t rows() const { return index_->storage_.size(); }
    size_t live_rows() const { return rows(); }
    NoDead dead() const { return {}; }

   private:
    const VamanaIndex* index_;
  };
  ReadView read_view() const { return ReadView(this); }

  const Storage& storage() const { return storage_; }
  const FlatGraph& graph() const { return built_.graph; }
  uint32_t entry_point() const { return built_.entry_point; }
  double build_seconds() const { return built_.build_seconds; }
  const VamanaBuildParams& build_params() const { return build_params_; }

  /// Attaches a per-vector metadata store (row i describes vector i); the
  /// store must cover exactly the index's vectors. Null detaches. Search
  /// honors SearchOptions::filter only while a store is attached.
  Status AttachMetadata(std::shared_ptr<const MetadataStore> md) {
    if (md != nullptr && md->size() != storage_.size()) {
      return Status::InvalidArgument(
          "metadata store has " + std::to_string(md->size()) +
          " rows but the index holds " + std::to_string(storage_.size()) +
          " vectors");
    }
    metadata_ = std::move(md);
    return Status::OK();
  }
  const MetadataStore* metadata() const { return metadata_.get(); }
  std::shared_ptr<const MetadataStore> shared_metadata() const {
    return metadata_;
  }

 private:
  Storage storage_;
  VamanaBuildParams build_params_;
  BuiltGraph built_;
  std::shared_ptr<const MetadataStore> metadata_;
};

// ---------------------------------------------------------------------------
// Factories for the configurations evaluated in the paper.
// ---------------------------------------------------------------------------

/// OG-LVQ with one-level LVQ-B (bits2 == 0) or two-level LVQ-B1xB2.
inline std::unique_ptr<VamanaIndex<LvqStorage>> BuildOgLvq(
    MatrixViewF data, Metric metric, int bits1, int bits2,
    const VamanaBuildParams& bp, ThreadPool* pool = nullptr) {
  return std::make_unique<VamanaIndex<LvqStorage>>(
      LvqStorage(data, metric, bits1, bits2, /*padding=*/32, pool), bp, pool);
}

/// Vamana over full-precision vectors (the paper's "Vamana" baseline).
inline std::unique_ptr<VamanaIndex<FloatStorage>> BuildVamanaF32(
    MatrixViewF data, Metric metric, const VamanaBuildParams& bp,
    ThreadPool* pool = nullptr) {
  return std::make_unique<VamanaIndex<FloatStorage>>(
      FloatStorage(data, metric), bp, pool);
}

/// Vamana over float16 storage (Table 4 baseline).
inline std::unique_ptr<VamanaIndex<F16Storage>> BuildVamanaF16(
    MatrixViewF data, Metric metric, const VamanaBuildParams& bp,
    ThreadPool* pool = nullptr) {
  return std::make_unique<VamanaIndex<F16Storage>>(F16Storage(data, metric),
                                                   bp, pool);
}

/// Vamana over globally-quantized storage (Fig. 12 ablation baseline).
inline std::unique_ptr<VamanaIndex<GlobalQuantStorage>> BuildOgGlobal(
    MatrixViewF data, Metric metric, int bits, int bits2,
    const VamanaBuildParams& bp, ThreadPool* pool = nullptr) {
  return std::make_unique<VamanaIndex<GlobalQuantStorage>>(
      GlobalQuantStorage(data, metric, bits, bits2, GlobalMode::kGlobal, pool),
      bp, pool);
}

}  // namespace blink
