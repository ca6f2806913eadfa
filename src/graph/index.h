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

  /// The index's one search path: a GreedySearcher (visited epochs, query
  /// scratch, candidate buffer) that survives across queries, plus the
  /// filter plan of the last filtered query. Filtered queries fail closed
  /// (all padded) without usable metadata; ValidateFor rejects that
  /// configuration at the boundaries. A query holding a NaN or an infinity
  /// fails closed too, with no work done: every distance would be NaN,
  /// which the buffer never rejects, so it would scan nearly every row.
  std::unique_ptr<Searcher> MakeSearcher() const override {
    class Pooled : public Searcher {
     public:
      explicit Pooled(const VamanaIndex* index)
          : index_(index),
            searcher_(&index->built_.graph, &index->storage_) {}

      void Search(const float* query, size_t k, const SearchOptions& params,
                  uint32_t* ids, float* dists, BatchStats* stats) override {
        const SearchParams sp = ToSearchParams(params, k);
        if (FirstNonFinite(MatrixViewF(query, 1, index_->dim())) ||
            (params.filter != nullptr && !EnsurePlan(params, sp, k))) {
          res_.ids.clear();
          res_.dists.clear();
          res_.distance_computations = 0;
          res_.hops = 0;
        } else if (params.filter != nullptr) {
          index_->SearchFiltered(searcher_, query, k, sp, plan_, &res_);
        } else {
          searcher_.Search(query, k, index_->built_.entry_point, sp, &res_);
        }
        WritePaddedRow(res_.ids.data(), res_.dists.data(), res_.ids.size(), k,
                       ids, dists);
        if (stats != nullptr) {
          stats->distance_computations += res_.distance_computations;
          stats->hops += res_.hops;
        }
      }

     private:
      /// The filter plan (strategy crossover + widen cap) is cached across
      /// calls keyed on the exact filter configuration, so the pooled
      /// serving path does not re-estimate selectivity per query. The
      /// shared_ptr copy keeps the cache key's address from being recycled.
      bool EnsurePlan(const SearchOptions& p, const SearchParams& sp,
                      size_t k) {
        if (plan_.active && plan_filter_ == p.filter &&
            plan_strategy_ == p.filter_strategy &&
            plan_cap_request_ == p.filter_widen_cap &&
            plan_window_ == sp.window && plan_k_ == k) {
          return true;
        }
        plan_ = FilterPlan();
        if (!index_->MakeFilterPlan(p, sp, k, &plan_)) return false;
        plan_filter_ = p.filter;
        plan_strategy_ = p.filter_strategy;
        plan_cap_request_ = p.filter_widen_cap;
        plan_window_ = sp.window;
        plan_k_ = k;
        return true;
      }

      const VamanaIndex* index_;
      GreedySearcher<Storage> searcher_;
      SearchResult res_;
      FilterPlan plan_;
      std::shared_ptr<const Predicate> plan_filter_;
      FilterStrategy plan_strategy_ = FilterStrategy::kAuto;
      uint32_t plan_cap_request_ = 0;
      uint32_t plan_window_ = 0;
      size_t plan_k_ = 0;
    };
    return std::make_unique<Pooled>(this);
  }

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
  /// Resolved execution plan of one filtered query stream.
  struct FilterPlan {
    bool active = false;
    FilterView view;
    bool push_down = false;
    uint32_t window0 = 0;
    uint32_t widen_cap = 0;
  };

  /// Binds the options' predicate to the attached store and resolves the
  /// strategy crossover, starting window, and widening cap. False (fail
  /// closed) when no metadata is attached or the predicate references
  /// missing columns.
  bool MakeFilterPlan(const SearchOptions& p, const SearchParams& sp, size_t k,
                      FilterPlan* plan) const {
    if (metadata_ == nullptr) return false;
    if (!p.filter->ValidateFor(metadata_->num_columns()).ok()) return false;
    plan->active = true;
    plan->view = FilterView{metadata_.get(), p.filter.get()};
    plan->push_down = ResolveFilterStrategy(*metadata_, *p.filter,
                                            p.filter_strategy) ==
                      FilterStrategy::kInSearch;
    plan->widen_cap =
        ResolveWidenCap(p.filter_widen_cap, storage_.size(), sp.window);
    plan->window0 =
        plan->push_down
            ? ResolveInSearchWindow(EstimateSelectivity(*metadata_, *p.filter),
                                    k, sp.window, plan->widen_cap)
            : sp.window;
    return true;
  }

  /// One filtered query: both strategies run under the shared adaptive
  /// widening loop (RunWidened) until k survivors or the cap. In-search
  /// starts from the selectivity-boosted window the plan resolved.
  void SearchFiltered(GreedySearcher<Storage>& searcher, const float* query,
                      size_t k, const SearchParams& base,
                      const FilterPlan& plan, SearchResult* out) const {
    SearchParams sp = base;
    sp.filter = &plan.view;
    sp.filter_push_down = plan.push_down;
    RunWidened(
        k, plan.window0, plan.widen_cap,
        [&](uint32_t w, SearchResult* res) {
          sp.window = w;
          searcher.Search(query, k, built_.entry_point, sp, res);
        },
        out);
  }

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
