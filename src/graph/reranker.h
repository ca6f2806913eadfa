// The Reranker seam (DESIGN.md D14): the one shared implementation of the
// paper's two-level refinement (Sec. 3.2) — search wide with the primary
// (compressed / reduced-dimension) representation, re-score the top
// `rerank_window` candidates with the storage's secondary view
// (FullDistance), then select the top k.
//
// A storage participates by exposing the secondary-view half of the storage
// concept (graph/storage.h):
//
//   bool  has_second_level()                       — seam present at all?
//   void  PrefetchSecondLevel(id)                  — warm the gather
//   float FullDistance(query, id, decode_scratch)  — secondary re-score
//
// Every flavor — static LVQ-4x8 residuals, the dynamic index's
// insert-time-encoded LVQ arena, LeanVec's full-dimension secondary — routes
// through RescoreCandidates below, called from GraphSearcher's one result
// epilogue (graph/search.h); none carries its own copy of the loop.
// The capability bit (kCapRerank) and Calibrate phase 3 are derived from the
// same seam declaratively, via SpecCapabilities (api/spec.cc).
//
// Determinism note: the re-scored (dist, id) pairs compare by a strict
// total order (ids are unique), so a partial_sort whose prefix covers the
// emitted results yields exactly the same prefix as a full sort. The
// epilogue therefore passes the cheapest `sorted_prefix` that covers what
// it emits: only k over a graph without dead ids (the static index), the
// whole depth otherwise (the dynamic index), because the dead-id skip may
// pass any prefix.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace blink {

/// Re-rank depth: how many of the buffer's sorted primary candidates enter
/// the secondary re-score. `rerank_window == 0` keeps the historical
/// behavior (the whole buffer); otherwise the depth is clamped to at least
/// k so re-ranking can never return fewer results than requested. `slack`
/// widens the depth for candidates that will be filtered after re-scoring:
/// the epilogue passes the dead (tombstoned) entries of its own pool.
inline size_t RerankDepth(size_t buffer_size, size_t k, uint32_t rerank_window,
                          size_t slack = 0) {
  if (rerank_window == 0) return buffer_size;
  return std::min<size_t>(buffer_size,
                          std::max<size_t>(rerank_window, k) + slack);
}

/// The shared re-rank loop: prefetches the secondary view of the top `m`
/// candidates, re-scores each with FullDistance, and sorts the first
/// `sorted_prefix` pairs (the rest stay unordered — see the determinism
/// note above). `buffer` is any sorted candidate sequence exposing
/// `operator[](i).id` (a SearchBuffer or a filtered survivor pool);
/// `decode_scratch` must hold storage.dim() floats.
template <typename Storage, typename Buffer>
void RescoreCandidates(const Storage& storage,
                       const typename Storage::Query& query,
                       const Buffer& buffer, size_t m, size_t sorted_prefix,
                       float* decode_scratch,
                       std::vector<std::pair<float, uint32_t>>* rescored) {
  rescored->clear();
  rescored->reserve(m);
  for (size_t i = 0; i < m; ++i) storage.PrefetchSecondLevel(buffer[i].id);
  for (size_t i = 0; i < m; ++i) {
    const uint32_t id = buffer[i].id;
    rescored->push_back({storage.FullDistance(query, id, decode_scratch), id});
  }
  std::partial_sort(rescored->begin(),
                    rescored->begin() +
                        static_cast<ptrdiff_t>(std::min(sorted_prefix, m)),
                    rescored->end());
}

/// Emits re-scored pairs in ascending distance order, skipping those the
/// predicate rejects (the read view's dead ids: dynamic tombstones, none
/// for the static index), until `k` results are out or the pairs run
/// dry. `ids`/`dists` are cleared first; padding to exactly k is the
/// caller's contract, not this helper's.
template <typename SkipPred>
void EmitRescored(const std::vector<std::pair<float, uint32_t>>& rescored,
                  size_t k, SkipPred skip, std::vector<uint32_t>* ids,
                  std::vector<float>* dists) {
  ids->clear();
  dists->clear();
  for (const auto& [dist, id] : rescored) {
    if (skip(id)) continue;
    ids->push_back(id);
    dists->push_back(dist);
    if (ids->size() == k) break;
  }
}

}  // namespace blink
