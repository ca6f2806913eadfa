// LeanVec: learned dimensionality reduction as a search primary, with
// full-dimension re-ranking through the Reranker seam (DESIGN.md D14,
// ROADMAP item 1).
//
// High-dimensional embedding workloads (d = 512–1536) pay the full
// per-hop distance cost during graph traversal even though the intrinsic
// dimensionality of the data is far lower. LeanVec searches in a learned
// d -> d' projection (the top-d' principal directions of a training
// sample, computed with the existing JacobiSvd) and re-scores the
// candidate window against full-dimension vectors — exactly the paper's
// two-level pattern (Sec. 3.2) with "fewer dimensions" playing the role
// of "fewer bits".
//
// LeanVecStorageT composes two existing storages behind the standard
// storage concept (graph/storage.h):
//
//   primary    d'-dimensional projections — traversal Distance()
//   secondary  full-dimension vectors     — FullDistance() re-ranking
//
// so the graph search, builder, serializer and Reranker seam all apply
// unchanged. The shipped flavors are float32/float32 (static-leanvec) and
// LVQ-8/LVQ-8 (static-leanvec-lvq).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/storage.h"
#include "util/linalg.h"
#include "util/matrix.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace blink {

/// The learned projection: y = (x - mean) * proj, proj is (d x d')
/// column-orthonormal (top-d' eigenvectors of the sample covariance).
struct LeanVecModel {
  std::vector<float> mean;  ///< d floats
  MatrixF proj;             ///< d x d', row-major

  size_t dim() const { return mean.size(); }
  size_t reduced_dim() const { return proj.cols(); }
};

/// Default d' when the spec leaves it 0: d/4, floored at 1.
inline size_t DefaultLeanVecDim(size_t d) {
  return d >= 4 ? d / 4 : 1;
}

/// Learns a LeanVec projection from (a sample of) the data: mean, sample
/// covariance via GramProduct, JacobiSvd, top-d' eigenvector selection.
/// Fails with a Status — never silent NaN columns — when the sample is
/// empty, when any of its rows is non-finite (all rows are checked, not
/// only the first `max_sample_rows`, so the builders below reject a bad
/// row anywhere), when reduced_dim is out of (0, d], or when the
/// SVD returns a degenerate basis column (validated per column: finite
/// entries, unit norm). Rank-deficient samples (duplicate rows,
/// zero-variance dims) are fine: one-sided Jacobi keeps V orthonormal
/// even for zero eigenvalues, and the validation proves it.
/// `max_sample_rows` caps the covariance cost on large datasets.
Result<LeanVecModel> TrainLeanVec(MatrixViewF sample, size_t reduced_dim,
                                  size_t max_sample_rows = 16384);

/// y = (x - mean) * proj: projects one data vector into d' space.
void LeanVecProject(const LeanVecModel& model, const float* x, float* y);

/// Projects a query for the primary search. L2 centers like the data
/// (shifts cancel); IP projects the raw query — the dropped <q, mean>
/// term is query-constant and cannot change the candidate order.
void LeanVecProjectQuery(const LeanVecModel& model, Metric metric,
                         const float* q, float* y);

/// Projects every row of `data` (centered) into a new (n x d') matrix.
MatrixF LeanVecProjectAll(const LeanVecModel& model, MatrixViewF data,
                          ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// The composed storage.
// ---------------------------------------------------------------------------

/// Two-level storage: `Primary` holds d'-dimensional projections and
/// serves traversal distances; `Secondary` holds the full d dimensions
/// and serves the Reranker seam's FullDistance. dim() is the full d —
/// callers hand in original-space queries and get original-space decodes;
/// the projection is internal.
template <typename Primary, typename Secondary>
class LeanVecStorageT {
 public:
  struct Query {
    typename Primary::Query primary;
    typename Secondary::Query secondary;
    std::vector<float> projected;  ///< d' scratch for the projection
  };

  LeanVecStorageT() = default;
  /// Adopts trained + encoded parts (the Build and Open paths both end
  /// here).
  LeanVecStorageT(LeanVecModel model, Primary primary, Secondary secondary)
      : model_(std::move(model)),
        primary_(std::move(primary)),
        secondary_(std::move(secondary)) {}

  size_t size() const { return primary_.size(); }
  size_t dim() const { return secondary_.dim(); }
  size_t primary_dim() const { return model_.reduced_dim(); }
  Metric metric() const { return secondary_.metric(); }

  size_t memory_bytes() const {
    return primary_.memory_bytes() + secondary_.memory_bytes() +
           model_.mean.size() * sizeof(float) +
           model_.proj.size() * sizeof(float);
  }
  std::string encoding_name() const {
    std::string s = "LeanVec";
    s += std::to_string(primary_dim());
    s += "-";
    s += primary_.encoding_name();
    return s;
  }

  const LeanVecModel& model() const { return model_; }
  const Primary& primary() const { return primary_; }
  const Secondary& secondary() const { return secondary_; }

  void PrepareQuery(const float* q, Query* out) const {
    out->projected.resize(primary_dim());
    LeanVecProjectQuery(model_, metric(), q, out->projected.data());
    primary_.PrepareQuery(out->projected.data(), &out->primary);
    secondary_.PrepareQuery(q, &out->secondary);
  }

  float Distance(const Query& q, size_t i) const {
    return primary_.Distance(q.primary, i);
  }

  /// Always two-level: searching a projection without full-dimension
  /// re-scoring would cap recall at the projection's accuracy.
  bool has_second_level() const { return true; }

  float FullDistance(const Query& q, size_t i, float* scratch) const {
    return secondary_.FullDistance(q.secondary, i, scratch);
  }

  void DecodeVector(size_t i, float* out) const {
    secondary_.DecodeVector(i, out);
  }

  void Prefetch(size_t i) const { primary_.Prefetch(i); }
  void PrefetchSecondLevel(size_t i) const { secondary_.Prefetch(i); }

 private:
  LeanVecModel model_;
  Primary primary_;
  Secondary secondary_;
};

/// static-leanvec: float32 projections, float32 full-dimension re-rank
/// (exact secondary distances).
using LeanVecStorage = LeanVecStorageT<FloatStorage, FloatStorage>;

/// static-leanvec-lvq: LVQ-8 projections, one-level LVQ-8 full-dimension
/// re-rank (compressed at both levels; ~9 bits/dim total at d' = d/4).
using LeanVecLvqStorage = LeanVecStorageT<LvqStorage, LvqStorage>;

/// Trains the model over `data` and encodes both levels. reduced_dim == 0
/// selects DefaultLeanVecDim(d).
Result<LeanVecStorage> BuildLeanVecStorage(MatrixViewF data, Metric metric,
                                           size_t reduced_dim,
                                           ThreadPool* pool = nullptr);
Result<LeanVecLvqStorage> BuildLeanVecLvqStorage(MatrixViewF data,
                                                 Metric metric,
                                                 size_t reduced_dim,
                                                 ThreadPool* pool = nullptr);

}  // namespace blink
