#include "quant/leanvec.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace blink {

Result<LeanVecModel> TrainLeanVec(MatrixViewF sample, size_t reduced_dim,
                                  size_t max_sample_rows) {
  const size_t d = sample.cols;
  if (sample.rows == 0 || d == 0) {
    return Status::InvalidArgument("LeanVec: training sample is empty");
  }
  if (reduced_dim == 0) reduced_dim = DefaultLeanVecDim(d);
  if (reduced_dim > d) {
    return Status::InvalidArgument(
        "LeanVec: reduced_dim " + std::to_string(reduced_dim) +
        " exceeds data dimension " + std::to_string(d));
  }
  // Every row is checked, not only the trained prefix: the builders pass
  // the whole dataset, and each of its rows is projected and stored.
  if (const auto bad = FirstNonFinite(sample)) {
    return Status::InvalidArgument(
        "LeanVec: non-finite value at row " + std::to_string(bad->first) +
        ", column " + std::to_string(bad->second));
  }
  const size_t n = std::min(sample.rows, max_sample_rows);

  LeanVecModel model;
  model.mean.assign(d, 0.0f);
  {
    std::vector<double> acc(d, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const float* row = sample.row(i);
      for (size_t j = 0; j < d; ++j) acc[j] += row[j];
    }
    for (size_t j = 0; j < d; ++j) {
      model.mean[j] = static_cast<float>(acc[j] / static_cast<double>(n));
    }
  }

  MatrixF centered(n, d);
  for (size_t i = 0; i < n; ++i) {
    const float* src = sample.row(i);
    float* dst = centered.row(i);
    for (size_t j = 0; j < d; ++j) dst[j] = src[j] - model.mean[j];
  }

  // Sample covariance (unnormalized — scale does not move eigenvectors),
  // then its eigenbasis. The covariance is symmetric PSD, so JacobiSvd's V
  // columns are its eigenvectors and s its eigenvalues; V stays orthonormal
  // even for zero eigenvalues (rank-deficient samples), unlike U.
  const MatrixF cov = GramProduct(centered, centered);
  const SvdResult svd = JacobiSvd(cov);

  std::vector<size_t> order(d);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return svd.s[a] > svd.s[b]; });

  // Top-d' eigenvectors become the projection columns, each validated and
  // re-normalized to unit norm — a degenerate column fails loudly here
  // rather than silently poisoning every projected vector.
  model.proj = MatrixF(d, reduced_dim);
  for (size_t c = 0; c < reduced_dim; ++c) {
    const size_t src_col = order[c];
    double norm2 = 0.0;
    for (size_t i = 0; i < d; ++i) {
      const float v = svd.v(i, src_col);
      if (!std::isfinite(v)) {
        return Status::Internal(
            "LeanVec: SVD produced a non-finite basis column " +
            std::to_string(c));
      }
      norm2 += static_cast<double>(v) * v;
    }
    if (std::fabs(norm2 - 1.0) > 1e-2) {
      return Status::Internal(
          "LeanVec: SVD produced a degenerate basis column " +
          std::to_string(c) + " (norm^2 " + std::to_string(norm2) + ")");
    }
    const float scale = static_cast<float>(1.0 / std::sqrt(norm2));
    for (size_t i = 0; i < d; ++i) {
      model.proj(i, c) = svd.v(i, src_col) * scale;
    }
  }
  return model;
}

void LeanVecProject(const LeanVecModel& model, const float* x, float* y) {
  const size_t d = model.dim();
  const size_t dp = model.reduced_dim();
  for (size_t j = 0; j < dp; ++j) y[j] = 0.0f;
  for (size_t i = 0; i < d; ++i) {
    const float xi = x[i] - model.mean[i];
    const float* row = model.proj.row(i);
    for (size_t j = 0; j < dp; ++j) y[j] += xi * row[j];
  }
}

void LeanVecProjectQuery(const LeanVecModel& model, Metric metric,
                         const float* q, float* y) {
  if (metric == Metric::kL2) {
    LeanVecProject(model, q, y);
    return;
  }
  // IP: project the raw query. <q, x> = <q, mean> + <q, x - mean>, and the
  // first term is the same for every candidate.
  RowTimesMatrix(q, model.proj, y);
}

MatrixF LeanVecProjectAll(const LeanVecModel& model, MatrixViewF data,
                          ThreadPool* pool) {
  MatrixF out(data.rows, model.reduced_dim());
  auto project_row = [&](size_t i) {
    LeanVecProject(model, data.row(i), out.row(i));
  };
  if (pool != nullptr) {
    pool->ParallelFor(data.rows, project_row);
  } else {
    for (size_t i = 0; i < data.rows; ++i) project_row(i);
  }
  return out;
}

Result<LeanVecStorage> BuildLeanVecStorage(MatrixViewF data, Metric metric,
                                           size_t reduced_dim,
                                           ThreadPool* pool) {
  Result<LeanVecModel> model = TrainLeanVec(data, reduced_dim);
  if (!model.ok()) return model.status();
  MatrixF projected = LeanVecProjectAll(model.value(), data, pool);
  FloatStorage primary(MatrixViewF(projected), metric);
  FloatStorage secondary(data, metric);
  return LeanVecStorage(std::move(model).value(), std::move(primary),
                        std::move(secondary));
}

Result<LeanVecLvqStorage> BuildLeanVecLvqStorage(MatrixViewF data,
                                                 Metric metric,
                                                 size_t reduced_dim,
                                                 ThreadPool* pool) {
  Result<LeanVecModel> model = TrainLeanVec(data, reduced_dim);
  if (!model.ok()) return model.status();
  MatrixF projected = LeanVecProjectAll(model.value(), data, pool);
  LvqStorage primary(MatrixViewF(projected), metric, /*bits=*/8,
                     /*padding=*/32, pool);
  LvqStorage secondary(data, metric, /*bits=*/8, /*padding=*/32, pool);
  return LeanVecLvqStorage(std::move(model).value(), std::move(primary),
                           std::move(secondary));
}

}  // namespace blink
