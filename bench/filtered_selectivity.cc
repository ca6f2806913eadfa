// Filtered-search selectivity sweep (DESIGN.md D15).
//
// For each predicate selectivity in {50%, 10%, 1%, 0.1%}, runs the filtered
// static-lvq index under the three execution strategies (auto / post-filter
// / in-search) and reports recall@10 and QPS against brute-force *filtered*
// ground truth. Demonstrates the crossover rule: at high selectivity the
// widened post-filter wins, at <= 1% the in-search push-down both matches
// recall and beats post-filter throughput — and kAuto picks the winner.
//
// Gated (exit 1) on filtered recall@10 >= 0.9 at every selectivity with the
// auto strategy; QPS numbers are reported, not gated (CI runners are too
// noisy to gate throughput).
#include <memory>

#include "common.h"
#include "filter/synthetic.h"

using namespace blinkbench;

namespace {

// Valid-GT-normalized recall: |results ∩ GT| / |valid GT| per query. A
// sparse predicate can match fewer than k rows, so plain recall@k would be
// capped below 1.0 by construction; queries with empty GT are skipped.
double FilteredRecall(const Matrix<uint32_t>& ids, const Matrix<uint32_t>& gt,
                      size_t k) {
  double sum = 0.0;
  size_t counted = 0;
  for (size_t q = 0; q < gt.rows(); ++q) {
    size_t valid = 0, hit = 0;
    for (size_t j = 0; j < k; ++j) {
      const uint32_t want = gt(q, j);
      if (want == UINT32_MAX) continue;
      ++valid;
      for (size_t i = 0; i < k; ++i) {
        if (ids(q, i) == want) {
          ++hit;
          break;
        }
      }
    }
    if (valid == 0) continue;
    sum += static_cast<double>(hit) / static_cast<double>(valid);
    ++counted;
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 1.0;
}

struct Point {
  double recall = 0.0;
  double qps = 0.0;
};

Point Measure(const VamanaIndex<LvqStorage>& index, MatrixViewF queries,
              const Matrix<uint32_t>& fgt, size_t k,
              const SearchOptions& opts, ThreadPool* pool) {
  // Timed by the harness; recall is FilteredRecall's, not the harness's.
  Matrix<uint32_t> ids;
  Point p;
  p.qps = MeasureSetting(index, queries, nullptr, k, opts,
                         {.best_of = 3, .pool = pool}, &ids)
              .qps;
  p.recall = FilteredRecall(ids, fgt, k);
  return p;
}

}  // namespace

int main() {
  Banner("Filtered selectivity sweep",
         "post-filter vs in-search push-down across selectivities");
  const size_t n = ScaledN(60000), nq = 500, k = 10;
  const uint64_t seed = 21;
  Dataset data = MakeDeepLike(n, nq, seed);
  ThreadPool pool(NumThreads());

  auto index =
      BuildOgLvq(data.base, data.metric, 8, 0, GraphParams(24, data.metric),
                 &pool);
  auto md = std::make_shared<const MetadataStore>(
      MakeSyntheticMetadata(n, {ColumnType::kF64}, seed + 7));
  Status attached = index->AttachMetadata(md);
  if (!attached.ok()) {
    std::fprintf(stderr, "%s\n", attached.ToString().c_str());
    return 1;
  }

  struct Case {
    const char* expr;
    double selectivity;
  };
  const Case cases[] = {{"num0<0.5", 0.5},
                        {"num0<0.1", 0.1},
                        {"num0<0.01", 0.01},
                        {"num0<0.001", 0.001}};
  const struct {
    const char* name;
    FilterStrategy strategy;
  } strategies[] = {{"auto", FilterStrategy::kAuto},
                    {"post", FilterStrategy::kPostFilter},
                    {"insearch", FilterStrategy::kInSearch}};

  bool pass = true;
  for (const Case& c : cases) {
    Result<Predicate> parsed = Predicate::Parse(c.expr);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    auto pred = std::make_shared<Predicate>(std::move(parsed).value());
    Matrix<uint32_t> fgt = ComputeFilteredGroundTruth(
        data.base, data.queries, k, data.metric, *md, *pred, &pool);
    const double est = EstimateSelectivity(*md, *pred);
    const FilterPlan picked =
        PlanFilter(FilterStrategy::kAuto, est, md->size(), k, 40, 0);
    std::printf("selectivity %.3f (%s, estimated %.4f, auto -> %s)\n",
                c.selectivity, c.expr, est, picked.name());

    double auto_recall = 0.0;
    for (const auto& s : strategies) {
      SearchOptions opts;
      opts.window = 40;
      opts.filter = pred;
      opts.filter_strategy = s.strategy;
      const Point p = Measure(*index, data.queries, fgt, k, opts, &pool);
      std::printf("  %-8s recall@%zu %.4f  QPS %8.0f\n", s.name, k, p.recall,
                  p.qps);
      if (s.strategy == FilterStrategy::kAuto) auto_recall = p.recall;
    }
    if (auto_recall < 0.9) {
      std::printf("  FAIL: auto-strategy recall %.4f < 0.9\n", auto_recall);
      pass = false;
    }
    std::printf("\n");
  }
  std::printf("filtered recall gate (>= 0.9 at every selectivity): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
