#include "api/calibrate.h"
#include "exact.h"
#include "gen.h"
#include "workloads.h"

namespace perfbench {

CalibrationSample MakeCalibrationSample(const RowSource& base, size_t n,
                                        size_t threads) {
  CalibrationSample s;
  s.queries = DeepLike(kDistributionSeed)
                  .Rows(StreamSeed(kDistributionSeed, 0xCA1B), kCalibQueries);
  const std::vector<uint32_t> truth =
      ExactKnn(base, n, s.queries.data(), kCalibQueries, kDim, kK, threads);
  s.truth = blink::Matrix<uint32_t>(kCalibQueries, kK);
  std::copy(truth.begin(), truth.end(), s.truth.data());
  return s;
}

blink::Result<blink::SearchOptions> CalibrationSample::Tune(
    const blink::Index& index, blink::ThreadPool* pool) const {
  blink::CalibrationTarget target;
  target.target_recall = kTargetRecall;
  target.sample_queries = blink::MatrixViewF(queries.data(), kCalibQueries, kDim);
  target.groundtruth = &truth;
  target.k = kK;
  target.pool = pool;
  return index.Calibrate(target);
}

std::shared_ptr<const blink::MetadataStore> MakeMetadataStore(
    const std::vector<MetaRow>& rows) {
  auto store = std::make_shared<blink::MetadataStore>(
      rows.size(), std::vector<blink::ColumnType>{blink::ColumnType::kF64});
  for (size_t i = 0; i < rows.size(); ++i) {
    store->set_tags(static_cast<uint32_t>(i), rows[i].tags);
    store->SetNumeric(0, static_cast<uint32_t>(i), rows[i].num0);
  }
  return store;
}

}  // namespace perfbench
