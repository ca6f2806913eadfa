// IVF-PQ with optional full-precision re-ranking — the stand-in for the
// paper's FAISS-IVFPQfs baseline (Figs. 1, 9, 10, 21).
//
// Structure: a coarse k-means partition (nlist inverted lists); residuals
// to the assigned centroid are PQ-encoded. A query probes the `nprobe`
// nearest partitions, scores candidates with a per-list ADC table, and
// optionally re-ranks the best `reorder_k` candidates against the stored
// full-precision vectors (FAISS's refine stage — this is exactly the
// "PQ must keep full-precision vectors around" memory cost the paper
// criticizes in Sec. 6.6; memory_bytes() accounts for it).
//
// Substitution note (DESIGN.md §2): we implement classic ADC lookups, not
// the 4-bit SIMD "fast-scan" kernels; the paper's positioning claims only
// need the index *shape* (flat QPS/footprint across parameters, recall
// gated by re-ranking), which ADC preserves.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/pq.h"
#include "cluster/kmeans.h"
#include "util/matrix.h"

namespace blink {

struct IvfPqParams {
  size_t nlist = 1024;      ///< coarse partitions
  PqParams pq;              ///< residual codec (pq.num_segments = "nbins")
  bool keep_full_vectors = true;  ///< enable the re-ranking stage
  size_t train_sample = 50000;
  uint64_t seed = 11;
};

class IvfPqIndex : public PartitionedPqIndex {
 public:
  IvfPqIndex(MatrixViewF data, Metric metric, const IvfPqParams& params,
             ThreadPool* pool = nullptr);

  std::string name() const override;

  size_t nlist() const { return num_lists(); }

 private:
  IvfPqParams params_;
};

}  // namespace blink
