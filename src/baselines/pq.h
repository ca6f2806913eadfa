// Product Quantization (Jégou et al. [33]) — the paper's principal
// compression baseline (Figs. 11, 12) and the substrate of the IVF and
// ScaNN-like baselines.
//
// The vector space is split into M contiguous segments; each segment is
// vector-quantized against its own 2^bits-entry codebook trained with
// k-means. Queries are evaluated with Asymmetric Distance Computation
// (ADC): a per-query lookup table of partial distances, gathered per code —
// the indexed-gather access pattern whose cost under random access the
// paper analyzes in Sec. 7.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/kmeans.h"
#include "eval/interface.h"
#include "graph/storage.h"
#include "util/matrix.h"

namespace blink {

struct PqParams {
  size_t num_segments = 8;      ///< M
  size_t bits_per_segment = 8;  ///< codebook size 2^bits (8 -> 256)
  size_t train_sample = 20000;  ///< max vectors used to train codebooks
  KMeansParams kmeans;
};

/// Trained PQ codebooks plus encode/decode/ADC primitives.
class PqCodec {
 public:
  PqCodec() = default;

  static PqCodec Train(MatrixViewF data, const PqParams& params,
                       ThreadPool* pool = nullptr);

  size_t dim() const { return d_; }
  size_t num_segments() const { return m_; }
  size_t ksub() const { return ksub_; }
  size_t code_bytes() const { return m_; }  // one byte per segment (<=8 bits)

  /// Compression ratio vs float32 (same formula as LVQ's Eq. 5; the paper
  /// defines PQ's footprint as its number of segments at 256 centroids).
  double compression_ratio() const {
    return static_cast<double>(d_) * 4.0 / static_cast<double>(code_bytes());
  }

  void Encode(const float* x, uint8_t* codes) const;
  void Decode(const uint8_t* codes, float* out) const;

  /// Fills a per-query ADC table of m * ksub partial distances:
  /// L2 -> ||q_seg - centroid||^2, IP -> -<q_seg, centroid>.
  void BuildLut(const float* q, Metric metric, float* lut) const;

  float AdcDistance(const float* lut, const uint8_t* codes) const {
    float acc = 0.0f;
    for (size_t s = 0; s < m_; ++s) acc += lut[s * ksub_ + codes[s]];
    return acc;
  }

  /// Segment boundaries: segment s covers [offset(s), offset(s+1)).
  size_t offset(size_t s) const { return offsets_[s]; }
  size_t segment_dim(size_t s) const { return offsets_[s + 1] - offsets_[s]; }
  /// Centroid c of segment s (segment_dim(s) floats).
  const float* centroid(size_t s, size_t c) const {
    return codebooks_.data() + (s * ksub_ + c) * max_dsub_;
  }

 private:
  size_t d_ = 0;
  size_t m_ = 0;
  size_t ksub_ = 0;
  size_t max_dsub_ = 0;
  std::vector<size_t> offsets_;   // m+1
  std::vector<float> codebooks_;  // m * ksub * max_dsub (zero-padded)
};

/// A PQ-encoded dataset (n x m codes) for exhaustive ADC search.
class PqDataset {
 public:
  PqDataset() = default;
  PqDataset(PqCodec codec, MatrixViewF data, ThreadPool* pool = nullptr);

  const PqCodec& codec() const { return codec_; }
  size_t size() const { return codes_.rows(); }
  size_t dim() const { return codec_.dim(); }
  const uint8_t* codes(size_t i) const { return codes_.row(i); }
  void Decode(size_t i, float* out) const { codec_.Decode(codes(i), out); }
  size_t memory_bytes() const { return codes_.size(); }
  double compression_ratio() const { return codec_.compression_ratio(); }

  /// Exhaustive ADC top-k (ascending distance).
  Matrix<uint32_t> ExhaustiveSearch(MatrixViewF queries, size_t k,
                                    Metric metric,
                                    ThreadPool* pool = nullptr) const;

 private:
  PqCodec codec_;
  Matrix<uint8_t> codes_;
};

/// PQ storage for the graph engine (the Sec. 6.7 PQ-under-our-harness
/// ablation, Fig. 12): traversal distances are ADC lookups into the
/// per-query table.
class PqStorage {
 public:
  struct Query {
    std::vector<float> lut;
  };

  PqStorage() = default;
  PqStorage(MatrixViewF data, Metric metric, const PqParams& params,
            ThreadPool* pool = nullptr)
      : metric_(metric) {
    codec_ = PqCodec::Train(data, params, pool);
    ds_ = PqDataset(codec_, data, pool);
  }

  size_t size() const { return ds_.size(); }
  size_t dim() const { return codec_.dim(); }
  Metric metric() const { return metric_; }
  size_t memory_bytes() const { return ds_.memory_bytes(); }
  std::string encoding_name() const { return "PQ"; }

  void PrepareQuery(const float* q, Query* out) const {
    out->lut.resize(codec_.num_segments() * codec_.ksub());
    codec_.BuildLut(q, metric_, out->lut.data());
  }

  float Distance(const Query& q, size_t i) const {
    return codec_.AdcDistance(q.lut.data(), ds_.codes(i));
  }

  bool has_second_level() const { return false; }
  float FullDistance(const Query& q, size_t i, float* /*scratch*/) const {
    return Distance(q, i);
  }
  void PrefetchSecondLevel(size_t /*i*/) const {}

  void DecodeVector(size_t i, float* out) const { ds_.Decode(i, out); }

  void Prefetch(size_t i) const {
    __builtin_prefetch(ds_.codes(i), 0, 3);
  }

 private:
  PqCodec codec_;
  PqDataset ds_;
  Metric metric_ = Metric::kL2;
};

/// The layout the partitioned PQ baselines share (IVF-PQ, ScaNN): a coarse
/// partition whose lists hold PQ codes of the residuals to their centroid,
/// plus the full-precision rows of the optional re-rank stage. A query
/// probes the SearchOptions::nprobe nearest lists, ADC-scans them, and
/// re-ranks the best SearchOptions::reorder_k at full precision; the
/// subclasses differ only in how they train and encode.
class PartitionedPqIndex : public SearchIndex {
 public:
  size_t size() const override { return n_; }
  size_t dim() const override { return d_; }
  size_t memory_bytes() const override;

  /// Reports the distances it ranked by: exact for the re-ranked prefix,
  /// ADC estimates after it. Counts one distance per centroid, scanned
  /// code and re-ranked row.
  std::unique_ptr<Searcher> MakeSearcher() const override;

  size_t num_lists() const { return centroids_.rows(); }
  const PqCodec& codec() const { return codec_; }

 protected:
  PartitionedPqIndex(MatrixViewF data, Metric metric)
      : n_(data.rows), d_(data.cols), metric_(metric) {}

  size_t n_ = 0;
  size_t d_ = 0;
  Metric metric_ = Metric::kL2;
  MatrixF centroids_;  ///< num_lists x d
  PqCodec codec_;      ///< trained on residuals
  std::vector<std::vector<uint32_t>> list_ids_;
  std::vector<std::vector<uint8_t>> list_codes_;  ///< code_bytes per id
  MatrixF full_vectors_;  ///< n x d, or empty without a re-rank stage

 private:
  class ListSearcher;
};

}  // namespace blink
