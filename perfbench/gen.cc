#include "gen.h"

#include <algorithm>
#include <thread>

namespace perfbench {

DeepLike::DeepLike(uint64_t dataset_seed)
    : offset_(kDim), lift_(kDim * kLatent), centers_(kClusters * kLatent) {
  Rng rng(StreamSeed(dataset_seed, 0xD1));
  for (double& o : offset_) o = 0.3 * rng.Normal();
  // Decaying column scales give the latent directions unequal variance,
  // as principal components of real embeddings have.
  for (size_t j = 0; j < kLatent; ++j) {
    const double scale = 1.0 / std::sqrt(1.0 + static_cast<double>(j));
    for (size_t r = 0; r < kDim; ++r) {
      lift_[r * kLatent + j] = scale * rng.Normal() / std::sqrt(double(kLatent));
    }
  }
  for (double& c : centers_) c = 1.5 * rng.Normal();
}

void DeepLike::Row(uint64_t stream_seed, uint64_t i, float* out) const {
  Rng rng(Mix64(stream_seed ^ Mix64(i)));
  const size_t c = rng.Below(kClusters);
  double u[kLatent];
  for (size_t j = 0; j < kLatent; ++j) {
    u[j] = centers_[c * kLatent + j] + rng.Normal();
  }
  double x[kDim];
  double norm = 0.0;
  for (size_t r = 0; r < kDim; ++r) {
    double v = offset_[r] + 0.08 * rng.Normal();
    const double* lift = &lift_[r * kLatent];
    for (size_t j = 0; j < kLatent; ++j) v += lift[j] * u[j];
    x[r] = v;
    norm += v * v;
  }
  const double inv = 1.0 / std::sqrt(norm);
  for (size_t r = 0; r < kDim; ++r) out[r] = static_cast<float>(x[r] * inv);
}

std::vector<float> DeepLike::Rows(uint64_t stream_seed, size_t n,
                                  size_t threads) const {
  std::vector<float> out(n * kDim);
  threads = std::max<size_t>(1, std::min(threads, n / 1024 + 1));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = n * t / threads; i < n * (t + 1) / threads; ++i) {
        Row(stream_seed, i, out.data() + i * kDim);
      }
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

std::vector<MetaRow> MakeMetadata(size_t n) {
  Rng rng(StreamSeed(kDistributionSeed, 0x3E7A));
  std::vector<MetaRow> rows(n);
  for (MetaRow& r : rows) {
    const double u = rng.Uniform();
    r.tags = (u < 0.01 ? 1ull : 0ull) | (rng.Next() & ~1ull & 0xFFull);
    r.num0 = rng.Uniform();
  }
  return rows;
}

bool MetaMatches(const MetaRow& row, FilterKind kind) {
  switch (kind) {
    case FilterKind::kNone: return true;
    case FilterKind::kRare: return (row.tags & 1ull) != 0;
    case FilterKind::kWide: return row.num0 < 0.2;
  }
  return false;
}

std::vector<FilterKind> MakeFilterMix(uint64_t seed, size_t n,
                                      double filtered_share) {
  Rng rng(StreamSeed(seed, 0xF117));
  std::vector<FilterKind> mix(n, FilterKind::kNone);
  for (FilterKind& f : mix) {
    if (rng.Uniform() < filtered_share) {
      f = rng.Below(2) == 0 ? FilterKind::kRare : FilterKind::kWide;
    }
  }
  return mix;
}

std::vector<Op> MakeChurnOps(uint64_t seed, size_t initial, size_t steps,
                             double search_share, size_t consolidate_every,
                             size_t num_queries) {
  Rng rng(StreamSeed(seed, 0xC4A2));
  std::vector<uint32_t> live(initial);
  for (size_t i = 0; i < initial; ++i) live[i] = static_cast<uint32_t>(i);
  uint32_t next_key = static_cast<uint32_t>(initial);
  size_t deletes = 0;
  std::vector<Op> ops;
  ops.reserve(steps * 2);
  for (size_t s = 0; s < steps; ++s) {
    if (rng.Uniform() < search_share) {
      ops.push_back({OpType::kSearch,
                     static_cast<uint32_t>(rng.Below(num_queries))});
      continue;
    }
    const size_t victim = rng.Below(live.size());
    ops.push_back({OpType::kDelete, live[victim]});
    ops.push_back({OpType::kInsert, next_key});
    live[victim] = next_key++;
    if (++deletes % consolidate_every == 0) {
      ops.push_back({OpType::kConsolidate, 0});
    }
  }
  return ops;
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
