// Seeded input generators for the perfbench workloads.
//
// Everything a workload feeds the library is made here, from the seed the
// benchmark is given: base vectors, queries, metadata rows, predicates and
// the dyn-churn op sequence. The generators are self-contained (their own
// PRNG, their own normal sampler) so a change to the library can never
// change the inputs the benchmark measures it on.
//
// Vectors are "deep-like": unit-norm, d = 96, drawn from a low-rank
// Gaussian mixture (a 16-d latent mixture of 32 clusters, a fixed random
// 96x16 lift, a per-dimension offset and isotropic noise). Real CNN
// embeddings such as deep-96 have a low intrinsic dimension and clusters;
// the mixture reproduces both, which is what makes graph search behave
// as it does on real data.
//
// Every row is a pure function of (stream seed, row index), so a row can
// be regenerated on its own: the static-mem ground truth streams the
// 900k-row base in chunks instead of keeping it resident.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Seed of an independent stream `tag` derived from a run seed.
inline uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  return Mix64(Mix64(seed) ^ Mix64(tag * 0x2545F4914F6CDD1Dull + 1));
}

/// xoshiro256** seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t z = seed;
    for (auto& s : s_) {
      z += 0x9E3779B97F4A7C15ull;
      uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      s = x ^ (x >> 31);
    }
  }
  uint64_t Next() {
    const uint64_t r = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return r;
  }
  /// Uniform in [0, 1) with 53 bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n), n > 0 (multiply-shift; bias < 2^-32).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * n) >> 64);
  }
  /// Standard normal (Box-Muller, no caching: one draw = two uniforms, so a
  /// row's draws never depend on an odd count before it).
  double Normal() {
    double u1 = Uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

inline constexpr size_t kDim = 96;

/// The deep-like distribution every workload draws from. It is fixed, so
/// the run seed changes which vectors, queries and ops a run gets but not
/// how hard they are: runs with different seeds do comparable work.
inline constexpr uint64_t kDistributionSeed = 0x5747A71C;

/// The fixed parameters of one deep-like distribution.
class DeepLike {
 public:
  static constexpr size_t kLatent = 16;
  static constexpr size_t kClusters = 32;

  explicit DeepLike(uint64_t dataset_seed);

  /// Row `i` of the stream `stream_seed` (kDim floats, unit norm).
  void Row(uint64_t stream_seed, uint64_t i, float* out) const;
  /// Rows [0, n) of a stream, row-major, using `threads` threads.
  std::vector<float> Rows(uint64_t stream_seed, size_t n,
                          size_t threads = 1) const;

 private:
  std::vector<double> offset_;   // kDim
  std::vector<double> lift_;     // kDim x kLatent
  std::vector<double> centers_;  // kClusters x kLatent
};

// --- filtered-search metadata (serve-net) ---------------------------------

/// Metadata of one base row: a tag bitmask and one f64 column. Tag bit 0 is
/// set on ~1% of rows (the in-search predicate); column 0 is uniform in
/// [0, 1), so "num0<0.2" selects ~20% (the post-filter predicate).
struct MetaRow {
  uint64_t tags = 0;
  double num0 = 0.0;
};
/// Row i's metadata depends on i alone, not on the run seed: the library
/// sizes a filtered search from a sampled selectivity estimate, and a
/// seed-dependent estimate would change the work per query from one seed
/// to the next. The seed still decides which vectors carry which rows.
std::vector<MetaRow> MakeMetadata(size_t n);

/// Which predicate a serve-net request carries.
enum class FilterKind : uint8_t { kNone = 0, kRare = 1, kWide = 2 };
inline const char* kRarePredicate = "tag:any=0";   // ~1% of rows
inline const char* kWidePredicate = "num0<0.2";    // ~20% of rows
bool MetaMatches(const MetaRow& row, FilterKind kind);

/// Per-request filter kinds for `n` requests: `filtered_share` of them
/// filtered, split evenly between kRare and kWide.
std::vector<FilterKind> MakeFilterMix(uint64_t seed, size_t n,
                                      double filtered_share);

// --- dyn-churn op sequence -------------------------------------------------

enum class OpType : uint8_t { kInsert = 0, kDelete = 1, kSearch = 2,
                              kConsolidate = 3 };
/// One dyn-churn operation. `arg` is the logical key to insert (its vector
/// is row `arg` of the churn vector stream), the logical key to delete, or
/// the query row to search for.
struct Op {
  OpType type;
  uint32_t arg;
};

/// A seeded interleave over a live set of `initial` keys (keys 0..initial-1
/// are inserted during setup): `steps` steps, each a search with
/// probability `search_share`, else a delete of a uniformly chosen live key
/// followed by an insert of the next fresh key, so the live count stays
/// `initial`. A consolidate follows every `consolidate_every` deletes.
/// Searches draw query rows from [0, num_queries).
std::vector<Op> MakeChurnOps(uint64_t seed, size_t initial, size_t steps,
                             double search_share, size_t consolidate_every,
                             size_t num_queries);

/// FNV-1a over raw bytes (the determinism tests hash generated inputs).
uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h = 0xcbf29ce484222325ull);

}  // namespace perfbench
