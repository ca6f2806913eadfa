// perfbench's own tests: the generators are pure functions of the seed,
// and dyn-churn's op phase repeats exactly.
#include <cstdio>
#include <cstring>

#include "gen.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

template <typename T>
uint64_t Hash(const std::vector<T>& v) {
  return perfbench::Fnv1a(v.data(), v.size() * sizeof(T));
}

uint64_t HashOps(const std::vector<perfbench::Op>& ops) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& op : ops) {
    const uint8_t t = static_cast<uint8_t>(op.type);
    h = perfbench::Fnv1a(&t, 1, h);
    h = perfbench::Fnv1a(&op.arg, sizeof(op.arg), h);
  }
  return h;
}

/// Hash of everything a seed generates for the three workloads.
struct Generated {
  uint64_t base, queries, meta, mix, ops;
};

Generated Generate(uint64_t seed) {
  using namespace perfbench;
  const DeepLike dist(kDistributionSeed);
  Generated g;
  g.base = Hash(dist.Rows(StreamSeed(seed, 0xBA5E), 3000, 3));
  g.queries = Hash(dist.Rows(StreamSeed(seed, 0x0EE7), 500, 1));
  std::vector<uint64_t> meta;
  for (const MetaRow& r : MakeMetadata(3000)) {
    uint64_t bits;
    std::memcpy(&bits, &r.num0, 8);
    meta.push_back(r.tags);
    meta.push_back(bits);
  }
  g.meta = Hash(meta);
  std::vector<uint8_t> mix;
  for (FilterKind f : MakeFilterMix(seed, 3000, 0.2)) mix.push_back(uint8_t(f));
  g.mix = Hash(mix);
  g.ops = HashOps(MakeChurnOps(seed, 1000, 3000, 0.5, 50, 200));
  return g;
}

}  // namespace

int main() {
  using namespace perfbench;
  const Generated a = Generate(7), b = Generate(7), c = Generate(8);
  Expect(a.base == b.base, "same seed: identical base vectors");
  Expect(a.queries == b.queries, "same seed: identical queries");
  Expect(a.meta == b.meta, "same seed: identical metadata");
  Expect(a.mix == b.mix, "same seed: identical predicate mix");
  Expect(a.ops == b.ops, "same seed: identical dyn-churn op sequence");
  Expect(a.base != c.base, "other seed: different base vectors");
  Expect(a.queries != c.queries, "other seed: different queries");
  Expect(a.meta == c.meta, "metadata rows do not depend on the seed");
  Expect(a.mix != c.mix, "other seed: different predicate mix");
  Expect(a.ops != c.ops, "other seed: different op sequence");

  // Row addressing: a row regenerated alone equals the batch row.
  const DeepLike dist(99);
  const std::vector<float> rows = dist.Rows(5, 64, 4);
  std::vector<float> one(kDim);
  dist.Row(5, 37, one.data());
  Expect(std::memcmp(one.data(), &rows[37 * kDim], kDim * 4) == 0,
         "a row regenerated alone equals its batch row");

  // dyn-churn: two runs of the same sequence give the same recall, answers
  // and model verdicts.
  ChurnConfig cfg;
  cfg.initial = 2000;
  cfg.steps = 1500;
  cfg.consolidate_every = 60;
  cfg.num_queries = 300;
  const ChurnInputs in = MakeChurnInputs(11, cfg, 2);
  blink::SearchOptions opts;
  opts.window = 40;
  double recall[2] = {0, 0};
  for (int r = 0; r < 2; ++r) {
    auto index = BuildChurnIndex(in);
    if (!index.ok()) {
      Expect(false, "dyn-churn index builds");
      break;
    }
    const ChurnOutcome out = RunChurnOps(index.value(), in, opts, nullptr);
    Expect(out.failed == 0 && out.model_ok, "dyn-churn ops pass the model");
    recall[r] = out.recall;
  }
  std::printf("dyn-churn recall %.9f / %.9f\n", recall[0], recall[1]);
  Expect(recall[0] == recall[1] && recall[0] > 0.5,
         "dyn-churn recall repeats exactly across two runs");
  return failures == 0 ? 0 : 1;
}
