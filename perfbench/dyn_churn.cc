// dyn-churn: a dynamic LVQ-8 index built by the serial Insert loop, then
// driven by one thread through a seeded interleave of searches, deletes,
// inserts and periodic Consolidate calls that keeps the live count
// constant. The op sequence is a pure function of the seed and nothing
// races it, so every run does identical work and the recall repeats
// exactly.
#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_set>

#include "exact.h"
#include "gen.h"
#include "workloads.h"

namespace perfbench {

using blink::Index;
using blink::MatrixViewF;

namespace {

constexpr size_t kRecallSearches = 400;
constexpr size_t kSetups = 3;
constexpr size_t kConcurrentReaders = 2;
/// Op-sequence steps per requested second of run time.
constexpr double kStepsPerSecond = 6000;

ChurnConfig DefaultConfig(double seconds) {
  ChurnConfig cfg;
  cfg.initial = 10000;
  cfg.steps = std::max<size_t>(1000, static_cast<size_t>(kStepsPerSecond * seconds));
  // Assumed, not measured: half the steps search and half replace a
  // vector, so the read and write paths get equal samples and tombstones
  // pile up between consolidations (README.md, "Traffic mixes").
  cfg.search_share = 0.5;
  // blink_serve --churn consolidates every 512 writer ops; a replacement
  // is two of them.
  cfg.consolidate_every = 256;
  cfg.num_queries = 4000;
  return cfg;
}

}  // namespace

blink::IndexSpec ChurnSpec(size_t capacity) {
  blink::IndexSpec spec;
  spec.kind = blink::IndexKind::kDynamicLvq;
  spec.bits1 = 8;
  spec.bits2 = 0;
  spec.graph.graph_max_degree = 32;
  spec.dynamic.initial_capacity = capacity;
  return spec;
}

ChurnInputs MakeChurnInputs(uint64_t seed, const ChurnConfig& cfg,
                            size_t threads) {
  ChurnInputs in;
  in.cfg = cfg;
  in.ops = MakeChurnOps(seed, cfg.initial, cfg.steps, cfg.search_share,
                        cfg.consolidate_every, cfg.num_queries);
  size_t keys = cfg.initial;
  for (const Op& op : in.ops) keys += op.type == OpType::kInsert;
  const DeepLike dist(kDistributionSeed);
  in.vectors = dist.Rows(StreamSeed(seed, 0xC0DE), keys, threads);
  in.queries = dist.Rows(StreamSeed(seed, 0x0EE7), cfg.num_queries, threads);
  return in;
}

blink::Result<Index> BuildChurnIndex(const ChurnInputs& in) {
  return blink::Build(ChurnSpec(in.vectors.size() / kDim + 1),
                      MatrixViewF(in.vectors.data(), in.cfg.initial, kDim));
}

ChurnOutcome RunChurnOps(Index& index, const ChurnInputs& in,
                         const blink::SearchOptions& opts,
                         Tracer::Lane* lane) {
  ChurnOutcome out;
  auto fail = [&](const std::string& why) {
    if (out.failed++ == 0) out.first_failure = why;
  };
  auto model_fail = [&](const std::string& why) {
    if (out.model_ok) out.model_detail = why;
    out.model_ok = false;
  };
  // The model: which key each slot holds, the tombstones the next
  // Consolidate must purge, and the purged slots the next inserts must
  // recycle before taking fresh ones.
  const size_t num_keys = in.vectors.size() / kDim;
  std::vector<uint32_t> key_slot(num_keys, blink::kInvalidId);
  std::vector<uint32_t> slot_key(num_keys, blink::kInvalidId);
  for (uint32_t k = 0; k < in.cfg.initial; ++k) key_slot[k] = slot_key[k] = k;
  std::vector<uint32_t> tombstones;
  std::unordered_set<uint32_t> purged;
  uint32_t high_water = static_cast<uint32_t>(in.cfg.initial);

  auto searcher = index.MakeSearcher();
  std::vector<uint32_t> ids(kK);
  std::vector<float> dists(kK);
  // Sampled searches, every `stride`-th across the whole sequence so the
  // score sees the late, tombstone-heavy stretches too: op index and the
  // keys of the answer.
  const size_t total_searches = size_t(std::count_if(
      in.ops.begin(), in.ops.end(),
      [](const Op& op) { return op.type == OpType::kSearch; }));
  const size_t stride = std::max<size_t>(1, total_searches / kRecallSearches);
  std::vector<std::pair<size_t, std::vector<uint32_t>>> sampled;
  // The sequence runs as kChurnBlocks blocks, each pinned to the next
  // CPU in turn: one thread would otherwise sit on one core for the whole
  // run, and cores of a shared host differ in speed from minute to minute.
  out.search_us.resize(kChurnBlocks);
  size_t block = 0;
  const uint64_t start = NowNs();
  for (size_t i = 0; i < in.ops.size(); ++i) {
    if (i == in.ops.size() * block / kChurnBlocks) PinToCpu(int(block++));
    const Op& op = in.ops[i];
    ++out.attempted;
    switch (op.type) {
      case OpType::kSearch: {
        blink::BatchStats st;
        const uint64_t a = NowNs();
        {
          Scope s(lane, "graph.dynamic.search", i);
          searcher->Search(&in.queries[size_t(op.arg) * kDim], kK, opts,
                           ids.data(), dists.data(), &st);
        }
        out.search_us[block - 1].push_back(double(NowNs() - a) * 1e-3);
        const bool sample =
            out.searches % stride == 0 && sampled.size() < kRecallSearches;
        ++out.searches;
        out.hops += st.hops;
        out.dists += st.distance_computations;
        std::vector<uint32_t> keys(kK, blink::kInvalidId);
        for (size_t j = 0; j < kK; ++j) {
          if (ids[j] == blink::kInvalidId) {
            fail("search " + std::to_string(i) + " returned padding with " +
                 std::to_string(in.cfg.initial) + " live vectors");
          } else if (ids[j] >= num_keys || slot_key[ids[j]] == blink::kInvalidId) {
            fail("search " + std::to_string(i) + " returned deleted slot " +
                 std::to_string(ids[j]));
          } else {
            keys[j] = slot_key[ids[j]];
          }
        }
        if (sample) sampled.emplace_back(i, keys);
        break;
      }
      case OpType::kDelete: {
        const uint32_t slot = key_slot[op.arg];
        const uint64_t a = NowNs();
        blink::Status st;
        {
          Scope s(lane, "graph.dynamic.delete", i);
          st = index.Delete(slot);
        }
        out.delete_us.push_back(double(NowNs() - a) * 1e-3);
        if (!st.ok()) fail("Delete: " + st.ToString());
        key_slot[op.arg] = slot_key[slot] = blink::kInvalidId;
        tombstones.push_back(slot);
        out.peak_tombstone_ratio = std::max(
            out.peak_tombstone_ratio,
            double(tombstones.size()) / double(in.cfg.initial + tombstones.size()));
        break;
      }
      case OpType::kInsert: {
        const uint64_t a = NowNs();
        blink::Result<uint32_t> id = blink::Status::OK();
        {
          Scope s(lane, "graph.dynamic.insert", i);
          id = index.Insert(&in.vectors[size_t(op.arg) * kDim]);
        }
        out.insert_us.push_back(double(NowNs() - a) * 1e-3);
        if (!id.ok()) {
          fail("Insert: " + id.status().ToString());
          break;
        }
        const uint32_t slot = id.value();
        // A fresh slot while purged ones remain means a tombstone survived
        // its Consolidate; a slot outside both sets was handed out twice.
        if (!purged.empty()) {
          if (purged.erase(slot) == 0) {
            model_fail("insert " + std::to_string(i) + " took slot " +
                       std::to_string(slot) + ", not a purged one");
          }
        } else if (slot != high_water) {
          model_fail("insert " + std::to_string(i) + " took slot " +
                     std::to_string(slot) + ", expected fresh slot " +
                     std::to_string(high_water));
        } else {
          ++high_water;
        }
        if (slot < num_keys) {
          key_slot[op.arg] = slot;
          slot_key[slot] = op.arg;
        }
        break;
      }
      case OpType::kConsolidate: {
        const uint64_t a = NowNs();
        blink::Status st;
        {
          Scope s(lane, "graph.dynamic.consolidate", i);
          st = index.Consolidate();
        }
        out.consolidate_ms.push_back(double(NowNs() - a) * 1e-6);
        if (!st.ok()) fail("Consolidate: " + st.ToString());
        purged.insert(tombstones.begin(), tombstones.end());
        tombstones.clear();
        if (index.size() != in.cfg.initial) {
          model_fail("after op " + std::to_string(i) + " live count " +
                     std::to_string(index.size()) + " != model " +
                     std::to_string(in.cfg.initial));
        }
        ++out.consolidations;
        break;
      }
    }
  }
  out.wall_s = double(NowNs() - start) * 1e-9;
  PinToCpu(-1);
  out.slots = high_water;

  // Recall: replay the model and score the sampled searches against the
  // exact neighbors among the keys live at that point.
  std::vector<char> live(num_keys, 0);
  std::fill(live.begin(), live.begin() + in.cfg.initial, 1);
  size_t next = 0;
  double sum = 0.0;
  std::vector<Hit> heap;
  for (size_t i = 0; i < in.ops.size() && next < sampled.size(); ++i) {
    const Op& op = in.ops[i];
    if (op.type == OpType::kDelete) live[op.arg] = 0;
    if (op.type == OpType::kInsert) live[op.arg] = 1;
    if (op.type != OpType::kSearch || sampled[next].first != i) continue;
    const float* q = &in.queries[size_t(op.arg) * kDim];
    heap.clear();
    for (uint32_t k = 0; k < num_keys; ++k) {
      if (live[k]) PushTopK(heap, {ExactL2(q, &in.vectors[size_t(k) * kDim], kDim), k}, kK);
    }
    const auto& found = sampled[next].second;
    size_t hit = 0;
    for (const auto& h : heap) {
      hit += std::find(found.begin(), found.end(), h.second) != found.end();
    }
    sum += double(hit) / double(kK);
    ++next;
  }
  out.recall = sampled.empty() ? 0.0 : sum / double(sampled.size());
  out.recall_samples = sampled.size();
  return out;
}

void ConcurrentReplay(Index& index, const ChurnInputs& in,
                      const blink::SearchOptions& opts, size_t readers,
                      Report& rep) {
  std::atomic<bool> done{false};
  std::vector<std::vector<double>> lat(readers);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto searcher = index.MakeSearcher();
      std::vector<uint32_t> ids(kK);
      for (size_t q = r; !done.load(std::memory_order_relaxed);
           q = (q + readers) % in.cfg.num_queries) {
        const uint64_t a = NowNs();
        searcher->Search(&in.queries[q * kDim], kK, opts, ids.data(), nullptr,
                         nullptr);
        lat[r].push_back(double(NowNs() - a) * 1e-3);
      }
    });
  }
  const ChurnOutcome writer = RunChurnOps(index, in, opts, nullptr);
  done.store(true);
  for (auto& t : threads) t.join();
  std::vector<double> all;
  for (const auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  rep.Layer("graph.dynamic.concurrent_query_p50_us", Quantile(all, 0.5), "us",
            all.size());
  rep.Check("dyn-churn.concurrent_replay", writer.failed == 0 && writer.model_ok,
            writer.first_failure + writer.model_detail);
}

namespace {

/// The search latencies of the op phase by block; a block's QPS is its
/// searches over the time spent inside them.
Blocks SearchBlocks(const std::vector<std::vector<double>>& us) {
  Blocks blocks;
  for (const auto& part : us) {
    double secs = 0.0;
    for (double u : part) secs += u * 1e-6;
    blocks.Add({part}, part.size(), secs);
  }
  return blocks;
}

/// Builds the churn index and calibrates it; returns the setup seconds.
double SetUp(const ChurnInputs& in, const CalibrationSample& calib,
             blink::ThreadPool* pool,
             Index* index, blink::SearchOptions* opts, double* calib_s,
             std::string* error) {
  const uint64_t t0 = NowNs();
  auto built = BuildChurnIndex(in);
  if (!built.ok()) {
    *error = built.status().ToString();
    return 0.0;
  }
  *index = std::move(built).value();
  const uint64_t t1 = NowNs();
  auto tuned = calib.Tune(*index, pool);
  if (!tuned.ok()) {
    *error = tuned.status().ToString();
    return 0.0;
  }
  *opts = tuned.value();
  const uint64_t t2 = NowNs();
  *calib_s = double(t2 - t1) * 1e-9;
  return double(t2 - t0) * 1e-9;
}

}  // namespace

void RunDynChurn(const RunContext& ctx, Report& rep, Tracer& tracer) {
  const ChurnConfig cfg = DefaultConfig(ctx.seconds);
  const ChurnInputs in = MakeChurnInputs(ctx.seed, cfg, ctx.threads);
  const CalibrationSample calib = MakeCalibrationSample(
      [&](size_t lo, size_t hi, float* out) {
        std::copy(in.vectors.begin() + lo * kDim, in.vectors.begin() + hi * kDim, out);
      },
      cfg.initial, ctx.threads);

  // Set-up, repeated: the serial Insert loop (Build) + Calibrate.
  blink::ThreadPool pool(ctx.threads);
  Index index;
  blink::SearchOptions opts;
  std::vector<double> setup_s, calib_s;
  for (size_t r = 0; r < kSetups; ++r) {
    index = Index();
    std::string error;
    double cs = 0.0;
    const double s = SetUp(in, calib, &pool, &index, &opts, &cs, &error);
    if (!error.empty()) {
      rep.Check("dyn-churn.setup", false, error);
      return;
    }
    setup_s.push_back(s);
    calib_s.push_back(cs);
  }
  rep.Check("dyn-churn.built", index.size() == cfg.initial &&
                                   index.kind() == blink::IndexKind::kDynamicLvq,
            index.name() + " with " + std::to_string(index.size()) + " live");

  const ChurnOutcome main = RunChurnOps(index, in, opts, nullptr);
  rep.Attempt(main.attempted, main.failed);
  rep.Check("dyn-churn.no_failures", main.failed == 0,
            std::to_string(main.failed) + " failed ops " + main.first_failure);
  rep.Check("dyn-churn.model", main.model_ok,
            main.model_ok ? "live count and slot reuse match the op sequence after " +
                                std::to_string(main.consolidations) + " consolidations"
                          : main.model_detail);
  rep.Check("dyn-churn.recall_floor", main.recall >= 0.85,
            "recall@10 " + std::to_string(main.recall) + " >= 0.85");

  // A write replaces a vector: the delete plus the insert that follows it.
  std::vector<double> writes(main.insert_us.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    writes[i] = main.delete_us[i] + main.insert_us[i];
  }
  double maintenance_s = 0.0;
  for (double ms : main.consolidate_ms) maintenance_s += ms * 1e-3;
  const Blocks searches_b = SearchBlocks(main.search_us);
  const double qps = Median(searches_b.qps);
  rep.E2e("qps", qps, "1/s", searches_b.samples);
  rep.E2e("p50_us", Median(searches_b.p50_us), "us", searches_b.samples);
  rep.E2e("p99_us", Median(searches_b.p99_us), "us", searches_b.samples);
  rep.E2e("recall_at_10", main.recall, "ratio", main.recall_samples);
  rep.E2e("setup_s", Median(setup_s), "s", setup_s.size());
  rep.E2e("index_mib", double(index.memory_bytes()) / (1 << 20), "MiB", 1);
  rep.Info("write_p50_us", Quantile(writes, 0.5), "us", writes.size());
  rep.Info("write_p99_us", Quantile(writes, 0.99), "us", writes.size());
  rep.Info("maintenance_s", maintenance_s, "s", main.consolidate_ms.size());
  rep.Info("dyn-churn.window", opts.window, "count", 1);
  const size_t llc = LastLevelCacheBytes();
  rep.Info("dyn-churn.index_bytes_per_llc",
           llc == 0 ? 0.0 : double(index.memory_bytes()) / double(llc), "ratio", 1);

  if (!ctx.traced) return;

  // Traced replay on a fresh, identical index.
  {
    Index replay;
    std::string error;
    double cs = 0.0;
    blink::SearchOptions ro;
    SetUp(in, calib, &pool, &replay, &ro, &cs, &error);
    const ChurnOutcome traced = RunChurnOps(replay, in, ro, LaneOf(tracer));
    rep.Check("dyn-churn.traced_replay_repeats", traced.recall == main.recall,
              "recall " + std::to_string(traced.recall) + " vs " +
                  std::to_string(main.recall));
    double spans_ns = 0.0;
    for (const auto& [name, t] : tracer.Aggregate()) {
      if (name.rfind("graph.dynamic.", 0) == 0) spans_ns += t.self_ns;
    }
    rep.Layer("trace.accounted_ratio", spans_ns * 1e-9 / traced.wall_s, "ratio",
              traced.attempted);
    rep.Layer("trace.overhead_ratio",
              Median(SearchBlocks(traced.search_us).qps) / qps, "ratio",
              traced.searches);
  }

  // The same sequence with readers searching beside the writer.
  {
    Index conc;
    std::string error;
    double cs = 0.0;
    blink::SearchOptions co;
    SetUp(in, calib, &pool, &conc, &co, &cs, &error);
    ConcurrentReplay(conc, in, co, std::min<size_t>(kConcurrentReaders, ctx.threads - 1),
                     rep);
  }

  rep.Layer("graph.dynamic.insert_us", Median(main.insert_us), "us", main.insert_us.size());
  rep.Layer("graph.dynamic.delete_us", Median(main.delete_us), "us", main.delete_us.size());
  rep.Layer("graph.dynamic.consolidate_ms", Median(main.consolidate_ms), "ms",
            main.consolidate_ms.size());
  const double searches = double(main.searches);
  rep.Layer("graph.dynamic.hops_per_query", double(main.hops) / searches, "count",
            main.searches);
  rep.Layer("graph.dynamic.dists_per_query", double(main.dists) / searches, "count",
            main.searches);
  rep.Layer("graph.dynamic.tombstone_ratio_peak", main.peak_tombstone_ratio, "ratio", 1);
  rep.Layer("api.calibrate_s", Median(calib_s), "s", calib_s.size());
  rep.Layer("api.calibrated_window", opts.window, "count", 1);

  ProbeInputs pin;
  pin.index = &index;
  pin.options = opts;
  pin.queries = in.queries.data();
  pin.nq = cfg.num_queries;
  pin.sample = in.vectors.data();
  pin.n_sample = 8000;
  pin.build_spec = ChurnSpec(0);
  pin.build_spec.kind = blink::IndexKind::kStaticLvq;
  pin.threads = ctx.threads;
  pin.llc_bytes = llc;
  pin.work_dir = ctx.work_dir;
  pin.id_space = main.slots;
  LayerCosts costs = ProbeSimd(pin, rep);
  ProbeSearch(pin, rep, &costs);
  ProbeBuild(pin, rep);
  Index copy = ProbeReopen(pin, rep);
  pin.index = &copy;
  ProbeServe(pin, rep);
  ProbeFilter(pin, rep);
  ProbeNet(pin, rep);
  DumpTrace(ctx, tracer, rep);
}

}  // namespace perfbench
