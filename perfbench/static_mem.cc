// static-mem: closed-loop batch-of-one search over a static LVQ-4x8 index
// whose float32 equivalent is more than three times the last-level cache —
// the paper's bandwidth-bound regime.
//
// The 900k-row index takes minutes to build, so it is built once per
// version of the sources that shape it (PrepareStaticMem, keyed by
// --artifact-key) and reopened with Open(kLoad) by every run.
// Its base rows come from a fixed dataset seed; --seed picks the queries.
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

#include "cluster/kmeans.h"
#include "exact.h"
#include "gen.h"
#include "graph/builder.h"
#include "graph/index.h"
#include "graph/serialize.h"
#include "workloads.h"

namespace perfbench {
namespace {

using blink::Index;
using blink::MatrixViewF;

constexpr size_t kStaticN = 900'000;
constexpr uint64_t kBaseStream = 0xBA5E;
constexpr size_t kPartitions = 16;
constexpr uint32_t kDegree = 32;
constexpr size_t kRecallQueries = 500;
constexpr size_t kWarmQueries = 2000;
constexpr size_t kSetups = 3;
constexpr size_t kBlocks = 10;
/// Measured queries per requested second of run time.
constexpr double kQueriesPerSecond = 35000;

std::string Prefix(const std::string& dir, const std::string& key) {
  return dir + "/static-mem-" + key;
}

bool Exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

blink::VamanaBuildParams GraphParams() {
  blink::VamanaBuildParams bp;
  bp.graph_max_degree = kDegree;
  bp.window_size = 64;
  bp.alpha = 1.2f;
  bp.two_passes = true;
  return bp;
}

/// LVQ-4x8 over `rows`, as Build(static-lvq) encodes them.
blink::LvqStorage Lvq48(MatrixViewF rows, blink::ThreadPool* pool) {
  return blink::LvqStorage(rows, blink::Metric::kL2, 4, 8, /*padding=*/32, pool);
}

/// Runs fn(lo, hi) over kChunks contiguous slices of [0, n) on `pool`.
template <typename Fn>
void ForChunks(blink::ThreadPool& pool, size_t n, Fn&& fn) {
  constexpr size_t kChunks = 256;
  pool.ParallelFor(kChunks, [&](size_t c) {
    fn(n * c / kChunks, n * (c + 1) / kChunks);
  });
}

}  // namespace

// The graph is built the way DiskANN builds graphs too large for one pass:
// k-means splits the rows into kPartitions overlapping clusters (each row
// joins its two nearest), the library's Vamana builder wires each cluster
// on its own over the cluster's LVQ-4x8 codes (the storage Build uses for
// static-lvq), and the per-cluster graphs are merged by a union of edges,
// RobustPrune'd back to degree R over the full index's codes. Independent
// single-threaded cluster builds keep all cores busy, where one big build
// is bound by its serial pruning phase; the result is a navigable graph in
// a few minutes instead of tens. The bundle is saved with the library's
// own serializer.
bool PrepareStaticMem(const std::string& work_dir, const std::string& key) {
  const std::string prefix = Prefix(work_dir, key);
  if (Exists(prefix + ".ok")) return true;
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  const uint64_t t_start = NowNs();
  std::fprintf(stderr, "static-mem: building the %zu-row index %s once\n",
               kStaticN, prefix.c_str());

  const DeepLike dist(kDistributionSeed);
  const std::vector<float> base = dist.Rows(kBaseStream, kStaticN, threads);
  const MatrixViewF base_view(base.data(), kStaticN, kDim);
  blink::ThreadPool pool(threads);

  // Partition: k-means on a strided sample, then every row to its two
  // nearest centroids. slot[2i + s] packs (partition << 24 | local index).
  const size_t sample_n = 32768;
  blink::Matrix<float> sample(sample_n, kDim);
  for (size_t i = 0; i < sample_n; ++i) {
    std::copy_n(base_view.row(i * (kStaticN / sample_n)), kDim, sample.row(i));
  }
  blink::KMeansParams kp;
  kp.k = kPartitions;
  kp.max_iters = 10;
  const blink::KMeansResult km = blink::KMeans(sample, kp, &pool);
  std::vector<uint32_t> nearest(2 * kStaticN);
  ForChunks(pool, kStaticN, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const auto two = blink::NearestCentroids(base_view.row(i), km.centroids, 2);
      nearest[2 * i] = two[0];
      nearest[2 * i + 1] = two[1];
    }
  });
  std::vector<std::vector<uint32_t>> members(kPartitions);
  std::vector<uint32_t> slot(2 * kStaticN);
  for (size_t i = 0; i < 2 * kStaticN; ++i) {
    auto& m = members[nearest[i]];
    slot[i] = (nearest[i] << 24) | static_cast<uint32_t>(m.size());
    m.push_back(static_cast<uint32_t>(i / 2));
  }

  // Per-partition builds, one pool task each.
  const blink::VamanaBuildParams bp = GraphParams();
  std::vector<blink::FlatGraph> graphs(kPartitions);
  pool.ParallelFor(kPartitions, [&](size_t p) {
    const auto& ids = members[p];
    std::vector<float> rows(ids.size() * kDim);
    for (size_t j = 0; j < ids.size(); ++j) {
      std::copy_n(base_view.row(ids[j]), kDim, rows.data() + j * kDim);
    }
    const blink::LvqStorage storage =
        Lvq48(MatrixViewF(rows.data(), ids.size(), kDim), nullptr);
    graphs[p] = blink::BuildVamana(storage, bp, nullptr).graph;
  });

  // Merge: union of both clusters' edges, pruned back to R. Distances are
  // taken as BuildVamana takes them: from the decoded row to the codes.
  // The library has no public pruning entry point, so this calls the one
  // BuildVamana uses.
  blink::LvqStorage lvq = Lvq48(base_view, &pool);
  blink::BuiltGraph merged;
  merged.graph = blink::FlatGraph(kStaticN, kDegree);
  ForChunks(pool, kStaticN, [&](size_t lo, size_t hi) {
    std::vector<blink::detail::Candidate> cands;
    std::vector<uint32_t> out;
    std::vector<float> decode(kDim);
    blink::LvqStorage::Query q, prune_q;
    for (size_t i = lo; i < hi; ++i) {
      lvq.DecodeVector(i, decode.data());
      lvq.PrepareQuery(decode.data(), &q);
      cands.clear();
      for (size_t s = 0; s < 2; ++s) {
        const uint32_t p = slot[2 * i + s] >> 24;
        const uint32_t local = slot[2 * i + s] & 0xFFFFFF;
        const blink::FlatGraph& g = graphs[p];
        for (uint32_t e = 0; e < g.degree(local); ++e) {
          const uint32_t id = members[p][g.neighbors(local)[e]];
          cands.push_back({lvq.Distance(q, id), id});
        }
      }
      std::sort(cands.begin(), cands.end());
      cands.erase(std::unique(cands.begin(), cands.end(),
                              [](const auto& a, const auto& b) {
                                return a.id == b.id;
                              }),
                  cands.end());
      blink::detail::RobustPrune(lvq, static_cast<uint32_t>(i), cands,
                                 bp.alpha, kDegree, decode, prune_q, &out);
      merged.graph.SetNeighbors(i, out.data(), static_cast<uint32_t>(out.size()));
    }
  });
  graphs.clear();

  // Entry point: the row whose codes lie nearest the mean, as BuildVamana
  // picks it.
  {
    std::vector<double> acc(kDim, 0.0);
    for (size_t i = 0; i < kStaticN; ++i) {
      for (size_t j = 0; j < kDim; ++j) acc[j] += base_view.row(i)[j];
    }
    std::vector<float> mean(kDim);
    for (size_t j = 0; j < kDim; ++j) mean[j] = float(acc[j] / kStaticN);
    blink::LvqStorage::Query q;
    lvq.PrepareQuery(mean.data(), &q);
    constexpr size_t kChunks = 256;
    std::vector<std::pair<float, uint32_t>> best(kChunks);
    pool.ParallelFor(kChunks, [&](size_t c) {
      const size_t lo = kStaticN * c / kChunks, hi = kStaticN * (c + 1) / kChunks;
      best[c] = {lvq.Distance(q, lo), uint32_t(lo)};
      for (size_t i = lo + 1; i < hi; ++i) {
        best[c] = std::min(best[c], std::pair{lvq.Distance(q, i), uint32_t(i)});
      }
    });
    merged.entry_point = std::min_element(best.begin(), best.end())->second;
  }
  merged.build_seconds = double(NowNs() - t_start) * 1e-9;

  const blink::VamanaIndex<blink::LvqStorage> index(std::move(lvq),
                                                    std::move(merged), bp);
  const blink::Status st = blink::SaveIndexBundle(prefix, index);
  if (!st.ok()) {
    std::fprintf(stderr, "static-mem: save failed: %s\n", st.ToString().c_str());
    return false;
  }
  std::ofstream(prefix + ".ok") << "rows " << kStaticN << " seconds "
                                << double(NowNs() - t_start) * 1e-9 << "\n";
  std::fprintf(stderr, "static-mem: index ready after %.1f s\n",
               double(NowNs() - t_start) * 1e-9);
  return true;
}

void RunStaticMem(const RunContext& ctx, Report& rep, Tracer& tracer) {
  if (!PrepareStaticMem(ctx.work_dir, ctx.artifact_key)) {
    rep.Check("static-mem.prepare", false, "index artifact could not be built");
    return;
  }
  const size_t threads = ctx.threads;
  const size_t llc = LastLevelCacheBytes();
  const double ratio =
      llc == 0 ? 0.0 : double(kStaticN * kDim * sizeof(float)) / double(llc);
  rep.Info("static-mem.f32_bytes_per_llc", ratio, "ratio", 1);
  rep.Check("static-mem.footprint_vs_llc", ratio >= 3.0,
            "float32-equivalent rows are " + std::to_string(ratio) +
                "x the last-level cache (need >= 3; LLC " +
                std::to_string(llc) + " bytes)");
  if (ratio < 3.0) return;

  // Inputs: calibration sample, measured stream, warm-up stream.
  const DeepLike dist(kDistributionSeed);
  const size_t m = std::max<size_t>(
      threads * 1000,
      static_cast<size_t>(kQueriesPerSecond * ctx.seconds) / threads * threads);
  const std::vector<float> queries =
      dist.Rows(StreamSeed(ctx.seed, 0x0EE7), m, threads);
  const std::vector<float> warm =
      dist.Rows(StreamSeed(ctx.seed, 0x3A53), kWarmQueries, threads);

  // Exact neighbours of the calibration sample and of the first measured
  // queries, streaming the base instead of keeping it resident.
  const RowSource base_rows = [&](size_t lo, size_t hi, float* out) {
    for (size_t i = lo; i < hi; ++i) dist.Row(kBaseStream, i, out + (i - lo) * kDim);
  };
  const CalibrationSample calib = MakeCalibrationSample(base_rows, kStaticN, threads);
  const std::vector<uint32_t> gt = ExactKnn(base_rows, kStaticN, queries.data(),
                                            kRecallQueries, kDim, kK, threads);

  // Set-up, repeated: Open(kLoad) + Calibrate.
  blink::ThreadPool pool(threads);
  Index index;
  blink::SearchOptions opts;
  std::vector<double> setup_s, open_s, calib_s;
  for (size_t rep_i = 0; rep_i < kSetups; ++rep_i) {
    index = Index();
    const uint64_t t0 = NowNs();
    blink::OpenOptions oo;
    oo.load_mode = blink::LoadMode::kLoad;
    auto opened = blink::Open(Prefix(ctx.work_dir, ctx.artifact_key), oo);
    const uint64_t t1 = NowNs();
    if (!opened.ok()) {
      rep.Check("static-mem.open", false, opened.status().ToString());
      return;
    }
    index = std::move(opened).value();
    auto tuned = calib.Tune(index, &pool);
    const uint64_t t2 = NowNs();
    if (!tuned.ok()) {
      rep.Check("static-mem.calibrate", false, tuned.status().ToString());
      return;
    }
    opts = tuned.value();
    open_s.push_back(double(t1 - t0) * 1e-9);
    calib_s.push_back(double(t2 - t1) * 1e-9);
    setup_s.push_back(double(t2 - t0) * 1e-9);
  }
  rep.Check("static-mem.kind", index.kind() == blink::IndexKind::kStaticLvq &&
                                   index.spec().bits1 == 4 &&
                                   index.spec().bits2 == 8,
            index.name());

  // Closed loop: `threads` clients, each with its own Searcher, each
  // sending its next query when the previous one returns.
  struct Phase {
    double wall_s = 0;
    std::vector<std::vector<double>> lat_us;  // per client
    uint64_t failed = 0;
  };
  std::vector<uint32_t> ids(kRecallQueries * kK);  // answers scored for recall
  std::vector<float> dists(kRecallQueries * kK);
  auto run_phase = [&](const std::vector<float>& qs, size_t lo, size_t hi,
                       bool record, Tracer* tr) {
    Phase ph;
    std::vector<std::vector<double>> lat(threads);
    std::vector<uint64_t> failed(threads, 0);
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    uint64_t start = 0;
    std::vector<std::thread> clients;
    for (size_t t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        auto searcher = index.MakeSearcher();
        Tracer::Lane* lane = tr != nullptr ? LaneOf(*tr) : nullptr;
        std::vector<uint32_t> local_ids(kK);
        std::vector<float> local_d(kK);
        lat[t].reserve((hi - lo) / threads + 1);
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        for (size_t q = lo + t; q < hi; q += threads) {
          const bool keep = record && q < kRecallQueries;
          uint32_t* out_ids = keep ? &ids[q * kK] : local_ids.data();
          float* out_d = keep ? &dists[q * kK] : local_d.data();
          const uint64_t a = NowNs();
          {
            Scope req(lane, "static.query", q);
            Scope s(lane, "graph.search", q);
            searcher->Search(&qs[q * kDim], kK, opts, out_ids, out_d, nullptr);
          }
          lat[t].push_back(double(NowNs() - a) * 1e-3);
          for (size_t j = 0; j < kK; ++j) {
            if (out_ids[j] == blink::kInvalidId) {
              ++failed[t];
              break;
            }
          }
        }
      });
    }
    while (ready.load() < threads) std::this_thread::yield();
    start = NowNs();
    go.store(true, std::memory_order_release);
    for (auto& c : clients) c.join();
    ph.wall_s = double(NowNs() - start) * 1e-9;
    for (size_t t = 0; t < threads; ++t) ph.failed += failed[t];
    ph.lat_us = std::move(lat);
    return ph;
  };

  // The measured stream runs as kBlocks back-to-back blocks.
  auto run_blocks = [&](bool record, Tracer* tr, uint64_t* failed) {
    Blocks blocks;
    for (size_t b = 0; b < kBlocks; ++b) {
      const size_t lo_b = m * b / kBlocks, hi_b = m * (b + 1) / kBlocks;
      const Phase ph = run_phase(queries, lo_b, hi_b, record, tr);
      blocks.Add(ph.lat_us, (hi_b - lo_b), ph.wall_s);
      *failed += ph.failed;
    }
    return blocks;
  };
  run_phase(warm, 0, kWarmQueries, false, nullptr);
  uint64_t failed = 0;
  const Blocks main = run_blocks(true, nullptr, &failed);
  rep.Attempt(m, failed);

  const double recall = RecallAtK(ids.data(), gt.data(), kRecallQueries, kK);
  rep.Check("static-mem.recall_floor", recall >= 0.85,
            "recall@10 " + std::to_string(recall) + " >= 0.85 at window " +
                std::to_string(opts.window));
  rep.Check("static-mem.no_padding", failed == 0,
            std::to_string(failed) + " queries returned padding");

  const double qps = Median(main.qps);
  rep.E2e("qps", qps, "1/s", m);
  rep.E2e("p50_us", Median(main.p50_us), "us", m);
  rep.E2e("p99_us", Median(main.p99_us), "us", m);
  rep.E2e("recall_at_10", recall, "ratio", kRecallQueries);
  rep.E2e("setup_s", Median(setup_s), "s", setup_s.size());
  rep.E2e("index_mib", double(index.memory_bytes()) / (1 << 20), "MiB", 1);
  rep.Info("static-mem.window", opts.window, "count", 1);
  rep.Info("static-mem.rerank_window", opts.rerank_window, "count", 1);

  if (!ctx.traced) return;

  // Traced replay of the same stream, then the per-layer probes.
  uint64_t traced_failed = 0;
  const Blocks traced = run_blocks(false, &tracer, &traced_failed);
  const double traced_qps = Median(traced.qps);
  rep.Layer("api.open_s", Median(open_s), "s", open_s.size());
  rep.Layer("api.calibrate_s", Median(calib_s), "s", calib_s.size());
  rep.Layer("api.calibrated_window", opts.window, "count", 1);

  ProbeInputs in;
  in.index = &index;
  in.options = opts;
  in.queries = queries.data();
  in.nq = std::min<size_t>(m, 4000);
  const std::vector<float> sample =
      dist.Rows(kBaseStream, 8000, threads);  // the base's first rows
  in.sample = sample.data();
  in.n_sample = 8000;
  in.build_spec.kind = blink::IndexKind::kStaticLvq;
  in.build_spec.bits1 = 4;
  in.build_spec.bits2 = 8;
  in.build_spec.graph = GraphParams();
  in.threads = threads;
  in.llc_bytes = llc;
  in.work_dir = ctx.work_dir;

  LayerCosts costs = ProbeSimd(in, rep);
  ProbeSearch(in, rep, &costs);
  ProbeBuild(in, rep);
  ProbeServe(in, rep);
  ProbeFilter(in, rep);
  ProbeDynamic(in, rep);
  ProbeNet(in, rep);

  const double mean_us = Median(traced.p50_us);
  const double model_us =
      1e-3 * (costs.dists_per_query * costs.ns_per_dist_mem_primary +
              costs.rerank_rows_per_query * costs.ns_per_dist_mem_rerank);
  rep.Layer("trace.accounted_ratio", mean_us > 0 ? model_us / mean_us : 0.0,
            "ratio", traced.samples);
  rep.Layer("trace.overhead_ratio", traced_qps / qps, "ratio", m);
  DumpTrace(ctx, tracer, rep);
}

}  // namespace perfbench
