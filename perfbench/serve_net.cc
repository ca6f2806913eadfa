// serve-net: a cache-resident static LVQ-8 index served by BlinkServer on
// loopback and loaded closed-loop by two BlinkClient connections, one
// query per request. A seeded share of requests carries a metadata
// predicate: half select ~1% of rows (in-search push-down), half ~20%
// (post-filter). With two requests in flight every micro-batch waits out
// the engine's linger, so framing, sockets, queueing and batching — not
// the search — set the latency.
#include <atomic>
#include <cstring>
#include <thread>

#include "exact.h"
#include "gen.h"
#include "net/client.h"
#include "net/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using blink::Index;
using blink::MatrixViewF;

constexpr size_t kServeN = 20000;
constexpr size_t kClients = 2;
constexpr size_t kServeThreads = 2;
constexpr size_t kWarmRequests = 500;
constexpr size_t kVerifyRequests = 256;
constexpr size_t kSetups = 3;
constexpr size_t kBlocks = 10;
constexpr double kFilteredShare = 0.2;
/// Measured requests per requested second of run time.
constexpr double kRequestsPerSecond = 3500;

blink::IndexSpec ServeSpec() {
  blink::IndexSpec spec;
  spec.kind = blink::IndexKind::kStaticLvq;
  spec.bits1 = 8;
  spec.bits2 = 0;
  spec.graph.graph_max_degree = 32;
  return spec;
}

/// The options a request of filter kind `f` is sent with.
blink::SearchOptions OptionsFor(const blink::SearchOptions& base,
                                FilterKind f) {
  blink::SearchOptions o = base;
  if (f != FilterKind::kNone) {
    o.filter = std::make_shared<const blink::Predicate>(
        blink::Predicate::Parse(f == FilterKind::kRare ? kRarePredicate
                                                       : kWidePredicate)
            .value());
  }
  return o;
}

bool SameBits(const uint32_t* a_ids, const float* a_d, const uint32_t* b_ids,
              const float* b_d, size_t n) {
  return std::memcmp(a_ids, b_ids, n * sizeof(uint32_t)) == 0 &&
         std::memcmp(a_d, b_d, n * sizeof(float)) == 0;
}

}  // namespace

void RunServeNet(const RunContext& ctx, Report& rep, Tracer& tracer) {
  const size_t threads = ctx.threads;
  const DeepLike dist(kDistributionSeed);
  const std::vector<float> base =
      dist.Rows(StreamSeed(ctx.seed, 0xBA5E), kServeN, threads);
  const std::vector<MetaRow> meta = MakeMetadata(kServeN);
  const auto store = MakeMetadataStore(meta);
  const size_t m = std::max<size_t>(
      kClients * 1000,
      static_cast<size_t>(kRequestsPerSecond * ctx.seconds) / kClients * kClients);
  const std::vector<float> queries =
      dist.Rows(StreamSeed(ctx.seed, 0x0EE7), m, threads);
  const std::vector<FilterKind> mix = MakeFilterMix(ctx.seed, m, kFilteredShare);
  const std::vector<float> warm =
      dist.Rows(StreamSeed(ctx.seed, 0x3A53), kWarmRequests * kClients);
  const RowSource rows = [&](size_t lo, size_t hi, float* out) {
    std::copy(base.begin() + lo * kDim, base.begin() + hi * kDim, out);
  };

  const CalibrationSample calib = MakeCalibrationSample(rows, kServeN, threads);

  // Set-up, repeated: Build + attach metadata + Calibrate.
  blink::ThreadPool pool(threads);
  Index index;
  blink::SearchOptions opts;
  std::vector<double> setup_s, build_s, build_cores, calib_s;
  for (size_t r = 0; r < kSetups; ++r) {
    index = Index();
    const uint64_t t0 = NowNs();
    const double cpu0 = ProcessCpuSeconds();
    auto built = blink::Build(ServeSpec(), MatrixViewF(base.data(), kServeN, kDim),
                              &pool);
    const uint64_t t1 = NowNs();
    const double cpu1 = ProcessCpuSeconds();
    if (!built.ok()) {
      rep.Check("serve-net.build", false, built.status().ToString());
      return;
    }
    index = std::move(built).value();
    const blink::Status attached = index.AttachMetadata(store);
    auto tuned = calib.Tune(index, &pool);
    const uint64_t t2 = NowNs();
    if (!attached.ok() || !tuned.ok()) {
      rep.Check("serve-net.setup", false,
                attached.ok() ? tuned.status().ToString() : attached.ToString());
      return;
    }
    opts = tuned.value();
    setup_s.push_back(double(t2 - t0) * 1e-9);
    build_s.push_back(double(t1 - t0) * 1e-9);
    build_cores.push_back((cpu1 - cpu0) / (double(t1 - t0) * 1e-9));
    calib_s.push_back(double(t2 - t1) * 1e-9);
  }
  const size_t llc = LastLevelCacheBytes();
  rep.Info("serve-net.index_bytes_per_llc",
           llc == 0 ? 0.0 : double(index.memory_bytes()) / double(llc), "ratio", 1);

  // The same requests through the three paths — a direct Searcher, the
  // ServingEngine (sync and async) and, below, the network client — must
  // agree on every id and every distance bit.
  const size_t nv = std::min(kVerifyRequests, m);
  std::vector<uint32_t> direct_ids(nv * kK), sync_ids(nv * kK), async_ids(nv * kK);
  std::vector<float> direct_d(nv * kK), sync_d(nv * kK), async_d(nv * kK);
  {
    auto searcher = index.MakeSearcher();
    blink::ServingOptions so;
    so.num_threads = kServeThreads;
    auto engine = index.Serve(so);
    if (!engine.ok()) {
      rep.Check("serve-net.engine", false, engine.status().ToString());
      return;
    }
    for (size_t q = 0; q < nv; ++q) {
      const blink::SearchOptions o = OptionsFor(opts, mix[q]);
      searcher->Search(&queries[q * kDim], kK, o, &direct_ids[q * kK],
                       &direct_d[q * kK], nullptr);
      engine.value()->SearchBatch(MatrixViewF(&queries[q * kDim], 1, kDim), kK, o,
                                  &sync_ids[q * kK], &sync_d[q * kK]);
      blink::SearchResult res =
          engine.value()->Submit(&queries[q * kDim], kK, o).get();
      if (res.ids.size() == kK && res.dists.size() == kK) {
        std::copy(res.ids.begin(), res.ids.end(), &async_ids[q * kK]);
        std::copy(res.dists.begin(), res.dists.end(), &async_d[q * kK]);
      }
    }
  }
  rep.Check("serve-net.engine_sync_equals_searcher",
            SameBits(direct_ids.data(), direct_d.data(), sync_ids.data(),
                     sync_d.data(), nv * kK),
            std::to_string(nv) + " requests, ids and distance bits");
  rep.Check("serve-net.engine_async_equals_searcher",
            SameBits(direct_ids.data(), direct_d.data(), async_ids.data(),
                     async_d.data(), nv * kK),
            std::to_string(nv) + " requests, ids and distance bits");

  // Probes that need the index itself run on a Save/Open copy, before the
  // server takes the original.
  Index probe_index;
  ProbeInputs in;
  if (ctx.traced) {
    in.options = opts;
    in.queries = queries.data();
    in.nq = std::min<size_t>(m, 2000);
    in.sample = base.data();
    in.n_sample = 8000;
    in.build_spec = ServeSpec();
    in.threads = threads;
    in.llc_bytes = llc;
    in.work_dir = ctx.work_dir;
    in.index = &index;
    probe_index = ProbeReopen(in, rep);
    in.index = &probe_index;
  }

  const double index_mib = double(index.memory_bytes()) / (1 << 20);
  blink::net::ServerOptions server_opts;
  server_opts.serving.num_threads = kServeThreads;
  auto server = blink::net::BlinkServer::Start(std::move(index), server_opts);
  if (!server.ok()) {
    rep.Check("serve-net.server", false, server.status().ToString());
    return;
  }
  const uint16_t port = server.value()->port();

  struct Phase {
    double wall_s = 0;
    std::vector<std::vector<double>> lat_us;  // unfiltered, per client
    std::vector<double> filtered_lat_us;
    uint64_t failed = 0;
    std::string first_failure;
  };
  std::vector<uint32_t> ids(m * kK);
  std::vector<float> dists(m * kK);
  // Closed loop: each client sends its next request when the previous
  // reply has arrived; client c owns requests c, c + kClients, ...
  auto run_phase = [&](const std::vector<float>& qs, size_t lo, size_t hi,
                       const std::vector<FilterKind>* kinds, bool record,
                       Tracer* tr) {
    Phase ph;
    std::vector<std::vector<double>> lat(kClients), flat(kClients);
    std::vector<uint64_t> failed(kClients, 0);
    std::vector<std::string> why(kClients);
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto client = blink::net::BlinkClient::Connect("127.0.0.1", port);
        Tracer::Lane* lane = tr != nullptr ? LaneOf(*tr) : nullptr;
        const blink::SearchOptions plain = OptionsFor(opts, FilterKind::kNone);
        const blink::SearchOptions rare = OptionsFor(opts, FilterKind::kRare);
        const blink::SearchOptions wide = OptionsFor(opts, FilterKind::kWide);
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        if (!client.ok()) {
          failed[c] = (hi - lo) / kClients;
          why[c] = client.status().ToString();
          return;
        }
        blink::net::SearchResponse resp;
        for (size_t q = lo + c; q < hi; q += kClients) {
          const FilterKind f = kinds != nullptr ? (*kinds)[q] : FilterKind::kNone;
          const blink::SearchOptions& o =
              f == FilterKind::kNone ? plain : (f == FilterKind::kRare ? rare : wide);
          const uint64_t a = NowNs();
          blink::Status st;
          {
            Scope req(lane, "serve-net.request", q);
            Scope s(lane, "net.client.search", q);
            st = client.value().Search(MatrixViewF(&qs[q * kDim], 1, kDim),
                                       kK, o, &resp);
          }
          const double us = double(NowNs() - a) * 1e-3;
          (f == FilterKind::kNone ? lat[c] : flat[c]).push_back(us);
          bool ok = st.ok() && resp.status == blink::net::WireStatus::kOk &&
                    resp.ids.size() == kK && resp.dists.size() == kK;
          // Every predicate matches far more than k rows, so a padding
          // slot is a failure too.
          for (size_t j = 0; ok && j < kK; ++j) {
            ok = resp.ids[j] != blink::kInvalidId;
          }
          if (!ok) {
            if (failed[c]++ == 0) {
              why[c] = !st.ok() ? st.ToString()
                                : std::string("wire status ") +
                                      blink::net::WireStatusName(resp.status);
            }
            continue;
          }
          if (record) {
            std::copy(resp.ids.begin(), resp.ids.end(), &ids[q * kK]);
            std::copy(resp.dists.begin(), resp.dists.end(), &dists[q * kK]);
          }
        }
      });
    }
    while (ready.load() < kClients) std::this_thread::yield();
    const uint64_t start = NowNs();
    go.store(true, std::memory_order_release);
    for (auto& c : clients) c.join();
    ph.wall_s = double(NowNs() - start) * 1e-9;
    for (size_t c = 0; c < kClients; ++c) {
      ph.filtered_lat_us.insert(ph.filtered_lat_us.end(), flat[c].begin(),
                                flat[c].end());
      ph.failed += failed[c];
      if (ph.first_failure.empty()) ph.first_failure = why[c];
    }
    ph.lat_us = std::move(lat);
    return ph;
  };

  // The measured stream runs as kBlocks back-to-back blocks.
  auto run_blocks = [&](bool record, Tracer* tr, Phase* all) {
    Blocks blocks;
    for (size_t b = 0; b < kBlocks; ++b) {
      const Phase ph = run_phase(queries, m * b / kBlocks, m * (b + 1) / kBlocks,
                                 &mix, record, tr);
      const size_t lo_b = m * b / kBlocks, hi_b = m * (b + 1) / kBlocks;
      blocks.Add(ph.lat_us, hi_b - lo_b, ph.wall_s);
      all->filtered_lat_us.insert(all->filtered_lat_us.end(),
                                  ph.filtered_lat_us.begin(), ph.filtered_lat_us.end());
      all->failed += ph.failed;
      if (all->first_failure.empty()) all->first_failure = ph.first_failure;
    }
    return blocks;
  };
  run_phase(warm, 0, kWarmRequests * kClients, nullptr, false, nullptr);
  Phase all;
  const Blocks main = run_blocks(true, nullptr, &all);
  rep.Attempt(m, all.failed);
  rep.Check("serve-net.no_failures", all.failed == 0,
            std::to_string(all.failed) + " of " + std::to_string(m) +
                " requests failed " + all.first_failure);
  rep.Check("serve-net.client_equals_searcher",
            SameBits(direct_ids.data(), direct_d.data(), ids.data(),
                     dists.data(), nv * kK),
            std::to_string(nv) + " requests, ids and distance bits");

  // Recall: unfiltered requests against the exact neighbors, filtered ones
  // against the exact neighbors among the rows their predicate admits.
  std::vector<size_t> plain_q, filt_q;
  for (size_t q = 0; q < m; ++q) {
    auto& v = mix[q] == FilterKind::kNone ? plain_q : filt_q;
    if (v.size() < 300) v.push_back(q);
  }
  auto score = [&](const std::vector<size_t>& picked) {
    std::vector<float> qv;
    std::vector<uint32_t> found;
    for (size_t q : picked) {
      qv.insert(qv.end(), &queries[q * kDim], &queries[(q + 1) * kDim]);
      found.insert(found.end(), &ids[q * kK], &ids[(q + 1) * kK]);
    }
    const std::vector<uint32_t> truth = ExactKnn(
        rows, kServeN, qv.data(), picked.size(), kDim, kK, threads,
        [&](size_t qi, size_t i) { return MetaMatches(meta[i], mix[picked[qi]]); });
    return RecallAtK(found.data(), truth.data(), picked.size(), kK);
  };
  const double recall = score(plain_q);
  const double frecall = score(filt_q);
  rep.Check("serve-net.recall_floor", recall >= 0.85,
            "recall@10 " + std::to_string(recall) + " >= 0.85");
  rep.Check("serve-net.filtered_recall_floor", frecall >= 0.85,
            "filtered recall@10 " + std::to_string(frecall) + " >= 0.85");

  const double qps = Median(main.qps);
  rep.E2e("qps", qps, "1/s", m);
  rep.E2e("p50_us", Median(main.p50_us), "us", main.samples);
  rep.E2e("p99_us", Median(main.p99_us), "us", main.samples);
  rep.E2e("recall_at_10", recall, "ratio", plain_q.size());
  rep.E2e("setup_s", Median(setup_s), "s", setup_s.size());
  rep.E2e("index_mib", index_mib, "MiB", 1);
  rep.Info("filtered_p50_us", Quantile(all.filtered_lat_us, 0.5), "us",
           all.filtered_lat_us.size());
  rep.Info("filtered_p99_us", Quantile(all.filtered_lat_us, 0.99), "us",
           all.filtered_lat_us.size());
  rep.Info("filtered_recall_at_10", frecall, "ratio", filt_q.size());
  rep.Info("serve-net.window", opts.window, "count", 1);

  if (!ctx.traced) return;

  Phase traced_all;
  const Blocks traced = run_blocks(false, &tracer, &traced_all);
  server.value()->Stop();
  rep.Layer("graph.build.s", Median(build_s), "s", build_s.size());
  rep.Layer("graph.build.cpu_util", Median(build_cores), "cores", build_cores.size());
  rep.Layer("api.calibrate_s", Median(calib_s), "s", calib_s.size());
  rep.Layer("api.calibrated_window", opts.window, "count", 1);

  LayerCosts costs = ProbeSimd(in, rep);
  ProbeSearch(in, rep, &costs);
  ProbeDynamic(in, rep);
  ProbeFilter(in, rep);
  const double direct_us = ProbeServe(in, rep);
  const double net_us = ProbeNet(in, rep);

  // What the client waits for, summed from the layers measured on their
  // own: the search itself, the engine's queueing and batching, and the
  // network front end.
  const double p50_us = Median(traced.p50_us);
  rep.Layer("trace.accounted_ratio", p50_us > 0 ? (direct_us + net_us) / p50_us : 0.0,
            "ratio", traced.samples);
  rep.Layer("trace.overhead_ratio", Median(traced.qps) / qps, "ratio", m);
  DumpTrace(ctx, tracer, rep);
}

}  // namespace perfbench
