// Per-layer probes of traced runs. Each takes the workload's own index,
// options and inputs and times calls into one module's public functions.
// Byte counts are computed from the storage strides, not measured.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "filter/metadata.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "quant/lvq.h"
#include "quant/packing.h"
#include "simd/distance.h"
#include "workloads.h"

namespace perfbench {
namespace {

using blink::Index;
using blink::MatrixViewF;

/// Bytes one LVQ-B row occupies: packed codes plus the inline scaling
/// constants, padded to the 32-byte stride the library lays rows out at.
size_t LvqStride(int bits) {
  return blink::LvqPaddedStride(
      sizeof(blink::LvqConstants) + blink::PackedBytes(kDim, bits), 32);
}
size_t ResidualStride(int bits) { return blink::PackedBytes(kDim, bits); }
size_t GraphRowBytes(const Index& index) {
  return (size_t(index.spec().graph.graph_max_degree) + 1) * sizeof(uint32_t);
}

/// Median over `reps` alternating repetitions of each timing function.
template <typename A, typename B>
std::pair<double, double> AlternatingMedians(size_t reps, A&& a, B&& b) {
  std::vector<double> va, vb;
  for (size_t r = 0; r < reps; ++r) {
    va.push_back(a());
    vb.push_back(b());
  }
  return {Median(va), Median(vb)};
}

/// Seconds for one single-threaded SearchBatchEx over the probe queries.
double TimeBatch(const ProbeInputs& in, const blink::SearchOptions& o,
                 blink::BatchStats* stats) {
  std::vector<uint32_t> ids(in.nq * kK);
  std::vector<float> dists(in.nq * kK);
  const uint64_t a = NowNs();
  in.index->SearchBatchEx(MatrixViewF(in.queries, in.nq, kDim), kK, o,
                          ids.data(), dists.data(), stats, nullptr);
  return double(NowNs() - a) * 1e-9;
}

}  // namespace

LayerCosts ProbeSimd(const ProbeInputs& in, Report& rep) {
  namespace simd = blink::simd;
  Rng rng(StreamSeed(1, 0x51AD));
  std::vector<float> q(kDim);
  for (float& v : q) v = float(rng.Uniform() - 0.5);
  const size_t bytes[3] = {kDim * sizeof(float), LvqStride(8), LvqStride(4)};
  const char* names[3] = {"f32", "u8", "u4"};
  const simd::DistF32Fn f32 = simd::GetL2F32(kDim);
  const simd::DistU8Fn u8 = simd::GetL2U8(kDim);
  const simd::DistU4Fn u4 = simd::GetL2U4(kDim);
  // One distance on the row at `p`, by encoding (rows of arbitrary bytes
  // are valid codes; the f32 rows are filled with finite floats).
  auto dist = [&](int e, const uint8_t* p) {
    switch (e) {
      case 0: return f32(q.data(), reinterpret_cast<const float*>(p), kDim);
      case 1: return u8(q.data(), p + 8, 0.01f, -0.5f, kDim);
      default: return u4(q.data(), p + 8, 0.01f, -0.5f, kDim);
    }
  };
  // Rows in L1: 16 rows, cycled.
  std::vector<float> l1(16 * kDim);
  for (float& v : l1) v = float(rng.Uniform());
  // Random rows of an array at least three times the last-level cache.
  const size_t big_bytes = std::max<size_t>(3 * in.llc_bytes + (1 << 20), 64 << 20);
  std::vector<float> big(big_bytes / sizeof(float));
  for (size_t i = 0; i < big.size(); i += 1) big[i] = float(i & 1023) * 1e-3f;
  constexpr size_t kL1Calls = 2'000'000, kMemCalls = 400'000;
  std::vector<uint64_t> offsets(kMemCalls);
  LayerCosts costs;
  for (int e = 0; e < 3; ++e) {
    const size_t rows = big_bytes / bytes[e];
    for (uint64_t& o : offsets) o = rng.Below(rows) * bytes[e];
    float sink = 0.0f;
    uint64_t a = NowNs();
    for (size_t i = 0; i < kL1Calls; ++i) {
      sink += dist(e, reinterpret_cast<const uint8_t*>(&l1[(i & 15) * kDim]));
    }
    const double l1_ns = double(NowNs() - a) / kL1Calls;
    const auto* base = reinterpret_cast<const uint8_t*>(big.data());
    a = NowNs();
    for (size_t i = 0; i < kMemCalls; ++i) sink += dist(e, base + offsets[i]);
    const double mem_ns = double(NowNs() - a) / kMemCalls;
    if (sink == 12345.0f) std::printf(" ");  // keeps the loops observable
    const std::string n = std::string("simd.l2_") + names[e];
    rep.Layer(n + ".ns_per_dist", l1_ns, "ns", kL1Calls);
    rep.Layer(n + ".ns_per_dist_mem", mem_ns, "ns", kMemCalls);
    rep.Layer(std::string("simd.bytes_per_dist.") + names[e], double(bytes[e]),
              "bytes", 1);
    const int bits1 = in.index != nullptr ? in.index->spec().bits1 : 8;
    if ((e == 2 && bits1 == 4) || (e == 1 && bits1 == 8)) {
      costs.ns_per_dist_mem_primary = mem_ns;
    }
    if (e == 1) costs.ns_per_dist_mem_rerank = mem_ns;
  }
  std::printf("simd backend %s\n", blink::simd::BackendName());
  return costs;
}

void ProbeSearch(const ProbeInputs& in, Report& rep, LayerCosts* costs) {
  const Index& index = *in.index;
  blink::SearchOptions on = in.options, off = in.options;
  blink::BatchStats stats;
  const double secs = TimeBatch(in, in.options, &stats);
  const double nq = double(in.nq);
  const double hops = double(stats.hops) / nq;
  const double dists = double(stats.distance_computations) / nq;
  const int bits1 = index.spec().bits1, bits2 = index.spec().bits2;
  const bool reranks = index.has(blink::kCapRerank) && in.options.rerank;
  const double rerank_rows =
      reranks ? double(in.options.rerank_window != 0 ? in.options.rerank_window
                                                     : in.options.window)
              : 0.0;
  const double bytes = dists * double(LvqStride(bits1)) +
                       hops * double(GraphRowBytes(index)) +
                       rerank_rows * double(ResidualStride(bits2 > 0 ? bits2 : 8));
  rep.Layer("graph.search.hops_per_query", hops, "count", in.nq);
  rep.Layer("graph.search.dists_per_query", dists, "count", in.nq);
  rep.Layer("graph.search.ns_per_hop", secs * 1e9 / double(stats.hops), "ns",
            stats.hops);
  rep.Layer("graph.search.bytes_per_query", bytes, "bytes", in.nq);
  rep.Layer("graph.search.gbps", bytes * nq / secs * 1e-9, "GB/s", in.nq);

  // Prefetch: the paper's lookahead schedule against none.
  on.prefetch_offset = 1;
  on.prefetch_step = 2;
  off.prefetch_offset = 0;
  const auto [t_on, t_off] = AlternatingMedians(
      3, [&] { return TimeBatch(in, on, nullptr); },
      [&] { return TimeBatch(in, off, nullptr); });
  rep.Layer("graph.prefetch.gain", t_off / t_on, "ratio", 3 * in.nq);

  // Re-rank: its share of the query time at the same window.
  blink::SearchOptions with = in.options, without = in.options;
  with.rerank = true;
  without.rerank = false;
  const auto [t_with, t_without] = AlternatingMedians(
      3, [&] { return TimeBatch(in, with, nullptr); },
      [&] { return TimeBatch(in, without, nullptr); });
  rep.Layer("graph.rerank.share", reranks ? (t_with - t_without) / t_with : 0.0,
            "ratio", 3 * in.nq);
  rep.Layer("graph.rerank.rows_per_query", rerank_rows, "count", in.nq);
  costs->dists_per_query = dists;
  costs->rerank_rows_per_query = rerank_rows;
}

void ProbeBuild(const ProbeInputs& in, Report& rep) {
  blink::ThreadPool pool(in.threads);
  std::vector<double> secs, cores;
  for (int r = 0; r < 3; ++r) {
    const uint64_t a = NowNs();
    const double cpu = ProcessCpuSeconds();
    auto built = blink::Build(in.build_spec,
                              MatrixViewF(in.sample, in.n_sample, kDim), &pool);
    const double wall = double(NowNs() - a) * 1e-9;
    if (!built.ok()) {
      rep.Check("probe.build", false, built.status().ToString());
      return;
    }
    secs.push_back(wall);
    cores.push_back((ProcessCpuSeconds() - cpu) / wall);
  }
  rep.Layer("graph.build.s", Median(secs), "s", secs.size());
  rep.Layer("graph.build.cpu_util", Median(cores), "cores", cores.size());
}

Index ProbeReopen(const ProbeInputs& in, Report& rep) {
  const std::string dir = in.work_dir + "/reopen";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/index";
  const blink::Status saved = in.index->Save(path);
  if (!saved.ok()) {
    rep.Check("probe.save", false, saved.ToString());
    return Index();
  }
  std::vector<double> secs;
  Index out;
  for (int r = 0; r < 3; ++r) {
    out = Index();
    const uint64_t a = NowNs();
    auto opened = blink::Open(path);
    secs.push_back(double(NowNs() - a) * 1e-9);
    if (!opened.ok()) {
      rep.Check("probe.open", false, opened.status().ToString());
      return Index();
    }
    out = std::move(opened).value();
  }
  rep.Layer("api.open_s", Median(secs), "s", secs.size());
  return out;
}

double ProbeServe(const ProbeInputs& in, Report& rep) {
  const Index& index = *in.index;
  const size_t n = std::min<size_t>(in.nq, 1000);
  blink::ServingOptions so;
  so.num_threads = 2;
  auto engine_r = index.Serve(so);
  if (!engine_r.ok()) {
    rep.Check("probe.serve", false, engine_r.status().ToString());
    return 0.0;
  }
  blink::ServingEngine& engine = *engine_r.value();
  auto searcher = index.MakeSearcher();
  std::vector<uint32_t> a_ids(n * kK), b_ids(n * kK), c_ids(n * kK);
  std::vector<float> a_d(n * kK), b_d(n * kK), c_d(n * kK);
  std::vector<double> direct, sync, async;
  uint64_t rejected = 0;
  const blink::ServingCounters before = engine.counters();
  for (size_t q = 0; q < n; ++q) {
    const float* qv = in.queries + q * kDim;
    uint64_t t = NowNs();
    searcher->Search(qv, kK, in.options, &a_ids[q * kK], &a_d[q * kK], nullptr);
    direct.push_back(double(NowNs() - t) * 1e-3);
    t = NowNs();
    engine.SearchBatch(MatrixViewF(qv, 1, kDim), kK, in.options, &b_ids[q * kK],
                       &b_d[q * kK]);
    sync.push_back(double(NowNs() - t) * 1e-3);
    t = NowNs();
    std::future<blink::SearchResult> fut;
    if (engine.TrySubmit(qv, kK, in.options, &fut) !=
        blink::ServingEngine::SubmitOutcome::kAccepted) {
      ++rejected;
      continue;
    }
    const blink::SearchResult res = fut.get();
    async.push_back(double(NowNs() - t) * 1e-3);
    std::copy(res.ids.begin(), res.ids.end(), &c_ids[q * kK]);
    std::copy(res.dists.begin(), res.dists.end(), &c_d[q * kK]);
  }
  const blink::ServingCounters after = engine.counters();
  const bool same =
      std::memcmp(a_ids.data(), b_ids.data(), a_ids.size() * 4) == 0 &&
      std::memcmp(a_ids.data(), c_ids.data(), a_ids.size() * 4) == 0 &&
      std::memcmp(a_d.data(), b_d.data(), a_d.size() * 4) == 0 &&
      std::memcmp(a_d.data(), c_d.data(), a_d.size() * 4) == 0;
  rep.Check("probe.serve_paths_agree", same,
            std::to_string(n) + " queries: Searcher, SearchBatch and Submit "
            "ids and distance bits");
  const double direct_us = Mean(direct);
  rep.Layer("serve.sync_overhead_us", Mean(sync) - direct_us, "us", n);
  rep.Layer("serve.async_latency_us", Mean(async), "us", async.size());
  rep.Layer("serve.queue_wait_us", Mean(async) - direct_us, "us", async.size());
  const double batches = double(after.batches - before.batches);
  rep.Layer("serve.batch_size_mean", batches > 0 ? double(async.size()) / batches : 0.0,
            "count", size_t(batches));
  rep.Layer("serve.rejected_ratio", double(rejected) / double(n), "ratio", n);
  return Mean(async);
}

void ProbeFilter(const ProbeInputs& in, Report& rep) {
  Index& index = *in.index;
  const size_t n = in.id_space != 0 ? in.id_space : index.size();
  const auto store = MakeMetadataStore(MakeMetadata(n));
  const blink::Status st = index.AttachMetadata(store);
  if (!st.ok()) {
    rep.Check("probe.filter_attach", false, st.ToString());
    return;
  }
  const blink::Predicate rare = blink::Predicate::Parse(kRarePredicate).value();
  const blink::Predicate wide = blink::Predicate::Parse(kWidePredicate).value();
  double err = 0.0, match_ns = 0.0;
  size_t insearch = 0;
  for (const blink::Predicate* p : {&rare, &wide}) {
    size_t hit = 0;
    const uint64_t a = NowNs();
    for (size_t i = 0; i < n; ++i) hit += blink::MatchesPredicate(*store, *p, uint32_t(i));
    match_ns += double(NowNs() - a) / double(2 * n);
    const double est = blink::EstimateSelectivity(*store, *p);
    err += std::abs(est - double(hit) / double(n)) / 2.0;
    insearch += est <= blink::kInSearchSelectivityCrossover;
  }
  rep.Layer("filter.match_ns_per_row", match_ns, "ns", 2 * n);
  rep.Layer("filter.selectivity_est_error", err, "ratio", 2);
  rep.Layer("filter.insearch_share", double(insearch) / 2.0, "ratio", 2);
  blink::BatchStats stats;
  const size_t nq = std::min<size_t>(in.nq, 500);
  std::vector<uint32_t> ids(nq * kK);
  for (const blink::Predicate* p : {&rare, &wide}) {
    blink::SearchOptions o = in.options;
    o.filter = std::make_shared<const blink::Predicate>(*p);
    index.SearchBatchEx(MatrixViewF(in.queries, nq, kDim), kK, o, ids.data(),
                        nullptr, &stats, nullptr);
  }
  rep.Layer("filter.dists_per_query", double(stats.distance_computations) / double(2 * nq),
            "count", 2 * nq);
}

void ProbeDynamic(const ProbeInputs& in, Report& rep) {
  ChurnConfig cfg;
  cfg.initial = 4000;
  cfg.steps = 2000;
  cfg.consolidate_every = 100;
  cfg.num_queries = 500;
  const ChurnInputs churn = MakeChurnInputs(0xD7, cfg, in.threads);
  auto built = BuildChurnIndex(churn);
  if (!built.ok()) {
    rep.Check("probe.dynamic_build", false, built.status().ToString());
    return;
  }
  Index index = std::move(built).value();
  blink::SearchOptions o;
  o.window = in.options.window;
  const ChurnOutcome out = RunChurnOps(index, churn, o, nullptr);
  rep.Check("probe.dynamic_model", out.model_ok && out.failed == 0,
            out.model_detail + out.first_failure);
  rep.Layer("graph.dynamic.insert_us", Median(out.insert_us), "us", out.insert_us.size());
  rep.Layer("graph.dynamic.delete_us", Median(out.delete_us), "us", out.delete_us.size());
  rep.Layer("graph.dynamic.consolidate_ms", Median(out.consolidate_ms), "ms",
            out.consolidate_ms.size());
  const double s = double(out.searches);
  rep.Layer("graph.dynamic.hops_per_query", double(out.hops) / s, "count", out.searches);
  rep.Layer("graph.dynamic.dists_per_query", double(out.dists) / s, "count",
            out.searches);
  rep.Layer("graph.dynamic.tombstone_ratio_peak", out.peak_tombstone_ratio, "ratio", 1);
  auto again = BuildChurnIndex(churn);
  if (again.ok()) {
    ConcurrentReplay(again.value(), churn, o,
                     std::min<size_t>(2, in.threads > 1 ? in.threads - 1 : 1), rep);
  }
}

double ProbeNet(ProbeInputs& in, Report& rep) {
  const size_t n = std::min<size_t>(in.nq, 1000);
  // Submit latency of the same queries on an engine like the server's.
  std::vector<double> submit_us;
  {
    blink::ServingOptions so;
    so.num_threads = 2;
    auto engine = in.index->Serve(so);
    if (!engine.ok()) {
      rep.Check("probe.net_engine", false, engine.status().ToString());
      return 0.0;
    }
    for (size_t q = 0; q < n; ++q) {
      const uint64_t a = NowNs();
      engine.value()->Submit(in.queries + q * kDim, kK, in.options).get();
      submit_us.push_back(double(NowNs() - a) * 1e-3);
    }
  }
  blink::net::ServerOptions so;
  so.serving.num_threads = 2;
  auto server = blink::net::BlinkServer::Start(std::move(*in.index), so);
  in.index = nullptr;
  if (!server.ok()) {
    rep.Check("probe.net_server", false, server.status().ToString());
    return 0.0;
  }
  auto client = blink::net::BlinkClient::Connect("127.0.0.1", server.value()->port());
  if (!client.ok()) {
    rep.Check("probe.net_client", false, client.status().ToString());
    return 0.0;
  }
  std::vector<double> ping_us, client_us;
  for (size_t i = 0; i < 500; ++i) {
    blink::net::WireStatus ws{};
    const uint64_t a = NowNs();
    const blink::Status st = client.value().Ping(&ws);
    ping_us.push_back(double(NowNs() - a) * 1e-3);
    if (!st.ok()) {
      rep.Check("probe.net_ping", false, st.ToString());
      return 0.0;
    }
  }
  size_t overloaded = 0, bytes = 0;
  blink::net::SearchResponse resp;
  for (size_t q = 0; q < n; ++q) {
    const MatrixViewF one(in.queries + q * kDim, 1, kDim);
    const uint64_t a = NowNs();
    const blink::Status st = client.value().Search(one, kK, in.options, &resp);
    client_us.push_back(double(NowNs() - a) * 1e-3);
    if (!st.ok()) {
      rep.Check("probe.net_search", false, st.ToString());
      return 0.0;
    }
    overloaded += resp.status == blink::net::WireStatus::kOverloaded;
    // Frame = u32 length + u8 type + payload, request and response.
    bytes += 5 + blink::net::EncodeSearchRequest(one, kK, in.options).size() +
             5 + blink::net::EncodeSearchResponse(resp).size();
  }
  server.value()->Stop();
  const double overhead = Mean(client_us) - Mean(submit_us);
  rep.Layer("net.ping_rtt_us", Median(ping_us), "us", ping_us.size());
  rep.Layer("net.search_overhead_us", overhead, "us", n);
  rep.Layer("net.bytes_per_query", double(bytes) / double(n), "bytes", n);
  rep.Layer("net.overloaded_ratio", double(overloaded) / double(n), "ratio", n);
  return overhead;
}

void DumpTrace(const RunContext& ctx, const Tracer& tracer, Report& rep) {
  for (const auto& [name, t] : tracer.Aggregate()) {
    rep.Info("span." + name + ".self_us", t.self_ns / double(t.count) * 1e-3, "us",
             t.count);
  }
  const std::string path = ctx.work_dir + "/trace-" + ctx.workload + "-" +
                           std::to_string(ctx.seed) + ".jsonl";
  rep.Check("trace.written", tracer.WriteJsonl(path), path);
}

}  // namespace perfbench
