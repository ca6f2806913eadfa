// blink_serve — closed-loop load generator for the serving engine, built
// on the public facade (IndexSpec / Build / Open / Index::Serve), or — with
// --connect — for a remote blink_server over the net/protocol.h wire
// protocol.
//
// Two ways to get an index:
//   default       — build over a synthetic dataset (no input files), with
//                   exact ground truth so recall is reported.
//   --index PATH  — Open() a persisted artifact of any flavor (static
//                   bundle, sharded directory, dynamic BLDY file); queries
//                   are synthetic vectors of the index's dimension and
//                   recall is not reported (no ground truth).
//
// The synthetic build covers every facade flavor: --kind picks it
// directly, or the legacy shorthands compose it (--dynamic 1 + --lvq B,
// --shards S, --lvq 0 for float32). --churn keeps a single writer
// inserting/deleting through the Index handle (with periodic
// consolidation) while the clients search — facade mutation forwarding
// under real load.
//
// Usage:
//   blink_serve [options]
//     --index PATH     serve a persisted artifact (see above)
//     --map            with --index: serve a static bundle from a
//                      read-only file mapping (out-of-core); falls back
//                      to heap loading for non-static or pre-v3 artifacts
//     --kind K         explicit facade kind (static-lvq, sharded, ...)
//     --n N            base vectors                  (default 20000)
//     --nq N           distinct queries              (default 1000)
//     --k N            neighbors per query           (default 10)
//     --window N[,N..] search window sweep           (default 32)
//     --target-recall R calibrate instead of sweeping: serve with the
//                      cheapest SearchOptions meeting recall R on a held-out
//                      half of the queries. Synthetic-build mode only (the
//                      --index path has no ground truth); mutually
//                      exclusive with --window. The chosen options are
//                      printed before load starts.
//     --threads T      engine searcher pool size     (default NumThreads())
//     --clients C      closed-loop client threads    (default 2*threads)
//     --duration S     seconds of load per window    (default 3)
//     --mode M         sync | async                  (default async)
//     --batch B        queries per sync request      (default 8)
//     --lvq B          LVQ bits (0 = float32 index)  (default 8)
//     --bits2 B        LVQ residual bits             (default 0 = one-level)
//     --shards S       sharded index with S shards   (default 1 = unsharded)
//     --nprobe-shards P shards probed per query      (default 0 = all)
//     --dynamic 0|1    streaming dynamic index       (default 0)
//     --churn OPS      writer ops/sec during load    (default 0; needs a
//                      mutable index). With metadata attached the writer
//                      also upserts each inserted vector's metadata row
//                      (deterministic from its id), exercising the
//                      upsert-vs-filtered-search path under load.
//     --filter PRED    filtered search (filter/predicate.h grammar). The
//                      synthetic build attaches deterministic metadata
//                      (tags + one f64 column) and reports filtered and
//                      unfiltered recall separately; --index mode needs a
//                      .meta sidecar (blink_build --meta) and reports QPS
//                      only.
//     --filter-strategy auto|post|insearch (default auto)
//     --filter-widen-cap N post-filter widening cap  (default 0 = auto)
//     --seed S         dataset/build seed            (default 1234)
//
// Network loadgen mode (drives a running blink_server instead of an
// in-process engine):
//     --connect H:P    server address; C clients each open one connection
//                      and run a closed loop of B-query search requests
//     --queries F      query vectors (.fvecs, e.g. blink_gen's
//                      <prefix>.query.fvecs); default: gaussian vectors of
//                      the server's dimension
//     --gt F           ground truth (.ivecs) matching --queries; enables
//                      the recall report. Rejected requests (admission
//                      control) never count against recall — only answered
//                      queries are scored.
//     --swap P[,P...]  hot-swap artifact path(s): a swapper thread cycles
//                      through them during the load
//     --swap-every S   seconds between hot-swaps    (default 1.0)
//
// sync  — each client calls ServingEngine::SearchBatch with B queries per
//         request (the request is the latency unit).
// async — each client Submit()s one query at a time and waits on the
//         future; an idle engine worker takes it at once, and queries
//         that pile up wait in arrival order for the next idle worker.
//
// SIGINT/SIGTERM in any mode stops the load gracefully: in-flight requests
// finish and the final stats still print.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blink.h"
#include "filter/synthetic.h"
#include "flags.h"
#include "shutdown.h"

using namespace blink;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--index PATH [--map]] [--kind K] [--n N] [--nq N] "
               "[--k N] "
               "[--window N,N,... | --target-recall R]\n"
               "                  [--threads T] "
               "[--clients C] [--duration S] [--mode sync|async] [--batch B]\n"
               "                  [--lvq bits] [--bits2 bits] [--shards S] "
               "[--nprobe-shards P]\n                  [--dynamic 0|1] "
               "[--churn OPS] [--seed S]\n"
               "       %s --connect HOST:PORT [--queries F.fvecs [--gt "
               "F.ivecs]] [--nq N] [--k N]\n"
               "                  [--window W] [--clients C] [--duration S] "
               "[--batch B]\n"
               "                  [--swap PATH[,PATH...] [--swap-every S]] "
               "[--seed S]\n",
               argv0, argv0);
  return 2;
}

/// How one closed-loop request went.
struct Reply {
  bool sent = true;         ///< false: transport error; the client stops
  bool answered = false;    ///< the rows hold answers; else rejected
  uint64_t generation = 0;  ///< serving generation (0 = not reported)
};

/// Issues one request for query rows [qi, qi + take) and, when it is
/// answered, writes their k ids per row to `ids`. Each client owns one
/// (it may hold that client's connection).
using Issue = std::function<Reply(size_t qi, size_t take, uint32_t* ids)>;

/// One closed-loop run, summed over the clients. Rejected requests are
/// counted, never scored: a query the engine or server refused (admission
/// control, shutdown) must not drag recall down — it was never answered,
/// wrongly or otherwise.
struct LoadResult {
  std::vector<double> latencies_ms;  ///< one per request
  size_t answered = 0;               ///< queries
  size_t rejected = 0;               ///< queries
  size_t transport_errors = 0;
  uint64_t min_generation = std::numeric_limits<uint64_t>::max();
  uint64_t max_generation = 0;
  double elapsed = 0.0;
};

/// The closed-loop driver of every mode: C clients, each with the issuer
/// `make_issue(c)` returns, cycle through disjoint stripes of the nq
/// queries `batch` rows per request until `duration` seconds pass or a stop
/// is requested. An empty issuer (no connection) is one transport error.
/// Answered rows land in `results` and are marked in `answered`; stripes
/// are disjoint per client, so there are no concurrent writers.
LoadResult RunClosedLoop(size_t nq, size_t clients, size_t batch,
                         double duration,
                         const std::function<Issue(size_t)>& make_issue,
                         Matrix<uint32_t>* results,
                         std::vector<char>* answered) {
  std::vector<LoadResult> per_client(clients);
  std::vector<std::thread> workers;
  workers.reserve(clients);
  Timer wall;
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      LoadResult& out = per_client[c];
      const Issue issue = make_issue(c);
      if (!issue) {
        out.transport_errors += 1;
        return;
      }
      const size_t lo = nq * c / clients;
      const size_t hi = std::max(lo + 1, nq * (c + 1) / clients);
      size_t qi = lo;
      while (wall.Seconds() < duration && !tools::StopRequested()) {
        const size_t take = std::min(batch, hi - qi);
        Timer t;
        const Reply reply = issue(qi, take, results->row(qi));
        if (!reply.sent) {
          out.transport_errors += 1;
          break;  // the stream is broken; this client is done
        }
        out.latencies_ms.push_back(t.Millis());
        out.min_generation = std::min(out.min_generation, reply.generation);
        out.max_generation = std::max(out.max_generation, reply.generation);
        if (reply.answered) {
          std::fill_n(answered->begin() + static_cast<std::ptrdiff_t>(qi),
                      take, 1);
          out.answered += take;
        } else {
          out.rejected += take;
        }
        qi = qi + take >= hi ? lo : qi + take;
      }
    });
  }
  for (auto& w : workers) w.join();
  LoadResult r;
  r.elapsed = wall.Seconds();
  for (const LoadResult& c : per_client) {
    r.latencies_ms.insert(r.latencies_ms.end(), c.latencies_ms.begin(),
                          c.latencies_ms.end());
    r.answered += c.answered;
    r.rejected += c.rejected;
    r.transport_errors += c.transport_errors;
    r.min_generation = std::min(r.min_generation, c.min_generation);
    r.max_generation = std::max(r.max_generation, c.max_generation);
  }
  return r;
}

/// Throughput and request latency of one run.
void PrintLoad(const LoadResult& r) {
  std::printf("QPS (answered)    %10.0f\n",
              r.elapsed > 0 ? static_cast<double>(r.answered) / r.elapsed
                            : 0.0);
  if (r.rejected > 0) {
    std::printf("rejected          %10zu  (excluded from recall)\n",
                r.rejected);
  }
  if (r.latencies_ms.empty()) return;
  std::printf("latency p50       %10.3f ms\n", Percentile(r.latencies_ms, 50));
  std::printf("latency p90       %10.3f ms\n", Percentile(r.latencies_ms, 90));
  std::printf("latency p99       %10.3f ms\n", Percentile(r.latencies_ms, 99));
  std::printf("latency max       %10.3f ms\n",
              *std::max_element(r.latencies_ms.begin(), r.latencies_ms.end()));
}

/// Recall over the answered rows only (a rejected query was never
/// answered, so it cannot count as a miss); nothing without ground truth.
void PrintRecall(const char* label, const Matrix<uint32_t>& results,
                 const std::vector<char>& answered,
                 const Matrix<uint32_t>& truth, size_t k) {
  const size_t nq = results.rows();
  if (truth.rows() != nq) return;
  size_t scored = 0;
  double sum = 0.0;
  for (size_t qi = 0; qi < nq; ++qi) {
    if (!answered[qi]) continue;
    sum += RecallAtK({results.row(qi), k}, {truth.row(qi), truth.cols()}, k);
    ++scored;
  }
  std::printf("recall@%-2zu%s %10.4f  (over %zu/%zu answered queries)\n", k,
              *label != '\0' ? label : "         ",
              scored > 0 ? sum / static_cast<double>(scored) : 0.0, scored, nq);
}

/// Gaussian query matrix for --index mode (no dataset to draw from).
MatrixF RandomQueries(size_t nq, size_t dim, uint64_t seed) {
  MatrixF q(nq, dim);
  Rng rng(seed);
  for (size_t i = 0; i < q.size(); ++i) {
    q.data()[i] = rng.Gaussian();
  }
  return q;
}

// ---------------------------------------------------------------------------
// --connect mode: a closed-loop network loadgen over net::BlinkClient.
// ---------------------------------------------------------------------------

struct ConnectConfig {
  std::string host;
  uint16_t port = 0;
  std::string queries_path;  ///< .fvecs; empty = gaussian
  std::string gt_path;       ///< .ivecs; empty = no recall report
  std::vector<std::string> swap_paths;
  double swap_every = 1.0;
  size_t nq = 1000;
  size_t k = 10;
  uint32_t window = 32;
  uint32_t nprobe_shards = 0;
  size_t clients = 0;
  size_t batch = 8;
  double duration = 3.0;
  uint64_t seed = 1234;
  /// Sent in every search request when set (the server must hold metadata;
  /// supply *filtered* ground truth with --gt or skip the recall report).
  std::shared_ptr<const Predicate> filter;
  FilterStrategy filter_strategy = FilterStrategy::kAuto;
  uint32_t filter_widen_cap = 0;
};

int RunConnectMode(const ConnectConfig& cfg) {
  // Probe the server: dimension (to size gaussian queries and sanity-check
  // files) and the starting generation come from its stats JSON.
  auto probe = net::BlinkClient::Connect(cfg.host, cfg.port);
  if (!probe.ok()) {
    std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
    return 1;
  }
  net::BlinkClient control = std::move(probe).value();
  net::StatusTextResponse stats0;
  Status st = control.Stats(&stats0);
  if (!st.ok()) {
    std::fprintf(stderr, "stats: %s\n", st.ToString().c_str());
    return 1;
  }
  Result<json::Value> parsed = json::Parse(stats0.text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "stats JSON: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  const json::Value* dim_v = parsed.value().Find("index") != nullptr
                                 ? parsed.value().Find("index")->Find("dim")
                                 : nullptr;
  if (dim_v == nullptr || !dim_v->is_number()) {
    std::fprintf(stderr, "stats JSON has no index.dim\n");
    return 1;
  }
  const size_t dim = static_cast<size_t>(dim_v->as_number());

  MatrixF queries;
  Matrix<uint32_t> gt;
  if (!cfg.queries_path.empty()) {
    Result<MatrixF> q = ReadFvecs(cfg.queries_path);
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    queries = std::move(q).value();
    if (queries.cols() != dim) {
      std::fprintf(stderr,
                   "--queries dimension (%zu) != server dimension (%zu)\n",
                   queries.cols(), dim);
      return 1;
    }
    if (queries.rows() > cfg.nq) {
      MatrixF head(cfg.nq, dim);
      std::copy_n(queries.data(), cfg.nq * dim, head.data());
      queries = std::move(head);
    }
  } else {
    queries = RandomQueries(cfg.nq, dim, cfg.seed + 17);
  }
  const size_t nq = queries.rows();
  if (!cfg.gt_path.empty()) {
    if (cfg.queries_path.empty()) {
      std::fprintf(stderr, "--gt without --queries makes no sense (gaussian "
                           "queries have no ground truth)\n");
      return 1;
    }
    Result<Matrix<int32_t>> g = ReadIvecs(cfg.gt_path);
    if (!g.ok()) {
      std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
      return 1;
    }
    if (g.value().rows() < nq || g.value().cols() < cfg.k) {
      std::fprintf(stderr, "--gt is %zux%zu; need at least %zux%zu\n",
                   g.value().rows(), g.value().cols(), nq, cfg.k);
      return 1;
    }
    gt = Matrix<uint32_t>(nq, g.value().cols());
    for (size_t i = 0; i < gt.size(); ++i) {
      gt.data()[i] = static_cast<uint32_t>(g.value().data()[i]);
    }
  }

  size_t clients = cfg.clients == 0 ? 4 : cfg.clients;
  if (clients > nq) clients = nq;

  std::printf("blink_serve --connect %s:%u: nq=%zu d=%zu k=%zu window=%u | "
              "clients=%zu batch=%zu duration=%.1fs%s\n",
              cfg.host.c_str(), cfg.port, nq, dim, cfg.k, cfg.window, clients,
              cfg.batch, cfg.duration,
              cfg.swap_paths.empty()
                  ? ""
                  : (" | swap-every " + std::to_string(cfg.swap_every) + "s")
                        .c_str());

  SearchOptions options;
  options.window = cfg.window;
  options.nprobe_shards = cfg.nprobe_shards;
  options.filter = cfg.filter;
  options.filter_strategy = cfg.filter_strategy;
  options.filter_widen_cap = cfg.filter_widen_cap;

  Matrix<uint32_t> results(nq, cfg.k);
  std::vector<char> answered(nq, 0);
  std::atomic<bool> stop_load{false};
  Timer wall;
  // Each client opens its own connection and sends B-query requests.
  auto connect = [&](size_t) -> Issue {
    auto conn = net::BlinkClient::Connect(cfg.host, cfg.port);
    if (!conn.ok()) return nullptr;
    auto client =
        std::make_shared<net::BlinkClient>(std::move(conn).value());
    return [&, client](size_t qi, size_t take, uint32_t* ids) {
      net::SearchResponse res;
      Status s = client->Search(MatrixViewF(queries.row(qi), take, dim),
                                static_cast<uint32_t>(cfg.k), options, &res);
      if (!s.ok()) return Reply{.sent = false};
      const bool ok = res.status == net::WireStatus::kOk;
      if (ok) std::copy_n(res.ids.data(), take * cfg.k, ids);
      return Reply{.answered = ok, .generation = res.generation};
    };
  };

  // Hot-swap driver: cycles through --swap artifacts on its own
  // connection while the clients hammer the server.
  size_t swaps_ok = 0, swaps_failed = 0;
  std::thread swapper;
  if (!cfg.swap_paths.empty()) {
    swapper = std::thread([&] {
      size_t next = 0;
      while (wall.Seconds() < cfg.duration && !tools::StopRequested() &&
             !stop_load.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(cfg.swap_every));
        if (wall.Seconds() >= cfg.duration || tools::StopRequested()) break;
        net::StatusTextResponse res;
        Status s = control.Swap(cfg.swap_paths[next], &res);
        next = (next + 1) % cfg.swap_paths.size();
        if (s.ok() && res.status == net::WireStatus::kOk) {
          ++swaps_ok;
          std::printf("hot-swap -> generation %llu\n",
                      static_cast<unsigned long long>(res.generation));
        } else {
          ++swaps_failed;
          std::fprintf(stderr, "hot-swap failed: %s\n",
                       s.ok() ? res.text.c_str() : s.ToString().c_str());
        }
      }
    });
  }

  const LoadResult total = RunClosedLoop(nq, clients, cfg.batch,
                                         cfg.duration, connect, &results,
                                         &answered);
  stop_load.store(true);
  if (swapper.joinable()) swapper.join();

  std::printf("\n%zu answered + %zu rejected queries in %.2fs (%zu "
              "requests)\n",
              total.answered, total.rejected, total.elapsed,
              total.latencies_ms.size());
  PrintLoad(total);
  if (total.max_generation > 0) {
    std::printf("generations seen  %10llu .. %llu\n",
                static_cast<unsigned long long>(total.min_generation),
                static_cast<unsigned long long>(total.max_generation));
  }
  if (!cfg.swap_paths.empty()) {
    std::printf("hot-swaps         %10zu ok, %zu failed\n", swaps_ok,
                swaps_failed);
  }
  if (total.transport_errors > 0) {
    std::fprintf(stderr, "transport errors  %10zu\n", total.transport_errors);
  }
  PrintRecall("", results, answered, gt, cfg.k);

  // Server-side view, for cross-checking the loadgen numbers.
  net::StatusTextResponse stats1;
  if (control.Stats(&stats1).ok()) {
    std::printf("\nserver /stats:\n%s\n", stats1.text.c_str());
  }
  return total.transport_errors == 0 ? 0 : 1;
}

/// Splits a comma-separated path list ("a,b,c").
std::vector<std::string> SplitCsv(const char* value) {
  std::vector<std::string> out;
  const char* p = value;
  while (*p != '\0') {
    const char* comma = std::strchr(p, ',');
    if (comma == nullptr) {
      out.emplace_back(p);
      break;
    }
    out.emplace_back(p, comma - p);
    p = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  tools::InstallStopHandler();
  const bool map_mode = tools::TakeMapFlag(&argc, argv);
  ConnectConfig net_cfg;
  std::string connect_addr;
  std::string index_path;
  size_t n = 20000, nq = 1000, k = 10, batch = 8;
  std::vector<uint32_t> windows = {32};
  bool window_set = false;
  double target_recall = 0.0;  // 0 = sweep mode
  size_t threads = NumThreads();
  size_t clients = 0;
  double duration = 3.0;
  int lvq_bits = 8, bits2 = 0;
  size_t shards = 1;
  uint32_t nprobe_shards = 0;
  uint64_t seed = 1234;
  bool async_mode = true;
  bool dynamic_mode = false;
  bool kind_set = false;
  IndexKind kind = IndexKind::kStaticLvq;
  size_t churn_ops = 0;
  Predicate filter;
  bool filter_set = false;
  FilterStrategy filter_strategy = FilterStrategy::kAuto;
  uint32_t filter_widen_cap = 0;
  tools::FlagParser args(argc, argv, 1);
  std::string flag;
  const char* val = nullptr;
  long long iv = 0;
  while (args.Next(&flag, &val)) {
    if (flag == "--index") {
      index_path = val;
    } else if (flag == "--connect") {
      connect_addr = val;
    } else if (flag == "--queries") {
      net_cfg.queries_path = val;
    } else if (flag == "--gt") {
      net_cfg.gt_path = val;
    } else if (flag == "--swap") {
      net_cfg.swap_paths = SplitCsv(val);
      if (net_cfg.swap_paths.empty()) {
        std::fprintf(stderr, "--swap: expected PATH[,PATH...]\n");
        return 1;
      }
    } else if (flag == "--swap-every") {
      if (!tools::ParseDoubleFlag(flag, val, &net_cfg.swap_every)) return 1;
    } else if (flag == "--kind") {
      auto parsed = ParseIndexKind(val);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 1;
      }
      kind = parsed.value();
      kind_set = true;
    } else if (flag == "--n") {
      if (!tools::ParseIntFlag(flag, val, 1, 1LL << 32, &iv)) return 1;
      n = static_cast<size_t>(iv);
    } else if (flag == "--nq") {
      if (!tools::ParseIntFlag(flag, val, 1, 1LL << 24, &iv)) return 1;
      nq = static_cast<size_t>(iv);
    } else if (flag == "--k") {
      if (!tools::ParseIntFlag(flag, val, 1, 1 << 20, &iv)) return 1;
      k = static_cast<size_t>(iv);
    } else if (flag == "--window") {
      if (!tools::ParseUintListFlag(flag, val, 1, 1u << 20, &windows)) {
        return 1;
      }
      window_set = true;
    } else if (flag == "--target-recall") {
      if (!tools::ParseDoubleFlag(flag, val, &target_recall)) return 1;
      if (target_recall > 1.0) {
        std::fprintf(stderr, "--target-recall: must be in (0, 1]\n");
        return 1;
      }
    } else if (flag == "--threads") {
      if (!tools::ParseIntFlag(flag, val, 1, 1 << 12, &iv)) return 1;
      threads = static_cast<size_t>(iv);
    } else if (flag == "--clients") {
      if (!tools::ParseIntFlag(flag, val, 1, 1 << 12, &iv)) return 1;
      clients = static_cast<size_t>(iv);
    } else if (flag == "--duration") {
      if (!tools::ParseDoubleFlag(flag, val, &duration)) return 1;
    } else if (flag == "--batch") {
      if (!tools::ParseIntFlag(flag, val, 1, 1 << 16, &iv)) return 1;
      batch = static_cast<size_t>(iv);
    } else if (flag == "--lvq") {
      // Validated: garbage used to parse as 0 bits (i.e. silently float32).
      if (!tools::ParseIntFlag(flag, val, 0, 16, &iv)) return 1;
      lvq_bits = static_cast<int>(iv);
    } else if (flag == "--bits2") {
      if (!tools::ParseIntFlag(flag, val, 0, 16, &iv)) return 1;
      bits2 = static_cast<int>(iv);
    } else if (flag == "--shards") {
      if (!tools::ParseIntFlag(flag, val, 1, 1 << 16, &iv)) return 1;
      shards = static_cast<size_t>(iv);
    } else if (flag == "--nprobe-shards") {
      if (!tools::ParseIntFlag(flag, val, 0, 1 << 16, &iv)) return 1;
      nprobe_shards = static_cast<uint32_t>(iv);
    } else if (flag == "--dynamic") {
      if (!tools::ParseIntFlag(flag, val, 0, 1, &iv)) return 1;
      dynamic_mode = iv != 0;
    } else if (flag == "--churn") {
      if (!tools::ParseIntFlag(flag, val, 0, 1 << 24, &iv)) return 1;
      churn_ops = static_cast<size_t>(iv);
    } else if (flag == "--filter") {
      if (!tools::ParseFilterFlag(flag, val, &filter)) return 1;
      filter_set = true;
    } else if (flag == "--filter-strategy") {
      if (!tools::ParseFilterStrategyFlag(flag, val, &filter_strategy)) {
        return 1;
      }
    } else if (flag == "--filter-widen-cap") {
      if (!tools::ParseIntFlag(flag, val, 0, 1 << 20, &iv)) return 1;
      filter_widen_cap = static_cast<uint32_t>(iv);
    } else if (flag == "--seed") {
      if (!tools::ParseIntFlag(flag, val, 0,
                               std::numeric_limits<long long>::max(), &iv)) {
        return 1;
      }
      seed = static_cast<uint64_t>(iv);
    } else if (flag == "--mode") {
      if (std::strcmp(val, "async") == 0) {
        async_mode = true;
      } else if (std::strcmp(val, "sync") == 0) {
        async_mode = false;
      } else {
        std::fprintf(stderr, "--mode: expected sync or async, got '%s'\n", val);
        return 1;
      }
    } else {
      return Usage(argv[0]);
    }
  }
  if (!args.ok()) return Usage(argv[0]);
  if (!connect_addr.empty()) {
    auto hp = net::ParseHostPort(connect_addr);
    if (!hp.ok()) {
      std::fprintf(stderr, "%s\n", hp.status().ToString().c_str());
      return 1;
    }
    net_cfg.host = hp.value().first;
    net_cfg.port = hp.value().second;
    net_cfg.nq = nq;
    net_cfg.k = k;
    net_cfg.window = windows.empty() ? 32 : windows[0];
    net_cfg.nprobe_shards = nprobe_shards;
    net_cfg.clients = clients;
    net_cfg.batch = batch;
    net_cfg.duration = duration;
    net_cfg.seed = seed;
    if (filter_set) {
      net_cfg.filter = std::make_shared<const Predicate>(filter);
      net_cfg.filter_strategy = filter_strategy;
      net_cfg.filter_widen_cap = filter_widen_cap;
    }
    return RunConnectMode(net_cfg);
  }
  if (!net_cfg.queries_path.empty() || !net_cfg.gt_path.empty() ||
      !net_cfg.swap_paths.empty()) {
    std::fprintf(stderr,
                 "--queries/--gt/--swap only apply with --connect\n");
    return 1;
  }
  if (target_recall > 0.0 && window_set) {
    std::fprintf(stderr,
                 "--target-recall and --window are mutually exclusive: "
                 "calibration picks the window\n");
    return 1;
  }
  if (target_recall > 0.0 && !index_path.empty()) {
    std::fprintf(stderr,
                 "--target-recall needs exact ground truth, which only the "
                 "synthetic build has; it cannot be combined with --index\n");
    return 1;
  }
  if (clients == 0) clients = 2 * threads;
  // Each client owns a disjoint stripe of the query set (so concurrent
  // writes into the recall matrix never overlap); more clients than
  // queries would collapse stripes.
  if (clients > nq) clients = nq;

  // Compose the spec from the legacy shorthand flags unless --kind said it
  // outright: --dynamic picks the mutable flavors, --shards the sharded
  // one, --lvq 0 the float32 baseline.
  if (!kind_set) {
    if (dynamic_mode) {
      kind = lvq_bits > 0 ? IndexKind::kDynamicLvq : IndexKind::kDynamicF32;
    } else if (shards > 1) {
      kind = IndexKind::kSharded;
    } else {
      kind = lvq_bits > 0 ? IndexKind::kStaticLvq : IndexKind::kStaticF32;
    }
  }

  ThreadPool build_pool(threads);
  Index index;
  MatrixF queries;
  MatrixF churn_base;   // vectors the churn writer inserts (see below)
  Matrix<uint32_t> gt;  // empty when no ground truth (--index mode)
  Matrix<uint32_t> filtered_gt;  // only in synthetic mode with --filter
  // Metadata rows (build-time and churn upserts) all derive from this one
  // seed so the filtered ground truth and the store agree.
  const uint64_t meta_seed = seed + 7;
  if (!index_path.empty()) {
    OpenOptions open_opts;
    if (map_mode) open_opts.load_mode = LoadMode::kMap;
    Result<Index> opened = Open(index_path, open_opts);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    index = std::move(opened).value();
    queries = RandomQueries(nq, index.dim(), seed + 17);
    std::printf("opened %s (%s, %s) from %s: n=%zu d=%zu (%.1f MiB)\n",
                index.name().c_str(), KindName(index.kind()),
                LoadModeName(index.spec().load_mode), index_path.c_str(),
                index.size(), index.dim(),
                index.memory_bytes() / 1048576.0);
    if (filter_set && index.metadata() == nullptr) {
      std::fprintf(stderr,
                   "--filter: %s has no metadata sidecar; build one with "
                   "blink_build --meta\n",
                   index_path.c_str());
      return 1;
    }
  } else {
    if (map_mode) {
      std::fprintf(stderr, "warning: --map has no effect without --index "
                           "(a built index is heap-resident)\n");
    }
    Dataset data = MakeDeepLike(n, nq, seed);
    IndexSpec spec;
    spec.kind = kind;
    spec.metric = data.metric;
    spec.bits1 = lvq_bits > 0 ? lvq_bits : 8;
    spec.bits2 = bits2;
    spec.graph.graph_max_degree = 32;
    spec.graph.window_size = 64;
    spec.partition.num_shards = shards;
    spec.dynamic.initial_capacity =
        n + 1024;  // headroom so churn never stops the world
    Timer build_timer;
    Result<Index> built = Build(spec, data.base, &build_pool);
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    index = std::move(built).value();
    std::printf("built %s (%s) in %.1fs (%.1f MiB)\n", index.name().c_str(),
                KindName(index.kind()), build_timer.Seconds(),
                index.memory_bytes() / 1048576.0);
    gt = ComputeGroundTruth(data.base, data.queries, k, data.metric,
                            &build_pool);
    if (filter_set) {
      // Tags plus one f64 column: enough surface for any predicate the
      // grammar can express against synthetic data.
      auto store = std::make_shared<const MetadataStore>(MakeSyntheticMetadata(
          n, {ColumnType::kF64}, meta_seed));
      Status attached = index.AttachMetadata(store);
      if (!attached.ok()) {
        std::fprintf(stderr, "%s\n", attached.ToString().c_str());
        return 1;
      }
      filtered_gt = ComputeFilteredGroundTruth(data.base, data.queries, k,
                                               data.metric, *store, filter,
                                               &build_pool);
    }
    queries = data.queries.Clone();
    // The churn writer must insert *base* vectors: a transient duplicate
    // of a base vector can only tie with its original under the ground
    // truth, while a duplicate of a query would sit at distance 0 and
    // deflate recall.
    churn_base = std::move(data.base);
  }
  if (churn_ops > 0 && !index.has(kCapInsert)) {
    std::fprintf(stderr, "--churn requires a mutable index (%s is %s)\n",
                 index.name().c_str(), KindName(index.kind()));
    return 1;
  }
  std::shared_ptr<const Predicate> filter_ptr;
  if (filter_set) {
    const MetadataStore* md = index.metadata();
    Status valid = filter.ValidateFor(md->num_columns());
    if (!valid.ok()) {
      std::fprintf(stderr, "--filter: %s\n", valid.ToString().c_str());
      return 1;
    }
    filter_ptr = std::make_shared<const Predicate>(filter);
    const double sel = EstimateSelectivity(*md, filter);
    const uint32_t w0 =
        std::max(windows.empty() ? 32u : windows[0], static_cast<uint32_t>(k));
    const FilterPlan plan = PlanFilter(filter_strategy, sel, md->size(), k,
                                       w0, filter_widen_cap);
    std::printf("filter '%s': estimated selectivity %.4f, plan %s from "
                "window %u\n",
                filter.ToString().c_str(), sel, plan.name(), plan.window0);
  }

  std::printf("blink_serve: nq=%zu d=%zu k=%zu | engine threads=%zu "
              "clients=%zu mode=%s%s | backend=%s\n",
              nq, index.dim(), k, threads, clients,
              async_mode ? "async" : "sync",
              async_mode ? "" : (" batch=" + std::to_string(batch)).c_str(),
              simd::BackendName());

  // Calibration runs before the churn writer starts: the sample measurement
  // should see the index as built, not mid-mutation.
  std::vector<SearchOptions> settings;
  if (target_recall > 0.0) {
    const size_t ns = nq >= 4 ? nq / 2 : nq;
    MatrixViewF sample(queries.row(0), ns, queries.cols());
    Matrix<uint32_t> gt_sample(ns, gt.cols());
    for (size_t i = 0; i < ns; ++i) {
      std::copy_n(gt.row(i), gt.cols(), gt_sample.row(i));
    }
    CalibrationTarget target;
    target.target_recall = target_recall;
    target.sample_queries = sample;
    target.groundtruth = &gt_sample;
    target.k = k;
    target.seed.nprobe_shards = nprobe_shards;
    target.pool = &build_pool;
    Result<SearchOptions> chosen = index.Calibrate(target);
    if (!chosen.ok()) {
      std::fprintf(stderr, "calibration failed: %s\n",
                   chosen.status().ToString().c_str());
      return 1;
    }
    std::printf("calibrated for recall >= %.3f on %zu sample queries: "
                "window=%u nprobe_shards=%u rerank_window=%u\n",
                target_recall, ns, chosen.value().window,
                chosen.value().nprobe_shards, chosen.value().rerank_window);
    settings.push_back(chosen.value());
  } else {
    for (uint32_t w : windows) {
      SearchOptions params;
      params.window = w;
      params.nprobe_shards = nprobe_shards;
      settings.push_back(params);
    }
  }

  ServingOptions opts;
  opts.num_threads = threads;
  Result<std::unique_ptr<ServingEngine>> served = index.Serve(opts);
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<ServingEngine> engine = std::move(served).value();

  // Live writer: insert fresh vectors and delete them again through the
  // facade's mutation seam, consolidating occasionally, at ~churn_ops/sec.
  // Synthetic-build mode inserts copies of base vectors (a duplicate can
  // only tie with its original, so the recall figure stays meaningful);
  // --index mode inserts gaussian vectors (no recall is reported there).
  std::atomic<bool> stop_churn{false};
  std::thread churner;
  if (churn_ops > 0) {
    churner = std::thread([&] {
      Rng rng(seed + 1);
      const MatrixF& source = churn_base.empty() ? queries : churn_base;
      std::vector<uint32_t> extra;
      const auto pause =
          std::chrono::microseconds(1000000 / std::max<size_t>(churn_ops, 1));
      size_t ops = 0;
      while (!stop_churn.load(std::memory_order_relaxed)) {
        if (extra.size() < 256 && rng.Bounded(2) == 0) {
          auto id = index.Insert(source.row(rng.Bounded(source.rows())));
          if (id.ok()) {
            // Give every churned-in vector deterministic id-derived
            // metadata so filtered searches under load see a live
            // upsert-vs-read schedule (the TSan target of this tool).
            if (const MetadataStore* md = index.metadata()) {
              std::vector<double> vals(md->num_columns());
              for (size_t c = 0; c < vals.size(); ++c) {
                vals[c] = md->column_type(c) == ColumnType::kI64
                              ? static_cast<double>(
                                    SyntheticI64(meta_seed, id.value(), c))
                              : SyntheticF64(meta_seed, id.value(), c);
              }
              (void)index.UpsertMetadata(id.value(),
                                         SyntheticTags(meta_seed, id.value()),
                                         vals.data(), vals.size());
            }
            extra.push_back(id.value());
          }
        } else if (!extra.empty()) {
          const size_t pick = rng.Bounded(extra.size());
          (void)index.Delete(extra[pick]);
          extra[pick] = extra.back();
          extra.pop_back();
        }
        if (++ops % 512 == 0) (void)index.Consolidate();
        std::this_thread::sleep_for(pause);
      }
      // Leave the index as found: drop the writer's surviving inserts.
      for (uint32_t id : extra) (void)index.Delete(id);
      (void)index.Consolidate();
    });
  }

  Matrix<uint32_t> results(nq, k);  // last result per query, for recall
  // One report per (window, variant) run; recall scores against whichever
  // ground truth matches the variant (exact vs brute-force-filtered), so
  // --filter prints filtered and unfiltered figures separately.
  auto run_and_report = [&](const char* label, const SearchOptions& params,
                            const Matrix<uint32_t>& truth) {
    // sync: each request is one ServingEngine::SearchBatch of B queries.
    // async: each request Submit()s one query and waits on the future; a
    // non-kOk outcome (shutdown race) never ran, so it counts as rejected.
    auto engine_issue = [&](size_t) -> Issue {
      if (!async_mode) {
        return [&](size_t qi, size_t take, uint32_t* ids) {
          const MatrixViewF slice(queries.row(qi), take, queries.cols());
          engine->SearchBatch(slice, k, params, ids);
          return Reply{.answered = true};
        };
      }
      return [&](size_t qi, size_t, uint32_t* ids) {
        SearchResult res = engine->Submit(queries.row(qi), k, params).get();
        const bool ok = res.outcome == SearchOutcome::kOk;
        if (ok) std::copy(res.ids.begin(), res.ids.end(), ids);
        return Reply{.answered = ok};
      };
    };
    std::vector<char> answered(nq, 0);
    const ServingCounters before = engine->counters();
    const LoadResult r =
        RunClosedLoop(nq, clients, async_mode ? 1 : batch, duration,
                      engine_issue, &results, &answered);
    const ServingCounters after = engine->counters();
    const double searched = static_cast<double>(after.queries - before.queries);
    const double dists = static_cast<double>(after.distance_computations -
                                             before.distance_computations);
    std::printf("\nwindow %u%s: %zu queries in %.2fs  (%zu requests)\n",
                params.window, label, r.answered, r.elapsed,
                r.latencies_ms.size());
    PrintLoad(r);
    std::printf("dists/query       %10.1f\n",
                searched > 0 ? dists / searched : 0.0);
    PrintRecall(label, results, answered, truth, k);
  };
  for (const SearchOptions& params : settings) {
    if (tools::StopRequested()) break;
    run_and_report("", params, gt);
    if (filter_ptr != nullptr) {
      if (tools::StopRequested()) break;
      SearchOptions fparams = params;
      fparams.filter = filter_ptr;
      fparams.filter_strategy = filter_strategy;
      fparams.filter_widen_cap = filter_widen_cap;
      run_and_report(" [filtered]", fparams, filtered_gt);
    }
  }
  if (churner.joinable()) {
    stop_churn.store(true);
    churner.join();
  }
  return 0;
}
