#include "net/server.h"

#include <cstring>
#include <future>
#include <utility>

#include "eval/report.h"
#include "shard/sharded_index.h"
#include "util/stats.h"

namespace blink {
namespace net {

namespace {

/// Ring-buffer capacity for request-latency samples: enough for stable
/// p99 estimates, small enough that the snapshot copy under the lock is
/// cheap.
constexpr size_t kLatencyRingCapacity = 8192;

/// "GET " as the little-endian u32 a binary client would have sent as a
/// frame length — the HTTP sniff (see protocol.h).
constexpr uint32_t kHttpGetPrefix = 0x20544547u;

WireStatus StatusFromOutcome(ServingEngine::SubmitOutcome o) {
  switch (o) {
    case ServingEngine::SubmitOutcome::kAccepted: return WireStatus::kOk;
    case ServingEngine::SubmitOutcome::kRejectedOverload:
      return WireStatus::kOverloaded;
    case ServingEngine::SubmitOutcome::kRejectedShutdown:
      return WireStatus::kShuttingDown;
  }
  return WireStatus::kError;
}

}  // namespace

/// One live connection: its socket (Shutdown()-able from Stop()) and the
/// handler thread serving it.
struct BlinkServer::Conn {
  TcpConn sock;
  std::thread thread;
  std::atomic<bool> done{false};
};

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<BlinkServer>> BlinkServer::Start(
    Index index, const ServerOptions& opts) {
  auto holder = GenerationHolder::Create(std::move(index), opts.serving);
  BLINK_RETURN_NOT_OK(holder.status());
  auto listener = TcpListener::Bind(opts.host, opts.port, opts.backlog);
  BLINK_RETURN_NOT_OK(listener.status());
  std::unique_ptr<BlinkServer> server(new BlinkServer(
      std::move(holder).value(), std::move(listener).value(), opts));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

BlinkServer::BlinkServer(std::unique_ptr<GenerationHolder> holder,
                         TcpListener listener, const ServerOptions& opts)
    : opts_(opts),
      holder_(std::move(holder)),
      listener_(std::move(listener)),
      latencies_us_(kLatencyRingCapacity, 0.0) {}

BlinkServer::~BlinkServer() { Stop(); }

void BlinkServer::Stop() {
  // stop_mu_ held for the whole teardown: a second caller blocks until the
  // first finishes, so "Stop returned" always means "handlers joined and
  // the engine drained".
  std::lock_guard<std::mutex> stop_lk(stop_mu_);
  if (stopping_.exchange(true)) return;
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) c->sock.Shutdown();  // unblock handlers in ReadFull
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
  }
  // Every admitted query resolves before Stop returns.
  holder_->Current()->engine->Drain();
}

// ---------------------------------------------------------------------------
// Accept + connection handling.
// ---------------------------------------------------------------------------

void BlinkServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<TcpConn> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      continue;  // transient (EMFILE, aborted handshake); keep serving
    }
    ReapFinished();
    std::lock_guard<std::mutex> lk(conns_mu_);
    if (stopping_.load(std::memory_order_relaxed)) break;
    if (conns_.size() >= opts_.max_connections) {
      continue;  // over the cap: `accepted` goes out of scope and closes
    }
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(accepted).value();
    Conn* raw = conn.get();
    conn->thread = std::thread([this, raw] {
      HandleConnection(raw);
      // Send the FIN eagerly: the Conn slot (and its fd) is only reclaimed
      // on the next accept (ReapFinished), and a client waiting for our
      // EOF must not wait that long. Shutdown, not Close — Stop() may
      // concurrently Shutdown() this socket, and that is documented safe,
      // while racing a Close could free and reuse the fd under it.
      raw->sock.Shutdown();
      raw->done.store(true, std::memory_order_release);
    });
    conns_.push_back(std::move(conn));
  }
}

void BlinkServer::ReapFinished() {
  std::lock_guard<std::mutex> lk(conns_mu_);
  for (size_t i = 0; i < conns_.size();) {
    if (conns_[i]->done.load(std::memory_order_acquire)) {
      if (conns_[i]->thread.joinable()) conns_[i]->thread.join();
      conns_[i] = std::move(conns_.back());
      conns_.pop_back();
    } else {
      ++i;
    }
  }
}

size_t BlinkServer::connection_count() const {
  std::lock_guard<std::mutex> lk(conns_mu_);
  return conns_.size();
}

void BlinkServer::HandleConnection(Conn* conn) {
  TcpConn& sock = conn->sock;
  for (;;) {
    uint32_t prefix = 0;
    Result<bool> got = sock.ReadFullOrEof(&prefix, sizeof(prefix));
    if (!got.ok() || !got.value()) return;  // error, shutdown, or clean EOF
    if (prefix == kHttpGetPrefix) {
      HandleHttp(sock);
      return;  // one-shot; connection closes
    }
    FrameType type;
    std::vector<uint8_t> payload;
    if (!ReadFrameBody(sock, prefix, opts_.max_frame_bytes, &type, &payload)
             .ok()) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      return;  // framing is unrecoverable; drop the connection
    }
    if (!HandleFrame(sock, type, payload)) return;
  }
}

bool BlinkServer::HandleFrame(TcpConn& conn, FrameType type,
                              const std::vector<uint8_t>& payload) {
  switch (type) {
    case FrameType::kSearchRequest:
      return HandleSearch(conn, payload);

    case FrameType::kStatsRequest: {
      StatusTextResponse res;
      res.status = WireStatus::kOk;
      res.generation = holder_->generation();
      res.text = StatsJson();
      return WriteFrame(conn, FrameType::kStatsResponse, EncodeStatusText(res))
          .ok();
    }

    case FrameType::kSwapRequest: {
      StatusTextResponse res;
      std::string path;
      Status decoded = DecodeSwapRequest(payload, &path);
      if (!decoded.ok()) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        res.status = WireStatus::kBadRequest;
        res.generation = holder_->generation();
        res.text = decoded.ToString();
      } else {
        // The Open + cutover run right here, on this handler thread —
        // never on a search thread. Other connections keep serving from
        // the current generation throughout.
        Result<uint64_t> swapped = holder_->SwapFromArtifact(
            path, opts_.swap_open);
        if (swapped.ok()) {
          res.status = WireStatus::kOk;
          res.generation = swapped.value();
        } else {
          res.status = WireStatus::kError;
          res.generation = holder_->generation();
          res.text = swapped.status().ToString();
        }
      }
      return WriteFrame(conn, FrameType::kSwapResponse, EncodeStatusText(res))
          .ok();
    }

    case FrameType::kPingRequest: {
      WireWriter w;
      w.U8(static_cast<uint8_t>(stopping_.load(std::memory_order_relaxed)
                                    ? WireStatus::kShuttingDown
                                    : WireStatus::kOk));
      return WriteFrame(conn, FrameType::kPingResponse, w.buf()).ok();
    }

    default:
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      return false;  // unknown type: the stream cannot be trusted
  }
}

bool BlinkServer::HandleSearch(TcpConn& conn,
                               const std::vector<uint8_t>& payload) {
  auto reply_status = [&](WireStatus status, uint64_t generation) {
    SearchResponse res;
    res.status = status;
    res.generation = generation;
    return WriteFrame(conn, FrameType::kSearchResponse,
                      EncodeSearchResponse(res))
        .ok();
  };

  SearchRequest req;
  Status decoded = DecodeSearchRequest(payload, &req);
  // One generation per request: grabbed once, held (shared_ptr) until the
  // response is written, so a concurrent swap cannot free it under us.
  std::shared_ptr<ServingGeneration> gen = holder_->Current();
  // A non-finite query would score NaN against every row and scan the
  // whole index, so it is a client error like a wrong dimension.
  if (!decoded.ok() || req.k == 0 || req.k > kMaxWireK ||
      req.options.window > kMaxWireWindow ||
      req.options.filter_widen_cap > kMaxWireWindow ||
      req.num_queries == 0 ||
      req.num_queries > opts_.max_queries_per_request ||
      req.dim != gen->index.dim() ||
      FirstNonFinite(req.view()).has_value()) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return reply_status(WireStatus::kBadRequest, gen->number);
  }
  SearchOptions options = req.options;
  if (options.window == 0) options.window = SearchOptions().window;
  // ValidateFor rejects a filter against an index with no metadata
  // attached (kCapFilter); the schema check below catches predicates
  // naming columns the attached store does not have. Both are client
  // errors, not fail-closed searches.
  if (!options.ValidateFor(gen->index.capabilities()).ok()) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return reply_status(WireStatus::kBadRequest, gen->number);
  }
  if (options.filter != nullptr) {
    const MetadataStore* md = gen->index.metadata();
    if (md == nullptr ||
        !options.filter->ValidateFor(md->num_columns()).ok()) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      return reply_status(WireStatus::kBadRequest, gen->number);
    }
  }

  Timer request_timer;
  const size_t nq = req.num_queries;
  const size_t k = req.k;
  std::vector<std::future<SearchResult>> futures;
  futures.reserve(nq);
  WireStatus admit = WireStatus::kOk;
  for (size_t q = 0; q < nq; ++q) {
    std::future<SearchResult> fut;
    ServingEngine::SubmitOutcome outcome = gen->engine->TrySubmit(
        req.queries + q * req.dim, k, options, &fut);
    if (outcome != ServingEngine::SubmitOutcome::kAccepted) {
      admit = StatusFromOutcome(outcome);
      break;
    }
    futures.push_back(std::move(fut));
  }

  // Await whatever was admitted even when rejecting the request — the
  // engine's in-flight accounting must settle, and a rejection response
  // must not race queries still holding this generation's searchers.
  SearchResponse res;
  res.generation = gen->number;
  res.num_queries = static_cast<uint32_t>(futures.size());
  res.k = static_cast<uint32_t>(k);
  res.ids.resize(futures.size() * k, kInvalidId);
  res.dists.resize(futures.size() * k, kInvalidDist);
  for (size_t q = 0; q < futures.size(); ++q) {
    SearchResult r = futures[q].get();
    if (r.outcome != SearchOutcome::kOk && admit == WireStatus::kOk) {
      admit = r.outcome == SearchOutcome::kShutdown
                  ? WireStatus::kShuttingDown
                  : WireStatus::kOverloaded;
    }
    const size_t m = std::min(k, r.ids.size());
    std::memcpy(res.ids.data() + q * k, r.ids.data(), m * sizeof(uint32_t));
    std::memcpy(res.dists.data() + q * k, r.dists.data(), m * sizeof(float));
  }

  if (admit != WireStatus::kOk) {
    if (admit == WireStatus::kOverloaded) {
      rejected_queries_.fetch_add(1, std::memory_order_relaxed);
    }
    return reply_status(admit, gen->number);
  }
  res.status = WireStatus::kOk;
  completed_queries_.fetch_add(nq, std::memory_order_relaxed);
  RecordLatencyUs(request_timer.Micros());
  return WriteFrame(conn, FrameType::kSearchResponse,
                    EncodeSearchResponse(res))
      .ok();
}

// ---------------------------------------------------------------------------
// HTTP /stats.
// ---------------------------------------------------------------------------

void BlinkServer::HandleHttp(TcpConn& conn) {
  http_requests_.fetch_add(1, std::memory_order_relaxed);
  // "GET " is consumed; read the rest of the head (bounded) to find the
  // path. We answer one request and close — curl's default mode.
  std::string head;
  char c = 0;
  while (head.size() < 4096 &&
         head.find("\r\n\r\n") == std::string::npos) {
    Result<bool> got = conn.ReadFullOrEof(&c, 1);
    if (!got.ok() || !got.value()) break;
    head.push_back(c);
  }
  const size_t space = head.find(' ');
  const std::string path =
      space == std::string::npos ? head.substr(0, head.find('\r'))
                                 : head.substr(0, space);

  std::string body;
  std::string status_line;
  if (path == "/stats" || path == "/stats/") {
    status_line = "HTTP/1.0 200 OK";
    body = StatsJson();
    body.push_back('\n');
  } else {
    status_line = "HTTP/1.0 404 Not Found";
    body = "{\"error\": \"unknown path; try /stats\"}\n";
  }
  std::string resp = status_line +
                     "\r\nContent-Type: application/json\r\nContent-Length: " +
                     std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n" + body;
  (void)conn.WriteFull(resp.data(), resp.size());
}

// ---------------------------------------------------------------------------
// Telemetry.
// ---------------------------------------------------------------------------

void BlinkServer::RecordLatencyUs(double us) {
  std::lock_guard<std::mutex> lk(lat_mu_);
  latencies_us_[lat_next_] = us;
  lat_next_ = (lat_next_ + 1) % latencies_us_.size();
  if (lat_next_ == 0) lat_full_ = true;
}

std::string BlinkServer::StatsJson() const {
  std::shared_ptr<ServingGeneration> gen = holder_->Current();
  const double uptime = uptime_.Seconds();
  const uint64_t completed =
      completed_queries_.load(std::memory_order_relaxed);

  std::vector<double> lats;
  {
    std::lock_guard<std::mutex> lk(lat_mu_);
    const size_t n = lat_full_ ? latencies_us_.size() : lat_next_;
    lats.assign(latencies_us_.begin(), latencies_us_.begin() + n);
  }

  json::Object o;
  o["server"] = "blink_server";
  o["uptime_seconds"] = uptime;
  o["generation"] = static_cast<double>(gen->number);
  o["swaps"] = static_cast<double>(holder_->swap_count());
  o["source"] = gen->source;
  {
    json::Object idx;
    idx["name"] = gen->index.name();
    idx["size"] = static_cast<double>(gen->index.size());
    idx["dim"] = static_cast<double>(gen->index.dim());
    idx["memory_bytes"] = static_cast<double>(gen->index.memory_bytes());
    o["index"] = std::move(idx);
  }
  o["completed_queries"] = static_cast<double>(completed);
  o["rejected_queries"] =
      static_cast<double>(rejected_queries_.load(std::memory_order_relaxed));
  o["bad_requests"] =
      static_cast<double>(bad_requests_.load(std::memory_order_relaxed));
  o["http_requests"] =
      static_cast<double>(http_requests_.load(std::memory_order_relaxed));
  o["qps"] = uptime > 0 ? static_cast<double>(completed) / uptime : 0.0;
  o["p50_us"] = lats.empty() ? 0.0 : Percentile(lats, 50.0);
  o["p99_us"] = lats.empty() ? 0.0 : Percentile(lats, 99.0);
  o["inflight"] = static_cast<double>(gen->engine->inflight());
  o["queue_depth"] = static_cast<double>(gen->engine->queue_depth());
  o["connections"] = static_cast<double>(connection_count());
  {
    ServingCounters c = gen->engine->counters();
    json::Object e;
    e["queries"] = static_cast<double>(c.queries);
    e["batches"] = static_cast<double>(c.batches);
    e["rejected"] = static_cast<double>(c.rejected);
    e["distance_computations"] =
        static_cast<double>(c.distance_computations);
    o["engine"] = std::move(e);
  }
  // Per-shard probe counts when the current generation is sharded.
  if (const auto* sharded = dynamic_cast<const ShardedIndex*>(
          &gen->index.AsSearchIndex())) {
    json::Array probes;
    for (uint64_t p : sharded->probe_counts()) {
      probes.push_back(static_cast<double>(p));
    }
    o["shard_probes"] = std::move(probes);
  }
  return json::Dump(json::Value(std::move(o)));
}

// ---------------------------------------------------------------------------
// Swap.
// ---------------------------------------------------------------------------

Result<uint64_t> BlinkServer::Swap(const std::string& path) {
  return holder_->SwapFromArtifact(path, opts_.swap_open);
}

}  // namespace net
}  // namespace blink
