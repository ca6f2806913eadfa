// Network front-end tests (ISSUE 8): wire-protocol round trips and bounds
// checks, loopback server correctness against the direct search path,
// HTTP /stats, malformed-frame handling, deterministic server-level
// admission control, and the tentpole guarantee — hot-swap under
// concurrent load with zero dropped or erroneous responses. Registered in
// the TSan CI job alongside the serving-engine suite.
#include "net/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/index.h"
#include "api/spec.h"
#include "eval/report.h"
#include "filter/metadata.h"
#include "filter/predicate.h"
#include "filter/synthetic.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "testutil.h"

namespace blink {
namespace {

using net::BlinkClient;
using net::BlinkServer;
using net::FrameType;
using net::SearchResponse;
using net::ServerOptions;
using net::StatusTextResponse;
using net::WireStatus;

// --- protocol unit tests ----------------------------------------------------

TEST(NetProtocol, SearchRequestRoundTrip) {
  MatrixF queries(3, 4);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries.data()[i] = 0.25f * static_cast<float>(i);
  }
  SearchOptions opts;
  opts.window = 48;
  opts.nprobe_shards = 3;
  opts.rerank_window = 17;
  opts.rerank = false;
  const std::vector<uint8_t> payload =
      net::EncodeSearchRequest(queries, /*k=*/7, opts);

  net::SearchRequest req;
  ASSERT_TRUE(net::DecodeSearchRequest(payload, &req).ok());
  EXPECT_EQ(req.k, 7u);
  EXPECT_EQ(req.options.window, 48u);
  EXPECT_EQ(req.options.nprobe_shards, 3u);
  EXPECT_EQ(req.options.rerank_window, 17u);
  EXPECT_FALSE(req.options.rerank);
  ASSERT_EQ(req.num_queries, 3u);
  ASSERT_EQ(req.dim, 4u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(req.queries[i], queries.data()[i]) << i;
  }
}

TEST(NetProtocol, SearchRequestRejectsTruncationAndMismatch) {
  MatrixF queries(2, 3);
  SearchOptions opts;
  std::vector<uint8_t> payload = net::EncodeSearchRequest(queries, 5, opts);
  net::SearchRequest req;

  // Truncated header.
  std::vector<uint8_t> short_header(payload.begin(), payload.begin() + 10);
  EXPECT_FALSE(net::DecodeSearchRequest(short_header, &req).ok());

  // Body shorter than the header promises.
  std::vector<uint8_t> short_body(payload.begin(), payload.end() - 4);
  EXPECT_FALSE(net::DecodeSearchRequest(short_body, &req).ok());

  // Body longer than the header promises.
  std::vector<uint8_t> long_body = payload;
  long_body.insert(long_body.end(), 4, 0);
  EXPECT_FALSE(net::DecodeSearchRequest(long_body, &req).ok());
}

TEST(NetProtocol, FilteredSearchRequestRoundTrip) {
  MatrixF queries(2, 3);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries.data()[i] = static_cast<float>(i);
  }
  Result<Predicate> pred =
      Predicate::Parse("tag:any=1,3 tag:none=60 num0>=2.5 num1<7");
  ASSERT_TRUE(pred.ok());
  SearchOptions opts;
  opts.window = 64;
  opts.filter = std::make_shared<Predicate>(std::move(pred).value());
  opts.filter_strategy = FilterStrategy::kInSearch;
  opts.filter_widen_cap = 512;
  const std::vector<uint8_t> payload =
      net::EncodeSearchRequest(queries, /*k=*/5, opts);

  net::SearchRequest req;
  ASSERT_TRUE(net::DecodeSearchRequest(payload, &req).ok());
  ASSERT_NE(req.options.filter, nullptr);
  EXPECT_EQ(req.options.filter->ToString(), opts.filter->ToString());
  EXPECT_EQ(req.options.filter_strategy, FilterStrategy::kInSearch);
  EXPECT_EQ(req.options.filter_widen_cap, 512u);
  ASSERT_EQ(req.num_queries, 2u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(req.queries[i], queries.data()[i]) << i;
  }
}

TEST(NetProtocol, FilteredSearchRequestRejectsMalformedBlocks) {
  MatrixF queries(1, 2);
  SearchOptions opts;
  opts.filter = std::make_shared<Predicate>(
      std::move(Predicate::Parse("num0<0.5")).value());
  const std::vector<uint8_t> payload =
      net::EncodeSearchRequest(queries, 5, opts);
  net::SearchRequest req;
  ASSERT_TRUE(net::DecodeSearchRequest(payload, &req).ok());

  // Fixed offsets from the wire layout (protocol.h): the flags byte sits
  // after k/window/nprobe/rerank_window (4x u32) + rerank (u8); the filter
  // strategy byte after the 28-byte header, the floats, and 3x u64 tags.
  const size_t kFlagsOff = 17;
  const size_t kStrategyOff = 28 + queries.size() * sizeof(float) + 24;

  // Unknown flag bits.
  std::vector<uint8_t> bad_flags = payload;
  bad_flags[kFlagsOff] |= 0x2;
  EXPECT_FALSE(net::DecodeSearchRequest(bad_flags, &req).ok());

  // Unknown strategy enum value.
  std::vector<uint8_t> bad_strategy = payload;
  bad_strategy[kStrategyOff] = 3;
  EXPECT_FALSE(net::DecodeSearchRequest(bad_strategy, &req).ok());

  // Truncated filter block.
  std::vector<uint8_t> truncated(payload.begin(), payload.end() - 4);
  EXPECT_FALSE(net::DecodeSearchRequest(truncated, &req).ok());

  // Trailing bytes after the filter block.
  std::vector<uint8_t> trailing = payload;
  trailing.insert(trailing.end(), 4, 0);
  EXPECT_FALSE(net::DecodeSearchRequest(trailing, &req).ok());

  // The filter flag set but no block at all.
  std::vector<uint8_t> missing_block =
      net::EncodeSearchRequest(queries, 5, SearchOptions{});
  missing_block[kFlagsOff] |= net::kSearchFlagHasFilter;
  EXPECT_FALSE(net::DecodeSearchRequest(missing_block, &req).ok());

  // Range count over the wire bound.
  SearchOptions many;
  auto big = std::make_shared<Predicate>();
  big->ranges.resize(net::kMaxWireFilterRanges + 1,
                     Predicate::Range{0, false, false, 0.0, 1.0});
  many.filter = std::move(big);
  EXPECT_FALSE(net::DecodeSearchRequest(
                   net::EncodeSearchRequest(queries, 5, many), &req)
                   .ok());
}

TEST(NetProtocol, SearchResponseRoundTripAndErrorShape) {
  SearchResponse res;
  res.status = WireStatus::kOk;
  res.generation = 42;
  res.num_queries = 2;
  res.k = 3;
  res.ids = {1, 2, kInvalidId, 4, 5, 6};
  res.dists = {0.1f, 0.2f, kInvalidDist, 0.4f, 0.5f, 0.6f};

  SearchResponse back;
  ASSERT_TRUE(
      net::DecodeSearchResponse(net::EncodeSearchResponse(res), &back).ok());
  EXPECT_EQ(back.status, WireStatus::kOk);
  EXPECT_EQ(back.generation, 42u);
  EXPECT_EQ(back.ids, res.ids);
  EXPECT_EQ(back.dists, res.dists);

  // Non-kOk responses carry no arrays regardless of what the struct held.
  res.status = WireStatus::kOverloaded;
  ASSERT_TRUE(
      net::DecodeSearchResponse(net::EncodeSearchResponse(res), &back).ok());
  EXPECT_EQ(back.status, WireStatus::kOverloaded);
  EXPECT_EQ(back.num_queries, 0u);
  EXPECT_EQ(back.k, 0u);
  EXPECT_TRUE(back.ids.empty());

  // Truncated response body is an error, not garbage results.
  std::vector<uint8_t> enc = net::EncodeSearchResponse(res);
  enc.pop_back();
  EXPECT_FALSE(net::DecodeSearchResponse(enc, &back).ok());
}

TEST(NetProtocol, SwapAndStatusTextRoundTrips) {
  std::string path;
  ASSERT_TRUE(
      net::DecodeSwapRequest(net::EncodeSwapRequest("/tmp/idx_b"), &path).ok());
  EXPECT_EQ(path, "/tmp/idx_b");

  // Length header inconsistent with the body: rejected.
  std::vector<uint8_t> bad = net::EncodeSwapRequest("abc");
  bad.push_back('d');
  EXPECT_FALSE(net::DecodeSwapRequest(bad, &path).ok());

  StatusTextResponse st;
  st.status = WireStatus::kError;
  st.generation = 9;
  st.text = "open failed: no such file";
  StatusTextResponse back;
  ASSERT_TRUE(net::DecodeStatusText(net::EncodeStatusText(st), &back).ok());
  EXPECT_EQ(back.status, WireStatus::kError);
  EXPECT_EQ(back.generation, 9u);
  EXPECT_EQ(back.text, st.text);
}

TEST(NetProtocol, WireReaderBoundsChecks) {
  const uint8_t buf[6] = {1, 2, 3, 4, 5, 6};
  net::WireReader r(buf, sizeof(buf));
  uint32_t u = 0;
  EXPECT_TRUE(r.U32(&u));
  EXPECT_EQ(r.remaining(), 2u);
  uint64_t big = 0;
  EXPECT_FALSE(r.U64(&big));  // only 2 bytes left
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.AtEnd());

  net::WireReader r2(buf, sizeof(buf));
  EXPECT_TRUE(r2.Skip(6));
  EXPECT_TRUE(r2.AtEnd());
  EXPECT_FALSE(r2.Skip(1));
}

TEST(NetSocket, ParseHostPort) {
  auto ok = net::ParseHostPort("127.0.0.1:7741");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().first, "127.0.0.1");
  EXPECT_EQ(ok.value().second, 7741);

  EXPECT_FALSE(net::ParseHostPort("127.0.0.1").ok());      // no port
  EXPECT_FALSE(net::ParseHostPort("127.0.0.1:").ok());     // empty port
  EXPECT_FALSE(net::ParseHostPort("127.0.0.1:0").ok());    // port 0
  EXPECT_FALSE(net::ParseHostPort("127.0.0.1:9x9").ok());  // non-digit
  EXPECT_FALSE(net::ParseHostPort("127.0.0.1:70000").ok());  // > 65535
}

// --- loopback server fixtures -----------------------------------------------

Index BuildNetIndex(const Dataset& data, int bits2 = 0) {
  IndexSpec spec;
  spec.kind = IndexKind::kStaticLvq;
  spec.metric = data.metric;
  spec.bits1 = 8;
  spec.bits2 = bits2;
  spec.graph.graph_max_degree = 16;
  spec.graph.window_size = 32;
  Result<Index> built = Build(spec, data.base);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

class NetServerTest : public testutil::TempPathTest {};

TEST_F(NetServerTest, LoopbackSearchMatchesDirectPath) {
  Dataset data = MakeDeepLike(1500, 30, 910);
  Index index = BuildNetIndex(data);
  const size_t k = 10, nq = data.queries.rows();
  SearchOptions p;
  p.window = 32;
  Matrix<uint32_t> direct(nq, k);
  index.SearchBatch(data.queries, k, p, direct.data());

  ServerOptions opts;
  opts.serving.num_threads = 2;
  Result<std::unique_ptr<BlinkServer>> started =
      BlinkServer::Start(std::move(index), opts);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<BlinkServer> server = std::move(started).value();

  Result<BlinkClient> connected = BlinkClient::Connect("127.0.0.1",
                                                       server->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  BlinkClient client = std::move(connected).value();

  WireStatus ping = WireStatus::kError;
  ASSERT_TRUE(client.Ping(&ping).ok());
  EXPECT_EQ(ping, WireStatus::kOk);

  SearchResponse res;
  ASSERT_TRUE(client.Search(data.queries, k, p, &res).ok());
  ASSERT_EQ(res.status, WireStatus::kOk);
  EXPECT_EQ(res.generation, 1u);
  ASSERT_EQ(res.num_queries, nq);
  ASSERT_EQ(res.k, k);
  for (size_t i = 0; i < direct.size(); ++i) {
    ASSERT_EQ(res.ids[i], direct.data()[i]) << "flat index " << i;
  }
  // Corpus >> k, so every slot must hold a real neighbor: valid id and a
  // finite distance (ExpectPaddedRow is for corpora smaller than k).
  for (size_t i = 0; i < res.ids.size(); ++i) {
    EXPECT_LT(res.ids[i], data.base.rows()) << "flat index " << i;
    EXPECT_TRUE(std::isfinite(res.dists[i])) << "flat index " << i;
  }

  // The stats frame reports the served traffic as valid JSON.
  StatusTextResponse stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  ASSERT_EQ(stats.status, WireStatus::kOk);
  Result<json::Value> doc = json::Parse(stats.text);
  ASSERT_TRUE(doc.ok()) << stats.text;
  const json::Value* completed = doc.value().Find("completed_queries");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->as_number(), static_cast<double>(nq));
  const json::Value* gen = doc.value().Find("generation");
  ASSERT_NE(gen, nullptr);
  EXPECT_EQ(gen->as_number(), 1.0);

  server->Stop();
}

TEST_F(NetServerTest, RejectsBadRequestsWithoutDroppingTheConnection) {
  Dataset data = MakeDeepLike(400, 4, 911);
  ServerOptions opts;
  opts.serving.num_threads = 1;
  opts.max_queries_per_request = 8;
  Result<std::unique_ptr<BlinkServer>> started =
      BlinkServer::Start(BuildNetIndex(data), opts);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<BlinkServer> server = std::move(started).value();
  Result<BlinkClient> connected = BlinkClient::Connect("127.0.0.1",
                                                       server->port());
  ASSERT_TRUE(connected.ok());
  BlinkClient client = std::move(connected).value();
  SearchOptions p;
  p.window = 32;
  SearchResponse res;

  // Wrong dimensionality: status response, connection stays usable.
  MatrixF wrong_dim(2, 32);
  ASSERT_TRUE(client.Search(wrong_dim, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  // k = 0.
  MatrixF one(1, data.base.cols());
  ASSERT_TRUE(client.Search(one, 0, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  // Over the per-request query cap.
  MatrixF many(9, data.base.cols());
  ASSERT_TRUE(client.Search(many, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  // A swap to a nonexistent artifact is an in-band kError, not a dropped
  // connection, and leaves the generation untouched.
  StatusTextResponse swap;
  ASSERT_TRUE(client.Swap(Path("no_such_artifact"), &swap).ok());
  EXPECT_EQ(swap.status, WireStatus::kError);
  EXPECT_FALSE(swap.text.empty());
  EXPECT_EQ(server->generations().generation(), 1u);

  // The same connection still answers a good request.
  ASSERT_TRUE(client.Search(one, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kOk);

  // Telemetry counted the rejects.
  StatusTextResponse stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  Result<json::Value> doc = json::Parse(stats.text);
  ASSERT_TRUE(doc.ok());
  const json::Value* bad = doc.value().Find("bad_requests");
  ASSERT_NE(bad, nullptr);
  EXPECT_GE(bad->as_number(), 3.0);
  server->Stop();
}

// A k far above any real top-k used to be answered with one frame of
// almost all padding (k = 4,194,304 made a 32 MiB response for one
// query). Above kMaxWireK the server answers kBadRequest, counts it, and
// keeps serving the connection.
TEST_F(NetServerTest, RejectsOversizedKWithoutDroppingTheConnection) {
  Dataset data = MakeDeepLike(400, 4, 916);
  ServerOptions opts;
  opts.serving.num_threads = 1;
  Result<std::unique_ptr<BlinkServer>> started =
      BlinkServer::Start(BuildNetIndex(data), opts);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<BlinkServer> server = std::move(started).value();
  Result<BlinkClient> connected = BlinkClient::Connect("127.0.0.1",
                                                       server->port());
  ASSERT_TRUE(connected.ok());
  BlinkClient client = std::move(connected).value();
  SearchOptions p;
  p.window = 32;
  SearchResponse res;

  MatrixF one(1, data.base.cols());
  std::copy(data.queries.row(0), data.queries.row(0) + one.cols(), one.row(0));
  ASSERT_TRUE(client.Search(one, 4'194'304, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kBadRequest);
  EXPECT_EQ(res.num_queries, 0u);
  EXPECT_TRUE(res.ids.empty());

  // The bound itself is a legal k, and the connection still answers.
  ASSERT_TRUE(client.Search(one, net::kMaxWireK, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kOk);
  ASSERT_EQ(res.k, net::kMaxWireK);
  EXPECT_NE(res.ids[0], kInvalidId);

  StatusTextResponse stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  Result<json::Value> doc = json::Parse(stats.text);
  ASSERT_TRUE(doc.ok());
  const json::Value* rejected = doc.value().Find("bad_requests");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->as_number(), 1.0);
  server->Stop();
}

// A query with a NaN or an infinite coordinate would score NaN against
// every row and scan the whole index: the server answers kBadRequest,
// counts it, and keeps serving the connection.
TEST_F(NetServerTest, RejectsNonFiniteQueriesWithoutDroppingTheConnection) {
  Dataset data = MakeDeepLike(400, 4, 915);
  ServerOptions opts;
  opts.serving.num_threads = 1;
  Result<std::unique_ptr<BlinkServer>> started =
      BlinkServer::Start(BuildNetIndex(data), opts);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<BlinkServer> server = std::move(started).value();
  Result<BlinkClient> connected = BlinkClient::Connect("127.0.0.1",
                                                       server->port());
  ASSERT_TRUE(connected.ok());
  BlinkClient client = std::move(connected).value();
  SearchOptions p;
  p.window = 32;
  SearchResponse res;

  MatrixF bad(2, data.base.cols());
  std::copy(data.queries.row(0), data.queries.row(0) + bad.cols(), bad.row(0));
  std::copy(data.queries.row(1), data.queries.row(1) + bad.cols(), bad.row(1));
  bad(1, 7) = std::numeric_limits<float>::quiet_NaN();
  ASSERT_TRUE(client.Search(bad, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kBadRequest);
  EXPECT_EQ(res.num_queries, 0u);

  bad(1, 7) = std::numeric_limits<float>::infinity();
  ASSERT_TRUE(client.Search(bad, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  // The same connection still answers a clean query.
  MatrixF clean(1, data.base.cols());
  std::copy(data.queries.row(0), data.queries.row(0) + clean.cols(),
            clean.row(0));
  ASSERT_TRUE(client.Search(clean, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kOk);
  ASSERT_EQ(res.num_queries, 1u);
  EXPECT_NE(res.ids[0], kInvalidId);

  StatusTextResponse stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  Result<json::Value> doc = json::Parse(stats.text);
  ASSERT_TRUE(doc.ok());
  const json::Value* rejected = doc.value().Find("bad_requests");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->as_number(), 2.0);
  server->Stop();
}

// A filtered search keeps what falls off its window up to the widen cap,
// so a window or widen cap above kMaxWireWindow is a kBadRequest, counted,
// on a connection that keeps serving; the bound itself is legal.
TEST_F(NetServerTest, RejectsOversizedWindowAndWidenCap) {
  Dataset data = MakeDeepLike(400, 4, 917);
  Index index = BuildNetIndex(data);
  ASSERT_TRUE(index
                  .AttachMetadata(std::make_shared<const MetadataStore>(
                      MakeSyntheticMetadata(data.base.rows(),
                                            {ColumnType::kF64}, 79)))
                  .ok());
  ServerOptions opts;
  opts.serving.num_threads = 1;
  Result<std::unique_ptr<BlinkServer>> started =
      BlinkServer::Start(std::move(index), opts);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<BlinkServer> server = std::move(started).value();
  Result<BlinkClient> connected = BlinkClient::Connect("127.0.0.1",
                                                       server->port());
  ASSERT_TRUE(connected.ok());
  BlinkClient client = std::move(connected).value();
  MatrixF one(1, data.base.cols());
  std::copy(data.queries.row(0), data.queries.row(0) + one.cols(), one.row(0));
  SearchOptions p;
  p.filter = std::make_shared<Predicate>(
      std::move(Predicate::Parse("num0<0.3")).value());
  p.filter_strategy = FilterStrategy::kPostFilter;
  SearchResponse res;

  p.window = 32;
  p.filter_widen_cap = net::kMaxWireWindow + 1;
  ASSERT_TRUE(client.Search(one, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kBadRequest);
  p.filter_widen_cap = 0;
  p.window = net::kMaxWireWindow + 1;
  ASSERT_TRUE(client.Search(one, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  p.window = net::kMaxWireWindow;
  p.filter_widen_cap = net::kMaxWireWindow;
  ASSERT_TRUE(client.Search(one, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kOk);
  EXPECT_NE(res.ids[0], kInvalidId);

  StatusTextResponse stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  Result<json::Value> doc = json::Parse(stats.text);
  ASSERT_TRUE(doc.ok());
  const json::Value* rejected = doc.value().Find("bad_requests");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->as_number(), 2.0);
  server->Stop();
}

TEST_F(NetServerTest, LoopbackFilteredSearchMatchesDirectPath) {
  Dataset data = MakeDeepLike(1200, 24, 913);
  Index index = BuildNetIndex(data);
  auto md = std::make_shared<const MetadataStore>(MakeSyntheticMetadata(
      data.base.rows(), {ColumnType::kF64}, /*seed=*/77));
  ASSERT_TRUE(index.AttachMetadata(md).ok());

  const size_t k = 10, nq = data.queries.rows();
  SearchOptions p;
  p.window = 32;
  p.filter = std::make_shared<Predicate>(
      std::move(Predicate::Parse("num0<0.2")).value());
  Matrix<uint32_t> direct(nq, k);
  index.SearchBatch(data.queries, k, p, direct.data());

  ServerOptions opts;
  opts.serving.num_threads = 2;
  Result<std::unique_ptr<BlinkServer>> started =
      BlinkServer::Start(std::move(index), opts);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<BlinkServer> server = std::move(started).value();
  Result<BlinkClient> connected = BlinkClient::Connect("127.0.0.1",
                                                       server->port());
  ASSERT_TRUE(connected.ok());
  BlinkClient client = std::move(connected).value();

  SearchResponse res;
  ASSERT_TRUE(client.Search(data.queries, k, p, &res).ok());
  ASSERT_EQ(res.status, WireStatus::kOk);
  ASSERT_EQ(res.num_queries, nq);
  for (size_t i = 0; i < direct.size(); ++i) {
    ASSERT_EQ(res.ids[i], direct.data()[i]) << "flat index " << i;
  }
  // Every returned neighbor satisfies the predicate (exactness contract).
  for (uint32_t id : res.ids) {
    if (id == kInvalidId) continue;
    EXPECT_TRUE(MatchesPredicate(*md, *p.filter, id)) << id;
  }
  server->Stop();
}

TEST_F(NetServerTest, FilterAgainstFilterlessIndexIsABadRequest) {
  Dataset data = MakeDeepLike(400, 4, 914);
  ServerOptions opts;
  opts.serving.num_threads = 1;
  Result<std::unique_ptr<BlinkServer>> started =
      BlinkServer::Start(BuildNetIndex(data), opts);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<BlinkServer> server = std::move(started).value();
  Result<BlinkClient> connected = BlinkClient::Connect("127.0.0.1",
                                                       server->port());
  ASSERT_TRUE(connected.ok());
  BlinkClient client = std::move(connected).value();

  MatrixF one(1, data.base.cols());
  SearchOptions p;
  p.window = 32;
  p.filter = std::make_shared<Predicate>(
      std::move(Predicate::Parse("num0<0.5")).value());
  SearchResponse res;
  ASSERT_TRUE(client.Search(one, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  // A predicate referencing a column beyond the schema is also rejected,
  // and the connection survives both rejects.
  p.filter = std::make_shared<Predicate>(
      std::move(Predicate::Parse("num7<0.5")).value());
  ASSERT_TRUE(client.Search(one, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  p.filter = nullptr;
  ASSERT_TRUE(client.Search(one, 5, p, &res).ok());
  EXPECT_EQ(res.status, WireStatus::kOk);
  server->Stop();
}

TEST_F(NetServerTest, MalformedFramesCloseTheConnection) {
  Dataset data = MakeDeepLike(400, 4, 912);
  ServerOptions opts;
  opts.serving.num_threads = 1;
  Result<std::unique_ptr<BlinkServer>> started =
      BlinkServer::Start(BuildNetIndex(data), opts);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<BlinkServer> server = std::move(started).value();

  // A length prefix beyond max_frame_bytes: the server hangs up.
  {
    Result<net::TcpConn> raw = net::TcpConnect("127.0.0.1", server->port());
    ASSERT_TRUE(raw.ok());
    const uint32_t huge = opts.max_frame_bytes + 1;
    ASSERT_TRUE(raw.value().WriteFull(&huge, sizeof(huge)).ok());
    uint8_t byte = 0;
    Result<bool> got = raw.value().ReadFullOrEof(&byte, 1);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got.value()) << "expected EOF after an oversized prefix";
  }

  // An unknown frame type: the server hangs up.
  {
    Result<net::TcpConn> raw = net::TcpConnect("127.0.0.1", server->port());
    ASSERT_TRUE(raw.ok());
    net::WireWriter w;
    w.U32(1);     // body_len = 1 (just the type byte)
    w.U8(0x7f);   // not a FrameType
    ASSERT_TRUE(raw.value().WriteFull(w.buf().data(), w.buf().size()).ok());
    uint8_t byte = 0;
    Result<bool> got = raw.value().ReadFullOrEof(&byte, 1);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got.value()) << "expected EOF after an unknown frame type";
  }
  server->Stop();
}

TEST_F(NetServerTest, HttpStatsEndpoint) {
  Dataset data = MakeDeepLike(400, 4, 913);
  ServerOptions opts;
  opts.serving.num_threads = 1;
  Result<std::unique_ptr<BlinkServer>> started =
      BlinkServer::Start(BuildNetIndex(data), opts);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<BlinkServer> server = std::move(started).value();

  auto http_get = [&](const std::string& target) {
    Result<net::TcpConn> raw = net::TcpConnect("127.0.0.1", server->port());
    EXPECT_TRUE(raw.ok());
    const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
    EXPECT_TRUE(raw.value().WriteFull(req.data(), req.size()).ok());
    std::string out;
    char buf[512];
    for (;;) {
      Result<bool> got = raw.value().ReadFullOrEof(buf, 1);
      if (!got.ok() || !got.value()) break;
      out.push_back(buf[0]);
    }
    return out;
  };

  const std::string stats = http_get("/stats");
  EXPECT_NE(stats.find("200 OK"), std::string::npos) << stats;
  const size_t body_at = stats.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  Result<json::Value> doc = json::Parse(stats.substr(body_at + 4));
  ASSERT_TRUE(doc.ok()) << stats;
  EXPECT_NE(doc.value().Find("http_requests"), nullptr);

  const std::string missing = http_get("/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
  server->Stop();
}

// --- deterministic server-level admission control ---------------------------

/// A SearchIndex stub that parks every search until the gate opens (the
/// server-level twin of the engine suite's GateIndex).
class GateIndex : public SearchIndex {
 public:
  explicit GateIndex(size_t dim) : dim_(dim) {}

  std::string name() const override { return "gate-stub"; }
  size_t size() const override { return 1; }
  size_t dim() const override { return dim_; }
  size_t memory_bytes() const override { return sizeof(*this); }

  std::unique_ptr<Searcher> MakeSearcher() const override {
    return std::make_unique<Gate>(this);
  }

  void WaitEntered(uint64_t n) const {
    std::unique_lock<std::mutex> lk(mu_);
    entered_cv_.wait(lk, [&] { return entered_ >= n; });
  }

  void OpenGate() const {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    gate_cv_.notify_all();
  }

 private:
  size_t dim_;
  mutable std::mutex mu_;
  mutable std::condition_variable entered_cv_;
  mutable std::condition_variable gate_cv_;
  mutable uint64_t entered_ = 0;
  mutable bool open_ = false;

  /// Parks every query until the gate opens, then answers id 0.
  class Gate : public Searcher {
   public:
    explicit Gate(const GateIndex* index)
        : Searcher(index->dim_), index_(index) {}

   private:
    void SearchFinite(const float*, size_t k, const SearchOptions&,
                      uint32_t* ids, float* dists, BatchStats*) override {
      {
        std::unique_lock<std::mutex> lk(index_->mu_);
        ++index_->entered_;
        index_->entered_cv_.notify_all();
        index_->gate_cv_.wait(lk, [&] { return index_->open_; });
      }
      const uint32_t hit = 0;
      const float dist = 0.0f;
      WritePaddedRow(&hit, &dist, 1, k, ids, dists);
    }

    const GateIndex* index_;
  };
};

// With queue_capacity=1, a second concurrent request is answered
// kOverloaded immediately — the socket thread never blocks on engine
// backpressure — and the admitted request still completes once the index
// unblocks. Sequenced entirely by the gate, no sleeps.
TEST(NetServer, OverloadIsAnsweredInBand) {
  auto gate_owned = std::make_unique<GateIndex>(/*dim=*/8);
  GateIndex* gate = gate_owned.get();
  IndexSpec spec;
  spec.kind = IndexKind::kStaticLvq;
  Index index = WrapSearchIndex(std::move(gate_owned), spec);

  ServerOptions opts;
  opts.serving.num_threads = 1;
  opts.serving.queue_capacity = 1;
  Result<std::unique_ptr<BlinkServer>> started =
      BlinkServer::Start(std::move(index), opts);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<BlinkServer> server = std::move(started).value();

  MatrixF query(1, 8);
  SearchOptions p;
  p.window = 4;

  // Client A occupies the engine (parked in the gate).
  SearchResponse res_a;
  Status status_a;
  std::thread a([&] {
    Result<BlinkClient> c = BlinkClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(c.ok());
    status_a = c.value().Search(query, 3, p, &res_a);
  });
  gate->WaitEntered(1);

  // Client B is rejected in-band, without waiting for A.
  Result<BlinkClient> cb = BlinkClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(cb.ok());
  SearchResponse res_b;
  ASSERT_TRUE(cb.value().Search(query, 3, p, &res_b).ok());
  EXPECT_EQ(res_b.status, WireStatus::kOverloaded);
  EXPECT_TRUE(res_b.ids.empty());

  gate->OpenGate();
  a.join();
  ASSERT_TRUE(status_a.ok());
  EXPECT_EQ(res_a.status, WireStatus::kOk);
  ASSERT_EQ(res_a.ids.size(), 3u);
  EXPECT_EQ(res_a.ids[0], 0u);

  StatusTextResponse stats;
  ASSERT_TRUE(cb.value().Stats(&stats).ok());
  Result<json::Value> doc = json::Parse(stats.text);
  ASSERT_TRUE(doc.ok());
  const json::Value* rejected = doc.value().Find("rejected_queries");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->as_number(), 1.0);
  const json::Value* completed = doc.value().Find("completed_queries");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->as_number(), 1.0);
  server->Stop();
}

// --- the tentpole guarantee: hot-swap under concurrent load -----------------

// N client threads run closed-loop self-queries over loopback while the
// server hot-swaps generations in a loop. The bar: zero transport errors,
// zero non-kOk responses (capacity is sized so admission never rejects),
// every id valid, per-connection generation numbers non-decreasing, and
// self-recall stays high across every generation — no response is ever
// served from a freed index.
TEST_F(NetServerTest, HotSwapUnderConcurrentLoad) {
  Dataset data = MakeDeepLike(2000, 1, 914);
  const size_t dim = data.base.cols();

  const std::string path_a = Path("hot_swap_a");
  (void)Path("hot_swap_a.graph");
  (void)Path("hot_swap_a.vecs");
  const std::string path_b = Path("hot_swap_b");
  (void)Path("hot_swap_b.graph");
  (void)Path("hot_swap_b.vecs");
  ASSERT_TRUE(BuildNetIndex(data, /*bits2=*/0).Save(path_a).ok());
  ASSERT_TRUE(BuildNetIndex(data, /*bits2=*/8).Save(path_b).ok());

  ServerOptions opts;
  opts.serving.num_threads = 2;
  Result<std::unique_ptr<BlinkServer>> started =
      BlinkServer::Start(BuildNetIndex(data), opts);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<BlinkServer> server = std::move(started).value();

  const size_t kClients = 3;
  const size_t kBatch = 4;
  const size_t k = 10;
  const uint64_t kSwaps = 4;  // acceptance bar is >= 3 consecutive swaps
  std::atomic<bool> done{false};
  std::atomic<uint64_t> total_queries{0};
  std::atomic<uint64_t> self_hits{0};
  std::atomic<uint64_t> transport_errors{0};
  std::atomic<uint64_t> wrong_status{0};
  std::atomic<uint64_t> max_generation{0};

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<BlinkClient> connected =
          BlinkClient::Connect("127.0.0.1", server->port());
      ASSERT_TRUE(connected.ok());
      BlinkClient client = std::move(connected).value();
      SearchOptions p;
      p.window = 32;
      MatrixF queries(kBatch, dim);
      std::vector<size_t> rows(kBatch);
      uint64_t last_generation = 0;
      size_t next = c * 131;  // disjoint-ish starting points
      while (!done.load(std::memory_order_relaxed)) {
        for (size_t b = 0; b < kBatch; ++b) {
          rows[b] = (next + b * 61) % data.base.rows();
          std::memcpy(queries.row(b), data.base.row(rows[b]),
                      dim * sizeof(float));
        }
        next += kBatch * 61;
        SearchResponse res;
        Status s = client.Search(queries, k, p, &res);
        if (!s.ok()) {
          ++transport_errors;
          break;
        }
        if (res.status != WireStatus::kOk) {
          ++wrong_status;
          continue;
        }
        // Generations only ever move forward on one connection.
        EXPECT_GE(res.generation, last_generation);
        last_generation = res.generation;
        uint64_t seen = max_generation.load();
        while (res.generation > seen &&
               !max_generation.compare_exchange_weak(seen, res.generation)) {
        }
        for (size_t b = 0; b < kBatch; ++b) {
          ++total_queries;
          bool hit = false;
          for (size_t j = 0; j < k; ++j) {
            const uint32_t id = res.ids[b * k + j];
            ASSERT_TRUE(id == kInvalidId || id < data.base.rows());
            if (id == rows[b]) hit = true;
          }
          if (hit) ++self_hits;
        }
      }
    });
  }

  // The swapper: >= 3 consecutive hot-swaps while the clients hammer.
  for (uint64_t s = 0; s < kSwaps; ++s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Result<uint64_t> swapped = server->Swap(s % 2 == 0 ? path_b : path_a);
    ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
    EXPECT_EQ(swapped.value(), s + 2);
  }
  // Let traffic observe the final generation before stopping the clients
  // (bounded wait — generous for the TSan build).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (max_generation.load() < kSwaps + 1 &&
         transport_errors.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_EQ(wrong_status.load(), 0u);
  EXPECT_GT(total_queries.load(), 0u);
  EXPECT_EQ(server->generations().swap_count(), kSwaps);
  EXPECT_EQ(server->generations().generation(), kSwaps + 1);
  EXPECT_EQ(max_generation.load(), kSwaps + 1);  // traffic saw the last swap

  // Self-queries are exact duplicates of indexed vectors: they must stay
  // findable through every generation.
  const double hit_rate = static_cast<double>(self_hits.load()) /
                          static_cast<double>(total_queries.load());
  EXPECT_GE(hit_rate, 0.95) << self_hits.load() << "/" << total_queries.load();

  server->Stop();
  // Stop() is idempotent.
  server->Stop();
}

}  // namespace
}  // namespace blink
