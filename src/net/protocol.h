// blink wire protocol (DESIGN.md D13): length-prefixed binary frames over
// a TCP stream, little-endian scalars (x86-native; documented, not
// negotiated).
//
//   frame   := u32 body_len | body            body_len = len(body) >= 1
//   body    := u8 type | payload
//
// Request payloads
//   kSearchRequest:                          (1 <= k <= kMaxWireK;
//                                   window, widen_cap <= kMaxWireWindow)
//     u32 k | u32 window | u32 nprobe_shards | u32 rerank_window |
//     u8 rerank | u8 flags | u8 reserved[2] | u32 num_queries | u32 dim |
//     f32 data[num_queries * dim] | [filter]
//   flags bit 0 = a filter block follows the query floats (the byte was
//   reserved-zero before filters existed, so filterless clients of any
//   vintage decode unchanged); other bits must be zero.
//   filter  := u64 tag_any | u64 tag_all | u64 tag_none |
//              u8 strategy (0 auto, 1 post-filter, 2 in-search) |
//              u8 reserved[3] | u32 widen_cap | u32 num_ranges (<= 64) |
//              num_ranges * (u32 column | u8 lo_strict | u8 hi_strict |
//                            u8 reserved[2] | f64 lo | f64 hi)
//   kStatsRequest: (empty)                  -> JSON telemetry
//   kSwapRequest:  u32 path_len | path      -> hot-swap to that artifact
//   kPingRequest:  (empty)                  -> readiness probe
//
// Response payloads (type = request type | 0x80)
//   kSearchResponse:
//     u8 status | u8 reserved[3] | u64 generation |
//     u32 num_queries | u32 k | u32 ids[nq*k] | f32 dists[nq*k]
//     (num_queries = k = 0 and no arrays unless status == kOk; ids/dists
//      follow the eval/interface.h padding contract: kInvalidId / +inf)
//   kStatsResponse: u8 status | u8 reserved[3] | u32 json_len | json
//   kSwapResponse:  u8 status | u8 reserved[3] | u64 generation |
//                   u32 msg_len | msg       (msg = error text when !kOk)
//   kPingResponse:  u8 status
//
// Admission control is in-band: an overloaded server answers a search
// frame immediately with status kOverloaded instead of queueing —
// clients never stall behind a full queue, and the socket thread never
// blocks on backpressure.
//
// HTTP escape hatch: a connection whose first four bytes are "GET " is
// served as one-shot HTTP — `GET /stats` returns the same JSON as
// kStatsRequest (curl-able), anything else 404 — then closed. The sniff
// is unambiguous: "GET " as a little-endian u32 is 0x20544547 (~542 MB),
// far above any sane frame bound.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "eval/interface.h"
#include "net/socket.h"
#include "util/matrix.h"
#include "util/status.h"

namespace blink {
namespace net {

/// Default per-frame bound: big enough for a 4096-query batch of d=1536
/// float32 vectors, small enough to reject garbage length prefixes before
/// allocating.
inline constexpr uint32_t kDefaultMaxFrameBytes = 64u << 20;

enum class FrameType : uint8_t {
  kSearchRequest = 1,
  kStatsRequest = 2,
  kSwapRequest = 3,
  kPingRequest = 4,
  kSearchResponse = 0x81,
  kStatsResponse = 0x82,
  kSwapResponse = 0x83,
  kPingResponse = 0x84,
};

/// Per-response disposition, the wire face of SearchOutcome.
enum class WireStatus : uint8_t {
  kOk = 0,
  kOverloaded = 1,    ///< admission control rejected the request
  kShuttingDown = 2,  ///< server is stopping; retry elsewhere
  kBadRequest = 3,    ///< malformed frame / invalid options / wrong dim
  kError = 4,         ///< server-side failure (e.g. swap Open error)
};

inline const char* WireStatusName(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kOverloaded: return "overloaded";
    case WireStatus::kShuttingDown: return "shutting-down";
    case WireStatus::kBadRequest: return "bad-request";
    case WireStatus::kError: return "error";
  }
  return "unknown";
}

// --- byte-buffer encode/decode ---------------------------------------------

/// Appends little-endian scalars to a byte vector. (x86-native byte order;
/// memcpy keeps it alignment-safe.)
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bytes(const void* p, size_t n) { Raw(p, n); }
  void Pad(size_t n) { buf_.insert(buf_.end(), n, 0); }

  std::vector<uint8_t>& buf() { return buf_; }
  const std::vector<uint8_t>& buf() const { return buf_; }

 private:
  // resize + memcpy rather than a range insert: GCC 12 misreads the
  // inlined insert as an overflow (-Wstringop-overflow) in some callers.
  void Raw(const void* p, size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    if (n != 0) std::memcpy(buf_.data() + at, p, n);
  }
  std::vector<uint8_t> buf_;
};

/// Bounds-checked reads over a received payload. Every getter returns
/// false once the payload is exhausted; check ok() (or the getter) before
/// trusting outputs.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : p_(data), n_(size) {}

  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F32(float* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Bytes(void* out, size_t n) { return Raw(out, n); }
  bool Skip(size_t n) {
    if (n_ - off_ < n) return ok_ = false;
    off_ += n;
    return true;
  }
  /// Borrow `n` bytes in place (valid while the payload buffer lives).
  bool View(const uint8_t** out, size_t n) {
    if (n_ - off_ < n) return ok_ = false;
    *out = p_ + off_;
    off_ += n;
    return true;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && off_ == n_; }
  size_t remaining() const { return n_ - off_; }

 private:
  bool Raw(void* out, size_t n) {
    if (n_ - off_ < n) return ok_ = false;
    std::memcpy(out, p_ + off_, n);
    off_ += n;
    return true;
  }
  const uint8_t* p_;
  size_t n_;
  size_t off_ = 0;
  bool ok_ = true;
};

// --- framing over a TcpConn -------------------------------------------------

/// Writes one frame (length prefix + type + payload) as one gathering
/// send of the 5-byte header and the payload, without copying the payload.
inline Status WriteFrame(TcpConn& conn, FrameType type,
                         const std::vector<uint8_t>& payload) {
  const uint64_t body = 1 + payload.size();
  if (body > UINT32_MAX) return Status::InvalidArgument("frame too large");
  WireWriter head;
  head.U32(static_cast<uint32_t>(body));
  head.U8(static_cast<uint8_t>(type));
  return conn.WriteFull(head.buf().data(), head.buf().size(),
                        payload.data(), payload.size());
}

/// Reads the body of a frame whose u32 length prefix was already consumed
/// (the server reads the first 4 bytes itself to sniff HTTP).
inline Status ReadFrameBody(TcpConn& conn, uint32_t body_len,
                            uint32_t max_frame_bytes, FrameType* type,
                            std::vector<uint8_t>* payload) {
  if (body_len == 0) return Status::InvalidArgument("empty frame body");
  if (body_len > max_frame_bytes) {
    return Status::InvalidArgument(
        "frame body of " + std::to_string(body_len) +
        " bytes exceeds the limit (" + std::to_string(max_frame_bytes) + ")");
  }
  uint8_t t = 0;
  BLINK_RETURN_NOT_OK(conn.ReadFull(&t, 1));
  *type = static_cast<FrameType>(t);
  payload->resize(body_len - 1);
  if (!payload->empty()) {
    BLINK_RETURN_NOT_OK(conn.ReadFull(payload->data(), payload->size()));
  }
  return Status::OK();
}

/// Reads one whole frame. Result(false) on clean EOF before a new frame
/// (the peer is done); errors elsewhere.
inline Result<bool> ReadFrame(TcpConn& conn, uint32_t max_frame_bytes,
                              FrameType* type, std::vector<uint8_t>* payload) {
  uint32_t body_len = 0;
  Result<bool> got = conn.ReadFullOrEof(&body_len, sizeof(body_len));
  if (!got.ok()) return got.status();
  if (!got.value()) return false;
  BLINK_RETURN_NOT_OK(
      ReadFrameBody(conn, body_len, max_frame_bytes, type, payload));
  return true;
}

// --- search request ---------------------------------------------------------

/// A parsed kSearchRequest. `queries` points into the payload buffer it
/// was decoded from (no copy); keep that buffer alive while using it.
struct SearchRequest {
  uint32_t k = 0;
  SearchOptions options;
  uint32_t num_queries = 0;
  uint32_t dim = 0;
  const float* queries = nullptr;

  MatrixViewF view() const { return MatrixViewF(queries, num_queries, dim); }
};

/// Wire flags (the byte after `rerank`; reserved-zero pre-filter).
inline constexpr uint8_t kSearchFlagHasFilter = 1u << 0;
/// Range-count bound for the filter block: far above any sane predicate,
/// small enough to reject garbage before allocating.
inline constexpr uint32_t kMaxWireFilterRanges = 64;
/// Largest k a search request may ask for: far above any real top-k, and
/// small enough that a full request's answer (ServerOptions'
/// max_queries_per_request rows of k ids and distances) fits in a
/// kDefaultMaxFrameBytes frame. A larger k is a kBadRequest, not a
/// response of mostly padding.
inline constexpr uint32_t kMaxWireK = 1024;
/// Largest `window` and filter `widen_cap` a search request may ask for
/// (0, auto, is always legal). A filtered search keeps what falls off its
/// window up to the widen cap, so the cap bounds the buffer one request
/// can make the server hold; 2^16 is far above any calibrated window. A
/// larger value is a kBadRequest.
inline constexpr uint32_t kMaxWireWindow = 1u << 16;

inline std::vector<uint8_t> EncodeSearchRequest(MatrixViewF queries,
                                                uint32_t k,
                                                const SearchOptions& options) {
  WireWriter w;
  w.U32(k);
  w.U32(options.window);
  w.U32(options.nprobe_shards);
  w.U32(options.rerank_window);
  w.U8(options.rerank ? 1 : 0);
  w.U8(options.filter != nullptr ? kSearchFlagHasFilter : 0);
  w.Pad(2);
  w.U32(static_cast<uint32_t>(queries.rows));
  w.U32(static_cast<uint32_t>(queries.cols));
  w.Bytes(queries.data, queries.rows * queries.cols * sizeof(float));
  if (options.filter != nullptr) {
    const Predicate& p = *options.filter;
    w.U64(p.tag_any);
    w.U64(p.tag_all);
    w.U64(p.tag_none);
    w.U8(static_cast<uint8_t>(options.filter_strategy));
    w.Pad(3);
    w.U32(options.filter_widen_cap);
    w.U32(static_cast<uint32_t>(p.ranges.size()));
    for (const Predicate::Range& rg : p.ranges) {
      w.U32(rg.column);
      w.U8(rg.lo_strict ? 1 : 0);
      w.U8(rg.hi_strict ? 1 : 0);
      w.Pad(2);
      w.F64(rg.lo);
      w.F64(rg.hi);
    }
  }
  return std::move(w.buf());
}

/// Structural decode only (shape + bounds); semantic validation (dim match,
/// SearchOptions::Validate, predicate-vs-schema) is the server's.
inline Status DecodeSearchRequest(const std::vector<uint8_t>& payload,
                                  SearchRequest* out) {
  WireReader r(payload.data(), payload.size());
  uint8_t rerank = 0;
  uint8_t flags = 0;
  if (!r.U32(&out->k) || !r.U32(&out->options.window) ||
      !r.U32(&out->options.nprobe_shards) ||
      !r.U32(&out->options.rerank_window) || !r.U8(&rerank) || !r.U8(&flags) ||
      !r.Skip(2) || !r.U32(&out->num_queries) || !r.U32(&out->dim)) {
    return Status::InvalidArgument("truncated search request header");
  }
  out->options.rerank = rerank != 0;
  if ((flags & ~kSearchFlagHasFilter) != 0) {
    return Status::InvalidArgument("search request has unknown flag bits set");
  }
  const bool has_filter = (flags & kSearchFlagHasFilter) != 0;
  const uint64_t floats =
      static_cast<uint64_t>(out->num_queries) * out->dim;
  // Filterless requests (any client vintage) must consume the payload
  // exactly; with a filter the block follows the floats and the decode
  // below re-checks exhaustion.
  if (!has_filter && floats * sizeof(float) != r.remaining()) {
    return Status::InvalidArgument(
        "search request payload size mismatch: header says " +
        std::to_string(floats) + " floats, body has " +
        std::to_string(r.remaining() / sizeof(float)));
  }
  const uint8_t* raw = nullptr;
  if (floats > 0 && !r.View(&raw, floats * sizeof(float))) {
    return Status::InvalidArgument("truncated search request body");
  }
  out->queries = reinterpret_cast<const float*>(raw);
  if (has_filter) {
    auto pred = std::make_shared<Predicate>();
    uint8_t strategy = 0;
    uint32_t num_ranges = 0;
    if (!r.U64(&pred->tag_any) || !r.U64(&pred->tag_all) ||
        !r.U64(&pred->tag_none) || !r.U8(&strategy) || !r.Skip(3) ||
        !r.U32(&out->options.filter_widen_cap) || !r.U32(&num_ranges)) {
      return Status::InvalidArgument("truncated search request filter block");
    }
    if (strategy > static_cast<uint8_t>(FilterStrategy::kInSearch)) {
      return Status::InvalidArgument("search request has an unknown filter "
                                     "strategy (" +
                                     std::to_string(strategy) + ")");
    }
    if (num_ranges > kMaxWireFilterRanges) {
      return Status::InvalidArgument(
          "search request filter has " + std::to_string(num_ranges) +
          " ranges (limit " + std::to_string(kMaxWireFilterRanges) + ")");
    }
    pred->ranges.resize(num_ranges);
    for (Predicate::Range& rg : pred->ranges) {
      uint8_t lo_strict = 0, hi_strict = 0;
      if (!r.U32(&rg.column) || !r.U8(&lo_strict) || !r.U8(&hi_strict) ||
          !r.Skip(2) || !r.F64(&rg.lo) || !r.F64(&rg.hi)) {
        return Status::InvalidArgument("truncated search request filter "
                                       "range");
      }
      rg.lo_strict = lo_strict != 0;
      rg.hi_strict = hi_strict != 0;
    }
    if (!r.AtEnd()) {
      return Status::InvalidArgument(
          "search request has trailing bytes after the filter block");
    }
    out->options.filter_strategy = static_cast<FilterStrategy>(strategy);
    out->options.filter = std::move(pred);
  }
  return Status::OK();
}

// --- search response --------------------------------------------------------

struct SearchResponse {
  WireStatus status = WireStatus::kOk;
  uint64_t generation = 0;
  uint32_t num_queries = 0;
  uint32_t k = 0;
  std::vector<uint32_t> ids;   ///< num_queries x k row-major, padded
  std::vector<float> dists;    ///< num_queries x k row-major, padded
};

inline std::vector<uint8_t> EncodeSearchResponse(const SearchResponse& res) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(res.status));
  w.Pad(3);
  w.U64(res.generation);
  if (res.status == WireStatus::kOk) {
    w.U32(res.num_queries);
    w.U32(res.k);
    w.Bytes(res.ids.data(), res.ids.size() * sizeof(uint32_t));
    w.Bytes(res.dists.data(), res.dists.size() * sizeof(float));
  } else {
    w.U32(0);
    w.U32(0);
  }
  return std::move(w.buf());
}

inline Status DecodeSearchResponse(const std::vector<uint8_t>& payload,
                                   SearchResponse* out) {
  WireReader r(payload.data(), payload.size());
  uint8_t status = 0;
  if (!r.U8(&status) || !r.Skip(3) || !r.U64(&out->generation) ||
      !r.U32(&out->num_queries) || !r.U32(&out->k)) {
    return Status::InvalidArgument("truncated search response header");
  }
  out->status = static_cast<WireStatus>(status);
  const uint64_t cells =
      static_cast<uint64_t>(out->num_queries) * out->k;
  if (cells * (sizeof(uint32_t) + sizeof(float)) != r.remaining()) {
    return Status::InvalidArgument("search response size mismatch");
  }
  out->ids.resize(cells);
  out->dists.resize(cells);
  if (cells > 0) {
    if (!r.Bytes(out->ids.data(), cells * sizeof(uint32_t)) ||
        !r.Bytes(out->dists.data(), cells * sizeof(float))) {
      return Status::InvalidArgument("truncated search response body");
    }
  }
  return Status::OK();
}

// --- stats / swap / ping ----------------------------------------------------

inline std::vector<uint8_t> EncodeSwapRequest(const std::string& path) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(path.size()));
  w.Bytes(path.data(), path.size());
  return std::move(w.buf());
}

inline Status DecodeSwapRequest(const std::vector<uint8_t>& payload,
                                std::string* path) {
  WireReader r(payload.data(), payload.size());
  uint32_t len = 0;
  if (!r.U32(&len) || len != r.remaining()) {
    return Status::InvalidArgument("malformed swap request");
  }
  path->resize(len);
  if (len > 0 && !r.Bytes(path->data(), len)) {
    return Status::InvalidArgument("truncated swap request");
  }
  return Status::OK();
}

/// Status + u64 (generation) + trailing text — the shape shared by the
/// swap response (text = error) and the stats response (text = JSON,
/// generation = 0).
struct StatusTextResponse {
  WireStatus status = WireStatus::kOk;
  uint64_t generation = 0;
  std::string text;
};

inline std::vector<uint8_t> EncodeStatusText(const StatusTextResponse& res) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(res.status));
  w.Pad(3);
  w.U64(res.generation);
  w.U32(static_cast<uint32_t>(res.text.size()));
  w.Bytes(res.text.data(), res.text.size());
  return std::move(w.buf());
}

inline Status DecodeStatusText(const std::vector<uint8_t>& payload,
                               StatusTextResponse* out) {
  WireReader r(payload.data(), payload.size());
  uint8_t status = 0;
  uint32_t len = 0;
  if (!r.U8(&status) || !r.Skip(3) || !r.U64(&out->generation) ||
      !r.U32(&len) || len != r.remaining()) {
    return Status::InvalidArgument("malformed status+text response");
  }
  out->status = static_cast<WireStatus>(status);
  out->text.resize(len);
  if (len > 0 && !r.Bytes(out->text.data(), len)) {
    return Status::InvalidArgument("truncated status+text response");
  }
  return Status::OK();
}

}  // namespace net
}  // namespace blink
