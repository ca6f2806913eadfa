// Minimal POSIX TCP plumbing for the serving front end (DESIGN.md D13):
// an RAII connection, an RAII listener, and a connector — nothing more.
// Deliberately synchronous/blocking: the server runs one handler thread
// per connection (connection counts at this layer are bounded by
// ServerOptions::max_connections, and the expensive work per request is
// the search, not the socket write), and the closed-loop clients are
// blocking by nature.
//
// Cross-thread shutdown contract: Shutdown() on either class unblocks a
// peer thread parked in ReadFull()/Accept() — that is how the server
// stops its connection handlers without waiting for clients to hang up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "util/status.h"

namespace blink {
namespace net {

/// A connected TCP stream (RAII fd). Movable, not copyable.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(int fd) : fd_(fd) {}
  ~TcpConn() { Close(); }
  TcpConn(TcpConn&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  TcpConn& operator=(TcpConn&& o) noexcept {
    if (this != &o) {
      Close();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes exactly `n` bytes (retrying short writes/EINTR; EPIPE is an
  /// IOError, never a signal).
  Status WriteFull(const void* buf, size_t n);
  /// Writes `head` then `body` like one buffer, with one gathering send
  /// per attempt and no copy: under TCP_NODELAY a separate header send
  /// would go out as its own segment.
  Status WriteFull(const void* head, size_t head_n, const void* body,
                   size_t body_n);

  /// Reads exactly `n` bytes. A connection closed mid-read (or before the
  /// first byte) is an IOError; use ReadFullOrEof when a clean EOF at
  /// byte 0 is an expected outcome (end of a request stream).
  Status ReadFull(void* buf, size_t n);

  /// Like ReadFull, but a clean EOF before the first byte returns
  /// Result(false) instead of an error; true means all n bytes arrived.
  Result<bool> ReadFullOrEof(void* buf, size_t n);

  /// shutdown(2) both directions: any thread blocked in ReadFull on this
  /// connection wakes with an error. Safe to call from another thread;
  /// does not close the fd.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket. Bind with port 0 to get an ephemeral port
/// (port() reports the one actually bound — how the tests and the
/// --port 0 server run without colliding).
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Close(); }
  TcpListener(TcpListener&& o) noexcept : fd_(o.fd_), port_(o.port_) {
    o.fd_ = -1;
    o.port_ = 0;
  }
  TcpListener& operator=(TcpListener&& o) noexcept {
    if (this != &o) {
      Close();
      fd_ = o.fd_;
      port_ = o.port_;
      o.fd_ = -1;
      o.port_ = 0;
    }
    return *this;
  }
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds + listens on host:port (SO_REUSEADDR; host must be a numeric
  /// IPv4 address, e.g. "127.0.0.1" or "0.0.0.0").
  static Result<TcpListener> Bind(const std::string& host, uint16_t port,
                                  int backlog = 128);

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

  /// Blocks for the next connection (TCP_NODELAY set). After Shutdown()
  /// from another thread, returns an IOError instead of blocking forever.
  Result<TcpConn> Accept();

  /// Unblocks a concurrent Accept(). Safe from another thread.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Connects to host:port (numeric IPv4 or resolvable name), TCP_NODELAY.
Result<TcpConn> TcpConnect(const std::string& host, uint16_t port);

/// Splits "host:port" (the tools' --connect argument).
Result<std::pair<std::string, uint16_t>> ParseHostPort(const std::string& s);

}  // namespace net
}  // namespace blink
