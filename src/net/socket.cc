#include "net/socket.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace blink {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

void SetNoDelay(int fd) {
  int one = 1;
  // Latency over throughput for small frames; failure is harmless.
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpConn.
// ---------------------------------------------------------------------------

Status TcpConn::WriteFull(const void* buf, size_t n) {
  return WriteFull(buf, n, nullptr, 0);
}

Status TcpConn::WriteFull(const void* head, size_t head_n, const void* body,
                          size_t body_n) {
  if (fd_ < 0) return Status::IOError("write on closed connection");
  iovec iov[2] = {{const_cast<void*>(head), head_n},
                  {const_cast<void*>(body), body_n}};
  iovec* cur = iov;
  size_t count = 2;
  for (;;) {
    // Skip fully written (and empty) buffers.
    while (count > 0 && cur->iov_len == 0) {
      ++cur;
      --count;
    }
    if (count == 0) return Status::OK();
    msghdr msg{};
    msg.msg_iov = cur;
    msg.msg_iovlen = count;
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not kill
    // the process with SIGPIPE (writev has no such flag).
    const ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("sendmsg");
    }
    // Drop what was sent; the loop head skips the emptied buffers.
    size_t left = static_cast<size_t>(w);
    for (iovec* v = cur; left > 0; ++v) {
      const size_t step = std::min(left, v->iov_len);
      v->iov_base = static_cast<char*>(v->iov_base) + step;
      v->iov_len -= step;
      left -= step;
    }
  }
}

Status TcpConn::ReadFull(void* buf, size_t n) {
  Result<bool> got = ReadFullOrEof(buf, n);
  if (!got.ok()) return got.status();
  if (!got.value()) return Status::IOError("connection closed by peer");
  return Status::OK();
}

Result<bool> TcpConn::ReadFullOrEof(void* buf, size_t n) {
  if (fd_ < 0) return Status::IOError("read on closed connection");
  char* p = static_cast<char*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::recv(fd_, p + done, n - done, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (r == 0) {
      if (done == 0) return false;  // clean EOF between messages
      return Status::IOError("connection closed mid-message (got " +
                             std::to_string(done) + " of " +
                             std::to_string(n) + " bytes)");
    }
    done += static_cast<size_t>(r);
  }
  return true;
}

void TcpConn::Shutdown() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

void TcpConn::Close() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// TcpListener.
// ---------------------------------------------------------------------------

Result<TcpListener> TcpListener::Bind(const std::string& host, uint16_t port,
                                      int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  TcpListener l;
  l.fd_ = fd;  // RAII from here on

  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Errno("getsockname");
  }
  l.port_ = ntohs(bound.sin_port);
  return l;
}

Result<TcpConn> TcpListener::Accept() {
  if (fd_ < 0) return Status::IOError("accept on closed listener");
  for (;;) {
    const int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      return Errno("accept");
    }
    SetNoDelay(cfd);
    return TcpConn(cfd);
  }
}

void TcpListener::Shutdown() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
    port_ = 0;
  }
}

// ---------------------------------------------------------------------------
// Connect + address parsing.
// ---------------------------------------------------------------------------

Result<TcpConn> TcpConnect(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (rc != 0) {
    return Status::IOError("getaddrinfo " + host + ": " + gai_strerror(rc));
  }
  Status last = Status::IOError("no addresses for " + host);
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      SetNoDelay(fd);
      ::freeaddrinfo(res);
      return TcpConn(fd);
    }
    last = Errno("connect " + host + ":" + std::to_string(port));
    (void)::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

Result<std::pair<std::string, uint16_t>> ParseHostPort(const std::string& s) {
  const size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
    return Status::InvalidArgument("expected host:port, got '" + s + "'");
  }
  const std::string host = s.substr(0, colon);
  const std::string port_str = s.substr(colon + 1);
  unsigned long port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad port in '" + s + "'");
    }
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("port out of range in '" + s + "'");
    }
  }
  if (port == 0) {
    return Status::InvalidArgument("port 0 is not connectable: '" + s + "'");
  }
  return std::make_pair(host, static_cast<uint16_t>(port));
}

}  // namespace net
}  // namespace blink
