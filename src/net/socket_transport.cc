#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>

namespace d3t::net {
namespace {

constexpr size_t kPreambleSize = 8;
constexpr int kListenBacklog = 64;
/// An accepted connection that has not finished its preamble by this
/// deadline is dropped — a stray connector must not wedge the acceptor.
constexpr int64_t kPreambleDeadlineMs = 5000;
/// Per-attempt bound on the nonblocking connect completing.
constexpr int kConnectAttemptTimeoutMs = 1000;

void EncodePreamble(uint32_t peer, uint8_t* out) {
  std::memcpy(out, &kSocketPreambleMagic, 4);
  std::memcpy(out + 4, &peer, 4);
}

/// Maps an errno from a channel operation onto the transport's error
/// taxonomy: the well-known peer-death errnos get stable spellings that
/// tests and operators can match on; anything else keeps strerror's.
/// Cold path by design — Send/Poll reach here only when a channel dies.
Status SocketErrorStatus(const char* what, int err, PeerId peer) {
  const char* detail = nullptr;
  switch (err) {
    case ECONNREFUSED:
      detail = "connection refused";
      break;
    case ECONNRESET:
      detail = "connection reset by peer";
      break;
    case EPIPE:
      detail = "broken pipe";
      break;
    case ETIMEDOUT:
      detail = "connection timed out";
      break;
    default:
      detail = strerror(err);
      break;
  }
  std::string msg(what);
  msg += ": ";
  msg += detail;
  msg += " (peer ";
  msg += std::to_string(peer);
  msg += ")";
  return Status::IoError(msg);
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return SocketErrorStatus("fcntl(O_NONBLOCK)", errno, kInvalidPeerId);
  }
  return Status::Ok();
}

void SetNoDelay(int fd) {
  // Frames are small and latency-sensitive; Nagle would batch them.
  // Best effort: a transport that merely coalesces is still correct.
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

int64_t MonotonicMillis() {
  timespec ts{};
  // d3t-lint: allow(entropy) physical-time socket deadlines only; never feeds simulation state
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 +
         static_cast<int64_t>(ts.tv_nsec) / 1000000;
}

void SleepMillis(int ms) {
  if (ms <= 0) return;
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  // d3t-lint: allow(entropy) connect-retry backoff is physical time by nature; never feeds simulation state
  nanosleep(&ts, nullptr);
}

Result<int> CreateLoopbackListener(uint16_t* port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return SocketErrorStatus("socket", errno, kInvalidPeerId);
  }
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(0);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    close(fd);
    return SocketErrorStatus("bind", err, kInvalidPeerId);
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const int err = errno;
    close(fd);
    return SocketErrorStatus("getsockname", err, kInvalidPeerId);
  }
  if (listen(fd, kListenBacklog) < 0) {
    const int err = errno;
    close(fd);
    return SocketErrorStatus("listen", err, kInvalidPeerId);
  }
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    close(fd);
    return nb;
  }
  if (port != nullptr) *port = ntohs(addr.sin_port);
  return fd;
}

SocketTransport::SocketTransport(size_t peer_count, PeerId self,
                                 SocketOptions options)
    : self_(self),
      options_(options),
      ring_bytes_(std::max(options.ring_bytes, wire::kMaxFrameSize)),
      out_(peer_count),
      in_(peer_count) {}

SocketTransport::~SocketTransport() {
  for (OutChannel& ch : out_) {
    if (ch.fd >= 0) close(ch.fd);
  }
  for (InChannel& ch : in_) {
    if (ch.fd >= 0) close(ch.fd);
  }
  for (PendingAccept& p : pending_) {
    if (p.fd >= 0) close(p.fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
}

Status SocketTransport::Listen() {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("already listening");
  }
  uint16_t port = 0;
  Result<int> fd = CreateLoopbackListener(&port);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  port_ = port;
  return Status::Ok();
}

Status SocketTransport::AdoptListener(int listen_fd, uint16_t listen_port) {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("already listening");
  }
  if (listen_fd < 0) {
    return Status::InvalidArgument("adopting an invalid listener fd");
  }
  listen_fd_ = listen_fd;
  port_ = listen_port;
  return Status::Ok();
}

Result<int> SocketTransport::Dial(PeerId peer, uint16_t peer_port) {
  int backoff = std::max(options_.backoff_initial_ms, 1);
  int last_err = ECONNREFUSED;
  const int attempts = std::max(options_.connect_attempts, 1);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      SleepMillis(backoff);
      backoff = std::min(backoff * 2, options_.backoff_max_ms);
    }
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return SocketErrorStatus("socket", errno, peer);
    }
    Status nb = SetNonBlocking(fd);
    if (!nb.ok()) {
      close(fd);
      return nb;
    }
    sockaddr_in addr = LoopbackAddr(peer_port);
    int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc < 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      rc = poll(&pfd, 1, kConnectAttemptTimeoutMs);
      if (rc <= 0) {
        last_err = (rc == 0) ? ETIMEDOUT : errno;
        close(fd);
        continue;
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0) {
        so_error = errno;
      }
      if (so_error != 0) {
        last_err = so_error;
        close(fd);
        continue;
      }
    } else if (rc < 0) {
      last_err = errno;
      close(fd);
      continue;
    }

    // Connected. Identify ourselves; 8 bytes into a fresh socket buffer
    // cannot stall for long, but handle partial writes anyway.
    SetNoDelay(fd);
    if (options_.sndbuf_bytes > 0) {
      (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                       sizeof(options_.sndbuf_bytes));
    }
    uint8_t preamble[kPreambleSize];
    EncodePreamble(self_, preamble);
    size_t sent = 0;
    bool failed = false;
    while (sent < kPreambleSize) {
      const ssize_t n = send(fd, preamble + sent, kPreambleSize - sent,
                             MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{fd, POLLOUT, 0};
        if (poll(&pfd, 1, kConnectAttemptTimeoutMs) > 0) continue;
        last_err = ETIMEDOUT;
        failed = true;
        break;
      }
      if (n < 0 && errno == EINTR) continue;
      last_err = errno;
      failed = true;
      break;
    }
    if (failed) {
      close(fd);
      continue;
    }
    return fd;
  }
  return SocketErrorStatus("connect failed", last_err, peer);
}

Status SocketTransport::ConnectPeer(PeerId peer, uint16_t peer_port) {
  if (peer >= out_.size()) {
    return Status::InvalidArgument("peer out of range");
  }
  if (peer == self_) {
    return Status::InvalidArgument("socket channel to self");
  }
  OutChannel& ch = out_[peer];
  if (ch.open()) {
    return Status::FailedPrecondition("channel already connected");
  }
  Result<int> fd = Dial(peer, peer_port);
  if (!fd.ok()) return fd.status();
  ch.fd = *fd;
  ch.tx = ByteRing(ring_bytes_);
  ch.error = Status::Ok();
  ch.port = peer_port;
  ch.reconnects_left = std::max(options_.reconnect_attempts, 0);
  return Status::Ok();
}

Status SocketTransport::CloseSend(PeerId peer) {
  if (peer >= out_.size()) {
    return Status::InvalidArgument("peer out of range");
  }
  OutChannel& ch = out_[peer];
  if (!ch.open()) {
    return ch.error.ok() ? Status::FailedPrecondition("channel not connected")
                         : ch.error;
  }
  // Drain what we buffered before the FIN; a bounded wait per round so a
  // dead peer cannot wedge shutdown.
  const int64_t deadline = MonotonicMillis() + kPreambleDeadlineMs;
  while (!ch.tx.empty()) {
    Status flushed = FlushOut(peer);
    if (!flushed.ok()) return flushed;
    if (ch.tx.empty()) break;
    if (MonotonicMillis() >= deadline) {
      return SocketErrorStatus("flush before close", ETIMEDOUT, peer);
    }
    pollfd pfd{ch.fd, POLLOUT, 0};
    (void)poll(&pfd, 1, 50);
  }
  shutdown(ch.fd, SHUT_WR);
  return Status::Ok();
}

void SocketTransport::StickChannelError(const Status& error) {
  if (channel_status_.ok() && !error.ok()) {
    channel_status_ = error;
  }
}

void SocketTransport::AcceptPending() {
  if (listen_fd_ >= 0) {
    for (;;) {
      const int fd = accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN, or a transient we retry next round
      SetNoDelay(fd);
      PendingAccept p;
      p.fd = fd;
      p.deadline_ms = MonotonicMillis() + kPreambleDeadlineMs;
      pending_.push_back(p);
    }
  }

  // Read preambles; register completed channels, drop strays.
  for (PendingAccept& p : pending_) {
    while (p.have < kPreambleSize) {
      const ssize_t n =
          recv(p.fd, p.preamble + p.have, kPreambleSize - p.have, 0);
      if (n > 0) {
        p.have += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or hard error before identifying — a stray; drop below.
      p.have = 0;
      close(p.fd);
      p.fd = -1;
      break;
    }
    if (p.fd >= 0 && p.have < kPreambleSize &&
        MonotonicMillis() >= p.deadline_ms) {
      close(p.fd);
      p.fd = -1;
    }
    if (p.fd < 0 || p.have < kPreambleSize) continue;

    uint32_t magic = 0;
    uint32_t peer = 0;
    std::memcpy(&magic, p.preamble, 4);
    std::memcpy(&peer, p.preamble + 4, 4);
    if (magic != kSocketPreambleMagic || peer >= in_.size() ||
        peer == self_) {
      // Mis-addressed connector: a decode failure at the channel level,
      // counted like any corrupt inbound bytes.
      ++totals_.decode_errors;
      close(p.fd);
      p.fd = -1;
      continue;
    }
    InChannel& ch = in_[peer];
    if (ch.open()) {
      if (options_.reconnect_attempts == 0) {
        // Duplicate connector while the original is healthy: counted
        // and dropped (PR 8 taxonomy).
        ++totals_.decode_errors;
        close(p.fd);
        p.fd = -1;
        continue;
      }
      // Reconnect regime: a second connector for a live channel means
      // the old socket is dying (peer crashed and was restarted before
      // we read its EOF). Park the replacement until FillIn notices.
      continue;
    }
    if (!ch.rx.empty()) {
      // The old socket closed with whole frames still queued in its rx
      // ring: park the reconnection (preamble already read) until Poll
      // drains them, so no received frame is thrown away. (Poll clears
      // a dead channel's torn tail bytes, so the ring does empty.)
      continue;
    }
    ch.fd = p.fd;
    ch.rx = ByteRing(ring_bytes_);
    ch.eof = false;
    ch.failed = false;
    p.fd = -1;  // ownership moved to the channel
  }
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [](const PendingAccept& p) {
                                  return p.fd < 0;
                                }),
                 pending_.end());
}

Status SocketTransport::FlushOut(PeerId to) {
  OutChannel& ch = out_[to];
  if (!ch.error.ok()) return ch.error;
  if (!ch.open()) return Status::Ok();
  while (!ch.tx.empty()) {
    const uint8_t* data = nullptr;
    const size_t n = ch.tx.ContiguousFront(&data);
    const ssize_t sent = send(ch.fd, data, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent > 0) {
      ch.tx.Consume(static_cast<size_t>(sent));
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (sent < 0 && errno == EINTR) continue;
    const int send_err = errno;
    close(ch.fd);
    ch.fd = -1;
    if (ch.reconnects_left > 0) {
      // Opt-in recovery (SocketOptions::reconnect_attempts): redial the
      // remembered port instead of going sticky. The bytes the kernel
      // already took are gone and the new stream may resume mid-frame —
      // the receiver resyncs past the torn bytes and the session layer
      // resubscribes for the lost content.
      Result<int> fd = Dial(to, ch.port);
      if (fd.ok()) {
        --ch.reconnects_left;
        ch.fd = *fd;
        ++totals_.reconnects;
        continue;
      }
      ch.error = fd.status();
    } else {
      ch.error = SocketErrorStatus("send failed", send_err, to);
    }
    StickChannelError(ch.error);
    return ch.error;
  }
  return Status::Ok();
}

void SocketTransport::FillIn(PeerId peer) {
  InChannel& ch = in_[peer];
  if (!ch.open() || ch.eof || ch.failed) return;
  for (;;) {
    uint8_t* space = nullptr;
    const size_t n = ch.rx.ContiguousBack(&space);
    if (n == 0) break;  // rx ring full — TCP flow control takes over
    const ssize_t got = recv(ch.fd, space, n, MSG_DONTWAIT);
    if (got > 0) {
      ch.rx.Grow(static_cast<size_t>(got));
      continue;
    }
    if (got == 0) {
      // Peer finished (FIN). Whether that is clean depends on the ring
      // holding a whole number of frames — Poll decides when it drains.
      ch.eof = true;
      close(ch.fd);
      ch.fd = -1;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    ch.failed = true;
    Status error = SocketErrorStatus("recv failed", errno, peer);
    close(ch.fd);
    ch.fd = -1;
    // Under the reconnect regime a reset inbound stream is expected —
    // the peer redials and AcceptPending adopts the replacement — so
    // the failure stays a per-channel event, not a sticky endpoint
    // error. Default (0) keeps PR 8's precise terminal taxonomy.
    if (options_.reconnect_attempts == 0) StickChannelError(error);
    break;
  }
}

// d3t-lint: hot
Status SocketTransport::Send(PeerId from, PeerId to,
                             const wire::Frame& frame) {
  size_t sent = 0;
  return SendBatch(from, to, &frame, 1, &sent);
}

// d3t-lint: hot
Status SocketTransport::SendBatch(PeerId from, PeerId to,
                                  const wire::Frame* frames, size_t count,
                                  size_t* sent) {
  *sent = 0;
  if (from != self_) {
    return Status::InvalidArgument(
        "socket transport sends only as its own peer id");
  }
  if (to >= out_.size()) {
    return Status::InvalidArgument("peer out of range");
  }
  OutChannel& ch = out_[to];
  if (!ch.error.ok()) return ch.error;
  if (!ch.open()) {
    return Status::FailedPrecondition("channel not connected");
  }
  uint8_t scratch[wire::kMaxFrameSize];
  for (; *sent < count; ++*sent) {
    const wire::Frame& frame = frames[*sent];
    const size_t encoded = wire::Encode(frame, scratch, sizeof(scratch));
    if (encoded == 0) {
      // Offer what this call admitted before refusing, as a Send loop
      // would have.
      Status flushed = FlushOut(to);
      if (!flushed.ok()) return flushed;
      return Status::InvalidArgument("unencodable frame");
    }
    if (ch.tx.free_space() < encoded) {
      // Ring full: push buffered bytes at the kernel once, then either
      // admit the frame or report a counted stall for the caller to
      // retry. Never grow, never block.
      Status flushed = FlushOut(to);
      if (!flushed.ok()) return flushed;
      if (ch.tx.free_space() < encoded) {
        ++totals_.backpressure_stalls;
        return Status::CapacityExhausted("socket tx ring full");
      }
    }
    (void)ch.tx.Append(scratch, encoded);
    ++totals_.frames_tx;
    totals_.bytes_tx += encoded;
    if (recorder_ != nullptr) {
      recorder_->Record(obs::TraceEventKind::kFrameTx, from,
                        static_cast<uint64_t>(frame.type), to);
    }
  }
  return FlushOut(to);
}

// d3t-lint: hot
bool SocketTransport::DeframeBuffered(PeerId peer, wire::Frame* out,
                                      PeerId* from) {
  InChannel& ch = in_[peer];
  for (;;) {
    size_t frame_size = 0;
    const FrameReassembler::Outcome outcome =
        FrameReassembler::Next(ch.rx, out, &frame_size);
    if (outcome == FrameReassembler::Outcome::kNeedMore) {
      if (ch.eof && !ch.failed && !ch.rx.empty()) {
        // FIN landed inside a frame: the sender died mid-write.
        ch.failed = true;
        ++totals_.decode_errors;
        if (options_.reconnect_attempts == 0) {
          StickChannelError(
              SocketErrorStatus("half-closed mid-frame", ECONNRESET, peer));
        }
      }
      if (options_.reconnect_attempts > 0 && ch.failed && !ch.open() &&
          !ch.rx.empty()) {
        // Torn tail of a dead socket: those bytes can never complete a
        // frame, and AcceptPending defers adopting the peer's redialed
        // replacement until the ring is empty — drop them.
        ch.rx.Consume(ch.rx.size());
      }
      return false;
    }
    if (outcome == FrameReassembler::Outcome::kResync) {
      ++totals_.decode_errors;
      if (recorder_ != nullptr) {
        recorder_->Record(obs::TraceEventKind::kDecodeError, self_);
      }
      continue;
    }
    ++totals_.frames_rx;
    totals_.bytes_rx += frame_size;
    if (recorder_ != nullptr) {
      recorder_->Record(obs::TraceEventKind::kFrameRx, self_,
                        static_cast<uint64_t>(out->type), peer);
    }
    if (from != nullptr) *from = peer;
    return true;
  }
}

// d3t-lint: hot
bool SocketTransport::Poll(PeerId self, wire::Frame* out, PeerId* from) {
  if (self != self_) return false;
  // Frames the rx rings already hold cost no syscall: serve those first.
  for (PeerId peer = 0; peer < in_.size(); ++peer) {
    if (DeframeBuffered(peer, out, from)) return true;
  }
  // Nothing whole is buffered: only now touch the kernel — adopt new
  // connections, refill every inbound ring, and scan again.
  AcceptPending();
  for (PeerId peer = 0; peer < in_.size(); ++peer) FillIn(peer);
  for (PeerId peer = 0; peer < in_.size(); ++peer) {
    if (DeframeBuffered(peer, out, from)) return true;
  }
  return false;
}

Status SocketTransport::Pump() {
  AcceptPending();
  for (PeerId peer = 0; peer < out_.size(); ++peer) {
    OutChannel& ch = out_[peer];
    if (ch.open() && !ch.tx.empty()) {
      (void)FlushOut(peer);  // failure is sticky; reported below
    }
  }
  for (PeerId peer = 0; peer < in_.size(); ++peer) {
    FillIn(peer);
  }
  return channel_status_;
}

Status SocketTransport::WaitIo(int timeout_ms) {
  const int64_t deadline = MonotonicMillis() + timeout_ms;
  for (;;) {
    pollfd fds[3 * 64];
    size_t n = 0;
    const size_t cap = sizeof(fds) / sizeof(fds[0]);
    if (listen_fd_ >= 0 && n < cap) {
      fds[n++] = pollfd{listen_fd_, POLLIN, 0};
    }
    for (const PendingAccept& p : pending_) {
      if (p.fd >= 0 && n < cap) fds[n++] = pollfd{p.fd, POLLIN, 0};
    }
    for (const InChannel& ch : in_) {
      if (ch.open() && !ch.eof && !ch.failed && ch.rx.free_space() > 0 &&
          n < cap) {
        fds[n++] = pollfd{ch.fd, POLLIN, 0};
      }
    }
    for (const OutChannel& ch : out_) {
      if (ch.open() && !ch.tx.empty() && n < cap) {
        fds[n++] = pollfd{ch.fd, POLLOUT, 0};
      }
    }
    const int64_t remaining = deadline - MonotonicMillis();
    if (remaining <= 0) {
      return Status::IoError("socket wait timed out");
    }
    if (n == 0) {
      // Nothing to wait on: no listener, no live channels. Sleeping the
      // timeout away would just hide a wiring bug.
      return Status::FailedPrecondition("no sockets to wait on");
    }
    const int rc = poll(fds, static_cast<nfds_t>(n),
                        static_cast<int>(std::min<int64_t>(remaining, 60000)));
    if (rc > 0) return Status::Ok();
    if (rc == 0) {
      return Status::IoError("socket wait timed out");
    }
    if (errno == EINTR) continue;
    return SocketErrorStatus("poll", errno, kInvalidPeerId);
  }
}

bool SocketTransport::drained() const {
  if (!pending_.empty()) return false;
  for (const InChannel& ch : in_) {
    if (ch.open()) return false;
  }
  return true;
}

size_t SocketTransport::pending_tx_bytes() const {
  size_t total = 0;
  for (const OutChannel& ch : out_) total += ch.tx.size();
  return total;
}

}  // namespace d3t::net
