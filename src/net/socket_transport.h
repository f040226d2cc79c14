#ifndef D3T_NET_SOCKET_TRANSPORT_H_
#define D3T_NET_SOCKET_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/frame_reassembler.h"
#include "net/transport.h"

namespace d3t::net {

/// Monotonic wall-clock milliseconds. Confined here deliberately: the
/// socket layer is the ONE place in src/ that may read a clock —
/// connect backoff, I/O deadlines and child-reaping timeouts are
/// physical-time concerns that never feed simulation-visible state.
/// Everything else (serve::Cluster included) routes its deadlines
/// through these helpers so the entropy lint keeps real time fenced
/// into this file.
int64_t MonotonicMillis();

/// Sleeps the calling thread for `ms` milliseconds (connect backoff).
void SleepMillis(int ms);

/// Creates a nonblocking listening TCP socket bound to 127.0.0.1 on an
/// ephemeral port and returns its fd; `*port` receives the bound port.
/// The cluster runner calls this for every child BEFORE forking, so a
/// child inherits its own listener (no port handshake, no bind race)
/// and every process knows the full port table as plain data.
Result<int> CreateLoopbackListener(uint16_t* port);

/// First bytes a connector writes on every directed channel: this magic
/// followed by its own PeerId (both little-endian uint32). Exposed so
/// adversarial tests can speak the preamble against a raw socket.
inline constexpr uint32_t kSocketPreambleMagic = 0xD37AC0DEu;

/// Timing knobs of the connect/accept state machine. Defaults suit
/// loopback: connects to a pre-created listener land in the backlog
/// immediately; the bounded retry+backoff only spins when a peer's
/// listener genuinely is not there (refused) or transiently out of
/// backlog.
struct SocketOptions {
  /// Userspace bytes of tx ring per outbound channel and rx ring per
  /// inbound channel (clamped to at least one max-size frame).
  size_t ring_bytes = 1 << 16;
  /// Connect attempts before giving up with the underlying error.
  int connect_attempts = 50;
  /// Backoff before the first retry; doubles per attempt up to the cap.
  int backoff_initial_ms = 2;
  int backoff_max_ms = 100;
  /// When > 0, sets SO_SNDBUF on outbound sockets (the kernel clamps to
  /// its floor). Backpressure tests use the floor so a non-draining
  /// peer fills the pipe in kilobytes, not megabytes; 0 keeps the OS
  /// default.
  int sndbuf_bytes = 0;
  /// Outbound-channel reconnects after a mid-stream failure (reset /
  /// broken pipe): 0 (the default) keeps failures sticky and terminal —
  /// the PR 8 behavior every error-taxonomy pin relies on; > 0 lets a
  /// Send that hits a dead socket redial the remembered port with the
  /// same retry+backoff as ConnectPeer, up to this many times per
  /// channel. Bytes in flight on the dead socket are lost and the new
  /// stream may start mid-frame (the receiver resyncs); recovering the
  /// CONTENT is the session layer's job (resubscribe).
  int reconnect_attempts = 0;
};

/// Loopback-TCP implementation of the Transport boundary: one process's
/// endpoint in a multi-process cluster. Nothing above the interface
/// changes — fixed-size byte rings buffer a real socket (tx: bytes the
/// kernel would not take yet; rx: bytes received but not yet deframed),
/// backpressure is still a counted CapacityExhausted stall when a tx
/// ring fills, and deframing is FrameReassembler — header-driven
/// boundaries, byte-wise resync.
///
/// Topology: directed channels. For a channel A -> B, A calls
/// ConnectPeer(B) against B's listener and opens with an 8-byte
/// preamble identifying A; B's Poll accepts the connection, reads the
/// preamble and registers the inbound channel. Send requires `from` ==
/// the endpoint's own id (a socket transport is one process's view of
/// the cluster, unlike InProcTransport, which carries all peers).
///
/// Error taxonomy (all IoError, distinguished by message): "connection
/// refused" after the retry budget, "connection reset by peer" /
/// "broken pipe" when a peer dies mid-stream, "timed out" from
/// WaitIo's deadline, "half-closed mid-frame" when a peer's FIN lands
/// inside an unfinished frame. Channel failures are sticky: the first
/// error is returned by every later Send to (and recorded against) that
/// peer, and channel_status() surfaces the first failure on any
/// channel. Send/Poll stay allocation-free: rings are sized at
/// registration, scratch lives on the stack.
///
/// Single-threaded by contract, like every Transport.
class SocketTransport final : public Transport {
 public:
  SocketTransport(size_t peer_count, PeerId self, SocketOptions options = {});
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// This endpoint's peer id.
  PeerId self() const { return self_; }

  /// Binds a fresh loopback listener (ephemeral port). Alternative to
  /// AdoptListener; FailedPrecondition if already listening.
  Status Listen();

  /// Adopts an fd from CreateLoopbackListener (the fork-inheritance
  /// path). Takes ownership; FailedPrecondition if already listening.
  Status AdoptListener(int listen_fd, uint16_t listen_port);

  /// Bound port; 0 before Listen/AdoptListener.
  uint16_t port() const { return port_; }

  /// Opens the directed channel self -> peer against `peer_port`:
  /// nonblocking connect with bounded retry+backoff (refused or
  /// transiently unreachable listeners are retried; the budget turns a
  /// dead peer into a precise IoError), then the identifying preamble.
  Status ConnectPeer(PeerId peer, uint16_t peer_port);

  /// Half-closes the outbound channel to `peer` after flushing what the
  /// kernel will take: the peer's reader sees EOF once the bytes drain.
  Status CloseSend(PeerId peer);

  /// Drives the endpoint without consuming a frame: accepts pending
  /// connections, flushes tx rings, fills rx rings. Returns the first
  /// sticky channel error (a caller pumping a one-way feed would
  /// otherwise never learn its peer died).
  Status Pump();

  /// Blocks (poll(2)) until some socket is ready — readable data or
  /// writable room for a nonempty tx ring — or `timeout_ms` elapses,
  /// which is IoError "timed out". Callers loop WaitIo/Pump/Poll
  /// instead of spinning.
  Status WaitIo(int timeout_ms);

  /// First sticky failure on any channel (Ok while all channels are
  /// healthy). EOF from a peer that finished cleanly is not a failure.
  const Status& channel_status() const { return channel_status_; }

  /// Bytes buffered in tx rings, not yet accepted by the kernel. Zero
  /// means every sent frame has left the process.
  size_t pending_tx_bytes() const;

  /// True when nothing more can arrive without a NEW connection: no
  /// accepted-but-unidentified connection is pending a preamble and
  /// every inbound channel's socket has closed (EOF, failure, or never
  /// connected). Meaningful after the acceptor has run — any Pump, or a
  /// Poll that returned false; a collector uses it to distinguish
  /// "peers all finished" from "quiet right now".
  bool drained() const;

  // Transport interface.
  size_t peer_count() const override { return out_.size(); }

  /// A batch of one through SendBatch's admit path: a frame Send
  /// accepts has been offered to the kernel by the time it returns.
  Status Send(PeerId from, PeerId to, const wire::Frame& frame) override;

  /// Encodes and appends frames to the tx ring, offering the ring to
  /// the kernel only when it cannot take the next frame and once before
  /// returning — a send(2) per ring's worth of frames instead of one
  /// per frame. Everything admitted (`*sent` frames) has been offered to
  /// the kernel when it returns, exactly as after `*sent` Send calls. A
  /// full ring the kernel will not drain stops the batch with one
  /// counted CapacityExhausted stall, for the frame that did not fit. A
  /// channel failure surfaces as its sticky IoError; the frames already
  /// admitted stay counted.
  Status SendBatch(PeerId from, PeerId to, const wire::Frame* frames,
                   size_t count, size_t* sent) override;

  /// Serves whole frames already buffered in the rx rings first, in
  /// ascending peer order and without a syscall. Only when no ring
  /// yields a whole frame does it accept pending connections, refill
  /// every inbound ring from its socket (each recv takes as much as the
  /// ring has room for) and scan again; false means that refill found
  /// nothing whole either. Per peer, frames arrive in send order. How
  /// frames of different peers interleave depends on when their TCP
  /// segments landed, as it always has, so no caller may rely on it. A
  /// peer that connects while frames are buffered is registered by the
  /// first Poll that finds none left — which every caller reaches,
  /// since callers poll until false.
  bool Poll(PeerId self, wire::Frame* out, PeerId* from) override;
  const TransportMetrics& metrics() const override { return totals_; }
  void set_recorder(obs::Recorder* recorder) override {
    recorder_ = recorder;
  }

 private:
  struct OutChannel {
    int fd = -1;
    ByteRing tx;
    Status error;  // sticky; Ok while healthy
    /// Port the channel dialed, remembered for reconnects.
    uint16_t port = 0;
    /// Remaining reconnect budget (SocketOptions::reconnect_attempts).
    int reconnects_left = 0;
    bool open() const { return fd >= 0; }
  };
  struct InChannel {
    int fd = -1;
    ByteRing rx;
    bool eof = false;
    bool failed = false;  // half-closed mid-frame or reset; drained once
    bool open() const { return fd >= 0; }
  };
  /// An accepted connection whose identifying preamble has not fully
  /// arrived yet (a connector may be preempted mid-write).
  struct PendingAccept {
    int fd = -1;
    uint8_t preamble[8] = {};
    size_t have = 0;
    int64_t deadline_ms = 0;
  };

  void AcceptPending();
  /// Dials `peer_port`, writes the identifying preamble, and returns the
  /// connected nonblocking fd — the bounded retry+backoff loop shared by
  /// ConnectPeer and FlushOut's reconnect path.
  Result<int> Dial(PeerId peer, uint16_t peer_port);
  Status FlushOut(PeerId to);
  void FillIn(PeerId peer);
  /// Deframes the next whole frame in `peer`'s rx ring — no syscall —
  /// counting resync steps, and turns a dead socket's unfinished tail
  /// into the half-closed-mid-frame error (or drops it under the
  /// reconnect regime). False when the ring holds no whole frame.
  bool DeframeBuffered(PeerId peer, wire::Frame* out, PeerId* from);
  void StickChannelError(const Status& error);

  PeerId self_;
  SocketOptions options_;
  size_t ring_bytes_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<OutChannel> out_;   // indexed by destination peer
  std::vector<InChannel> in_;     // indexed by source peer
  std::vector<PendingAccept> pending_;
  Status channel_status_;
  TransportMetrics totals_;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace d3t::net

#endif  // D3T_NET_SOCKET_TRANSPORT_H_
