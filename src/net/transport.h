#ifndef D3T_NET_TRANSPORT_H_
#define D3T_NET_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "obs/recorder.h"
#include "obs/registry.h"

namespace d3t::net {

/// Peer address on a transport: dense indices [0, peer_count). Engine
/// wire mode maps them 1:1 onto OverlayIndex (also uint32_t, source =
/// 0); serving worlds add extra peers (e.g. the feed publisher) past
/// the overlay range.
using PeerId = uint32_t;
inline constexpr PeerId kInvalidPeerId = UINT32_MAX;

/// Transport counters. Backpressure and corruption are recorded here
/// instead of being turned into allocations or exceptions — the Mu2e
/// DMA idiom: a full ring is a counted stall the caller retries, not a
/// growing queue.
struct TransportMetrics {
  uint64_t frames_tx = 0;
  uint64_t frames_rx = 0;
  uint64_t bytes_tx = 0;
  uint64_t bytes_rx = 0;
  /// Sends refused because the destination ring was full.
  uint64_t backpressure_stalls = 0;
  /// Received bytes that failed wire::DecodeInto (or header resync steps).
  uint64_t decode_errors = 0;
  /// Scripted faults executed by a FaultInjectingTransport wrapper
  /// (0 on plain transports).
  uint64_t faults_injected = 0;
  /// Frames discarded before reaching the peer (injected drops, resets
  /// and wedge windows; 0 on plain transports).
  uint64_t frames_dropped = 0;
  /// Connections re-established after a reset (SocketTransport with
  /// reconnect_attempts > 0, or injected kResetConn faults).
  uint64_t reconnects = 0;
};

/// Boundary between the engines and the medium their frames cross.
/// All buffers are pre-registered at construction (fixed-size rings,
/// bounded per-peer queues); Send/Poll never allocate. A transport
/// keeps one set of counters, totals over all its peers.
///
/// Implementations are single-threaded by contract — one engine loop
/// owns a transport, the way it owns its EventQueue.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Number of addressable peers.
  virtual size_t peer_count() const = 0;

  /// Serializes `frame` toward `to`. CapacityExhausted when the
  /// destination's ring is full (a counted stall — drain and retry);
  /// InvalidArgument for out-of-range peers or unencodable frames.
  virtual Status Send(PeerId from, PeerId to, const wire::Frame& frame) = 0;

  /// Sends `frames[0, count)` toward `to` in order, as `count` Send
  /// calls would, stopping at the first frame Send would refuse.
  /// `*sent` receives how many frames were admitted — always the prefix
  /// before the refused one — and the result is that refusal's Status
  /// (Ok when all `count` went). A CapacityExhausted stall is counted
  /// once, for the refused frame; retrying from `frames + *sent`
  /// resumes with no gap and no duplicate. Metrics and recorder events
  /// equal those of the same Send calls. The default is exactly that
  /// Send loop; a transport may override it to pay its per-call costs
  /// (a kernel write, say) once per batch instead of once per frame.
  virtual Status SendBatch(PeerId from, PeerId to, const wire::Frame* frames,
                           size_t count, size_t* sent);

  /// Delivers the next frame addressed to `self`, FIFO per source.
  /// Returns false when nothing is pending. `from` (when non-null)
  /// receives the sender. Corrupt queued bytes are counted and
  /// skipped, never returned.
  virtual bool Poll(PeerId self, wire::Frame* out, PeerId* from) = 0;

  /// Counters across all peers.
  virtual const TransportMetrics& metrics() const = 0;

  /// Attaches a flight recorder: frame tx/rx and decode errors are
  /// recorded at the recorder's current *logical* clock (the driving
  /// engine owns set_now(); the transport never consults a wall clock).
  /// Null detaches.
  virtual void set_recorder(obs::Recorder* recorder) = 0;
};

/// Publishes a TransportMetrics struct into the registry as counters
/// named "<prefix>.frames_tx", "<prefix>.bytes_rx", ... — the one
/// metrics bridge every transport (and wrapper) shares, replacing the
/// hand-rolled per-field report paths. Cold: call once per run end.
void PublishTransportMetrics(obs::Registry& registry, const char* prefix,
                             const TransportMetrics& metrics);

/// Deterministic in-process bus: one fixed-capacity ring of encoded
/// frame slots per destination. Every frame genuinely round-trips the
/// wire format — Send encodes into the slot, Poll decodes out of it
/// straight into the caller's frame — so a simulator run routed through
/// this transport exercises the exact serialization a socket transport
/// would, with delivery order (FIFO per destination, across senders)
/// fully deterministic. A ring that Poll empties restarts at slot 0, so
/// a destination drained after every Send reuses one cache-resident
/// slot. This is the transport the byte-identity pin runs over.
class InProcTransport : public Transport {
 public:
  /// `per_peer_capacity` frames of ring per destination, pre-allocated
  /// here — the hot Send/Poll paths never touch the allocator.
  InProcTransport(size_t peer_count, size_t per_peer_capacity);

  size_t peer_count() const override { return rings_.size(); }
  Status Send(PeerId from, PeerId to, const wire::Frame& frame) override;
  bool Poll(PeerId self, wire::Frame* out, PeerId* from) override;
  const TransportMetrics& metrics() const override { return totals_; }
  void set_recorder(obs::Recorder* recorder) override {
    recorder_ = recorder;
  }

 private:
  struct Slot {
    PeerId from = kInvalidPeerId;
    uint32_t size = 0;
    uint8_t bytes[wire::kMaxFrameSize] = {};
  };
  struct Ring {
    size_t head = 0;
    size_t count = 0;
  };

  size_t capacity_;
  /// Slot storage, rings_[to] laid out contiguously: slot i of ring r
  /// lives at slots_[r * capacity_ + i].
  std::vector<Slot> slots_;
  std::vector<Ring> rings_;
  TransportMetrics totals_;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace d3t::net

#endif  // D3T_NET_TRANSPORT_H_
