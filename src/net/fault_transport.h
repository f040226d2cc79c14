#ifndef D3T_NET_FAULT_TRANSPORT_H_
#define D3T_NET_FAULT_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/transport.h"
#include "net/wire.h"

namespace d3t::net {

/// Scripted network chaos: a deterministic wrapper that executes an
/// immutable, time-sorted script of fault operations against the frames
/// crossing any inner Transport. Time is the wrapper's own send counter
/// (0-based index of Send calls), so a given (script, seed, workload)
/// triple replays the exact same faults on every run — no ambient
/// entropy, no wall clock. Recovery is the session layer's job
/// (serve::Node resubscribes, serve::FeedPublisher retransmits); the
/// wrapper only damages traffic and counts what it did.

/// What a FaultOp does to the frame whose send index triggers it.
enum class FaultKind : uint32_t {
  /// Swallow the frame; the peer never sees it.
  kDropFrame = 0,
  /// Deliver the frame twice (the second copy may itself be refused by
  /// backpressure; that refusal is a counted drop, not the sender's
  /// error).
  kDuplicateFrame = 1,
  /// Flip one bit of the encoded image before delivery. The wire
  /// checksum catches every single-bit flip, so the receiver counts a
  /// decode error and the frame is effectively dropped.
  kCorruptByte = 2,
  /// Hold the frame back and release it after `arg` further sends
  /// (reordering it past everything sent in between).
  kDelayFrame = 3,
  /// Sever the matching connection: the triggering frame and every
  /// delayed frame on the same path are lost, and one reconnect is
  /// counted (the session layer re-syncs via resubscribe).
  kResetConn = 4,
  /// Blackhole every frame to or from one peer for the next `arg`
  /// sends (arg 0 = forever — an unrecoverable fault).
  kWedgePeer = 5,
};

/// Human-readable kind name for diagnostics.
const char* FaultKindName(FaultKind kind);

/// Matches any sender/receiver in a FaultOp filter.
inline constexpr uint32_t kAnyPeer = UINT32_MAX;

/// One scripted fault. POD so scripts can be table-driven, serialized
/// or generated by property tests without ceremony.
// d3t-lint: pod-event
struct FaultOp {
  /// Send index (0-based count of Send calls on the wrapper) at which
  /// this op arms. The first send at or after `at_send` whose (from,
  /// to) matches the filter triggers it; ops trigger at most once.
  uint64_t at_send;
  /// FaultKind as a raw value (wire-style: range-checked at script
  /// construction).
  uint32_t kind;
  /// Sender filter (kAnyPeer = any).
  uint32_t from;
  /// Receiver filter (kAnyPeer = any).
  uint32_t to;
  /// Kind-specific argument: delay distance in sends (kDelayFrame),
  /// wedge window in sends (kWedgePeer; 0 = forever), byte offset to
  /// corrupt (kCorruptByte; kAnyArg = seeded choice). Unused otherwise.
  uint32_t arg;
};
static_assert(sizeof(FaultOp) == 24, "fault ops are 24-byte PODs");
static_assert(std::is_trivially_copyable_v<FaultOp>,
              "fault scripts are memcpy'd and table-driven");

/// kCorruptByte arg value requesting a seeded byte/bit choice.
inline constexpr uint32_t kAnyArg = UINT32_MAX;

/// An immutable, validated fault script: ops sorted by `at_send`, every
/// kind known. Create() is the only constructor that yields a usable
/// script, so a FaultInjectingTransport never sees malformed ops.
class FaultScript {
 public:
  /// Empty script (harmless wrapper).
  FaultScript() = default;

  /// Validates and freezes `ops`: non-decreasing at_send, known kinds.
  static Result<FaultScript> Create(std::vector<FaultOp> ops);

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  const FaultOp& op(size_t i) const { return ops_[i]; }
  const std::vector<FaultOp>& ops() const { return ops_; }

 private:
  explicit FaultScript(std::vector<FaultOp> ops) : ops_(std::move(ops)) {}
  std::vector<FaultOp> ops_;
};

/// Transport wrapper executing a FaultScript against the frames that
/// cross it. Sends route through the fault machinery; Poll delegates
/// untouched. At most one fault fires per Send (pending ops stay armed
/// for later sends), and delayed frames re-enter ahead of the frame
/// whose send released them, preserving a deterministic total order.
///
/// Metrics: metrics() returns the inner transport's counters plus the
/// wrapper's own (`faults_injected`, `frames_dropped`, `reconnects`,
/// and one decode error per corrupted frame) — so a chaos run's damage
/// is legible through the ordinary TransportMetrics surface.
class FaultInjectingTransport : public Transport {
 public:
  /// Wraps `inner` (not owned; must outlive the wrapper). `seed` feeds
  /// the SplitMix64 stream behind seeded corrupt-byte choices.
  FaultInjectingTransport(Transport& inner, FaultScript script,
                          uint64_t seed);

  size_t peer_count() const override { return inner_.peer_count(); }
  Status Send(PeerId from, PeerId to, const wire::Frame& frame) override;
  bool Poll(PeerId self, wire::Frame* out, PeerId* from) override;
  const TransportMetrics& metrics() const override;

  /// Frames currently held back by kDelayFrame ops.
  size_t delayed_frames() const { return delayed_.size(); }

  /// Records every executed fault op (kFaultInjected, arg = FaultKind)
  /// and forwards the recorder to the inner transport, so one attach
  /// covers both the damage and the surviving frames.
  void set_recorder(obs::Recorder* recorder) override {
    recorder_ = recorder;
    inner_.set_recorder(recorder);
  }

 private:
  struct Delayed {
    wire::Frame frame;
    PeerId from = kInvalidPeerId;
    PeerId to = kInvalidPeerId;
    /// Send index at or after which the frame is released.
    uint64_t release_at = 0;
  };

  bool Matches(const FaultOp& op, PeerId from, PeerId to) const;
  /// True when a send at index `at` on (from, to) falls in the active
  /// wedge window.
  bool Wedged(PeerId from, PeerId to, uint64_t at) const;
  void ReleaseDue();
  Status Forward(PeerId from, PeerId to, const wire::Frame& frame);
  void CountDrop();
  void DropDelayedMatching(const FaultOp& op);

  Transport& inner_;
  FaultScript script_;
  uint64_t rng_state_;
  /// Next un-executed script op (ops execute strictly in order).
  size_t next_op_ = 0;
  /// Send calls seen (the script's time axis).
  uint64_t sends_ = 0;
  /// Active wedge window: frames touching `wedge_peer_` are dropped
  /// while sends_ < wedge_until_.
  PeerId wedge_peer_ = kInvalidPeerId;
  uint64_t wedge_until_ = 0;
  std::vector<Delayed> delayed_;
  /// The wrapper's own damage counters, merged over the inner
  /// transport's counters on demand.
  TransportMetrics extra_totals_;
  mutable TransportMetrics merged_totals_;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace d3t::net

#endif  // D3T_NET_FAULT_TRANSPORT_H_
