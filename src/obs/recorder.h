#ifndef D3T_OBS_RECORDER_H_
#define D3T_OBS_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/time.h"

namespace d3t::obs {

/// What a flight-recorder event describes. The numeric values are part
/// of the trace-dump format (and of the kObsSnapshot wire packing), so
/// new kinds append — renumbering would silently retag archived traces.
enum class TraceEventKind : uint16_t {
  kNone = 0,
  kSourceTick = 1,     // actor=item, arg=value bits
  kDelivery = 2,       // actor=node, arg=item, arg2=value bits
  kJobProcessed = 3,   // actor=node, arg=item, arg2=value bits
  kScenarioOp = 4,     // actor=member, arg=op kind, arg2=item
  kRepair = 5,         // actor=member, arg=item
  kFrameTx = 6,        // actor=src peer, arg=frame type, arg2=dst peer
  kFrameRx = 7,        // actor=dst peer, arg=frame type, arg2=src peer
  kDecodeError = 8,    // actor=dst peer, code=status code
  kFaultInjected = 9,  // actor=peer, arg=fault kind
  kResubscribe = 10,   // actor=node, arg=expected seq, arg2=got seq
  kPullPoll = 11,      // actor=member, arg=item, code=phase
};

const char* TraceEventKindName(TraceEventKind kind);

/// One flight-recorder record. 32-byte POD stamped with *logical* sim
/// time — the recorder never consults a wall clock, so a trace is as
/// deterministic as the run that produced it.
// d3t-lint: pod-event
struct TraceEvent {
  sim::SimTime at_us;  // logical time of the recorded point
  uint16_t kind;       // TraceEventKind
  uint16_t code;       // kind-specific small field (status, phase)
  uint32_t actor;      // kind-specific: node / member / item / peer
  uint64_t arg;        // kind-specific payload word
  uint64_t arg2;       // kind-specific payload word
};
static_assert(sizeof(TraceEvent) == 32, "TraceEvent is pinned at 32 bytes");
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay a POD: it crosses the wire in "
              "kObsSnapshot chunks");

/// Fixed-capacity flight recorder: a preallocated ring of TraceEvents.
/// Recording is allocation-free and drop-oldest — a long run keeps the
/// most recent `capacity()` events, which is exactly the post-mortem
/// window a crash investigation wants.
///
/// Timestamp discipline: instrumented layers either stamp explicitly
/// via RecordAt(), or set_now() once per dispatched sim event and let
/// Record() reuse it. Both stamps are logical sim time; d3t-lint's
/// entropy ban keeps wall clocks out of every instrumented layer.
class Recorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit Recorder(size_t capacity = kDefaultCapacity);

  /// Sets the logical clock subsequent Record() calls stamp with.
  void set_now(sim::SimTime now) { now_ = now; }
  sim::SimTime now() const { return now_; }

  /// Records at the current logical clock.
  // d3t-lint: hot
  void Record(TraceEventKind kind, uint32_t actor, uint64_t arg = 0,
              uint64_t arg2 = 0, uint16_t code = 0) {
    RecordAt(now_, kind, actor, arg, arg2, code);
  }

  /// Records with an explicit logical timestamp.
  // d3t-lint: hot
  void RecordAt(sim::SimTime at, TraceEventKind kind, uint32_t actor,
                uint64_t arg = 0, uint64_t arg2 = 0, uint16_t code = 0) {
    TraceEvent& slot = ring_[head_];
    slot.at_us = at;
    slot.kind = static_cast<uint16_t>(kind);
    slot.code = code;
    slot.actor = actor;
    slot.arg = arg;
    slot.arg2 = arg2;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) ++size_;
    ++recorded_;
  }

  /// Events currently held (<= capacity).
  size_t size() const { return size_; }
  size_t capacity() const { return ring_.size(); }

  /// Total Record calls ever; `recorded() - size()` is the drop count.
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return recorded_ - size_; }

  /// The i-th oldest retained event (0 = oldest).
  const TraceEvent& at(size_t i) const {
    const size_t start = head_ >= size_ ? head_ - size_ : head_ + ring_.size() - size_;
    const size_t slot = start + i;
    return ring_[slot >= ring_.size() ? slot - ring_.size() : slot];
  }

  /// Drops every retained event and resets the counters (capacity and
  /// the logical clock are kept).
  void Clear();

 private:
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;       // next write slot
  size_t size_ = 0;       // retained events
  uint64_t recorded_ = 0;
  sim::SimTime now_ = 0;
};

}  // namespace d3t::obs

#endif  // D3T_OBS_RECORDER_H_
