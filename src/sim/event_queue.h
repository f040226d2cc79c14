#ifndef D3T_SIM_EVENT_QUEUE_H_
#define D3T_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/time.h"

namespace d3t::sim {

/// Discriminator of the typed POD event variant. Every event of a run —
/// source ticks, message deliveries, node processing, pull polls,
/// scenario ops — is one of these 16-byte PODs, decoded by the driver
/// that scheduled it.
enum class EventKind : uint32_t {
  /// One source trace tick: `a` = item, `b` = tick index.
  kSourceTick,
  /// A batched message delivery: `a` = destination overlay node, `b` =
  /// the scheduler's batch-pool slot holding the span of pooled jobs.
  kDelivery,
  /// A node dequeues and processes its next queued job: `a` = node.
  kNodeProcess,
  /// One phase of a pull-engine poll round trip: `a` = poll-state
  /// index, `b` = phase (request arrival / serviced / response).
  kPullPoll,
  /// End-of-run hook (e.g. lazy fidelity finalization at the horizon).
  kFinalizeHook,
  /// One scripted world-mutation op of the run's Scenario (repository
  /// failure/recovery, coherency renegotiation): `a` = index into the
  /// per-run scenario op table, `b` = phase (0 applies the op; 1 is the
  /// deferred orphan repair a failure schedules after its
  /// silence-detection window). Carrying an index keeps the event a
  /// POD — the op payload lives in the immutable Scenario.
  kScenario,
};

/// A 16-byte POD event: a kind tag plus two untyped payload words whose
/// meaning is fixed by the kind (see EventKind). Handlers decode with
/// the named accessors of the scheduling layer; the queue never looks
/// inside the payload.
// d3t-lint: pod-event
struct Event {
  EventKind kind = EventKind::kSourceTick;
  uint32_t a = 0;
  uint64_t b = 0;

  static Event SourceTick(uint32_t item, uint64_t tick_index) {
    return Event{EventKind::kSourceTick, item, tick_index};
  }
  static Event Delivery(uint32_t node, uint64_t batch_slot) {
    return Event{EventKind::kDelivery, node, batch_slot};
  }
  static Event NodeProcess(uint32_t node) {
    return Event{EventKind::kNodeProcess, node, 0};
  }
  static Event PullPoll(uint32_t state_index, uint64_t phase) {
    return Event{EventKind::kPullPoll, state_index, phase};
  }
  static Event FinalizeHook() {
    return Event{EventKind::kFinalizeHook, 0, 0};
  }
  static Event Scenario(uint32_t op_index, uint64_t phase = 0) {
    return Event{EventKind::kScenario, op_index, phase};
  }
};
static_assert(sizeof(Event) == 16, "hot-path events must stay 16 bytes");
static_assert(std::is_trivially_copyable_v<Event>,
              "hot-path events must be PODs");

/// Receiver of typed events. The engine (or any other driver) implements
/// this once and decodes the POD payload per kind.
class EventHandler {
 public:
  virtual void HandleEvent(SimTime t, const Event& event) = 0;

 protected:
  ~EventHandler() = default;
};

/// A deterministic min-heap of timed events, each held inline. Ties in
/// firing time are broken by insertion sequence, so runs are
/// reproducible regardless of heap internals. The heap is 4-ary: a
/// node's children sit side by side (four 32-byte items), so a pop
/// descends half the levels of a binary heap, and both sifts move a
/// hole rather than swapping items.
class EventQueue {
 public:
  /// Schedules `event` at absolute time `when` (must be >= 0).
  void Schedule(SimTime when, Event event);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Time of the earliest event; kSimTimeMax when empty.
  SimTime PeekTime() const {
    return heap_.empty() ? kSimTimeMax : heap_.front().when;
  }

  /// Pops the earliest event, hands it to `handler` and returns its
  /// time. Must not be called when empty. The handler may schedule
  /// further events.
  SimTime RunNext(EventHandler& handler);

 private:
  struct Item {
    SimTime when;
    uint64_t seq;
    Event event;
    /// (when, seq) order. Sequence numbers are unique, so it is total.
    bool Before(const Item& other) const {
      return when < other.when || (when == other.when && seq < other.seq);
    }
  };
  static constexpr size_t kArity = 4;

  std::vector<Item> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace d3t::sim

#endif  // D3T_SIM_EVENT_QUEUE_H_
