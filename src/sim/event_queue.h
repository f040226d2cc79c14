#ifndef D3T_SIM_EVENT_QUEUE_H_
#define D3T_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <array>
#include <cassert>
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

/// A deterministic monotone radix queue of timed events, each held
/// inline (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990). Events run in
/// time order, ties in scheduling order. Every schedule is at or after
/// the base, the time of the last event run, so an event is filed by
/// its time relative to it: bucket i > 0 holds the times that first
/// differ from the base at bit i-1, and bucket 0 holds the events due
/// at the base, consumed FIFO. Equal times always share a bucket, and a
/// refill moves a bucket in order, so ties need no sequence number.
class EventQueue {
 public:
  /// Schedules `event` at absolute time `when`, which must be at least
  /// the time of the last event run (0 before the first).
  // d3t-lint: hot
  void Schedule(SimTime when, Event event) {
    assert(when >= base_);
    mask_ |= Push(Item{when, event}, base_);
  }

  bool empty() const { return mask_ == 0; }
  size_t size() const;

  /// Time of the earliest event; kSimTimeMax when empty. Never moves the
  /// base, so a later Schedule may still use any time from the last
  /// event run on.
  SimTime PeekTime() const {
    return mask_ == 0 ? kSimTimeMax : min_[__builtin_ctzll(mask_)];
  }

  /// Pops the earliest event, hands it to `handler` and returns its
  /// time, which becomes the base. Must not be called when empty. The
  /// handler may schedule further events.
  // d3t-lint: hot
  SimTime RunNext(EventHandler& handler) {
    assert(!empty());
    if ((mask_ & 1) == 0) Refill();
    std::vector<Item>& due = buckets_[0];
    // Copied out: the handler may schedule into bucket 0 and move it.
    const Item item = due[head_];
    if (++head_ == due.size()) {
      due.clear();
      head_ = 0;
      min_[0] = kSimTimeMax;
      mask_ &= ~uint64_t{1};
    }
    handler.HandleEvent(item.when, item.event);
    return item.when;
  }

 private:
  struct Item {
    SimTime when;
    Event event;
  };
  /// Times are non-negative, so a time differs from the base in at most
  /// bits 0..62.
  static constexpr size_t kBuckets = 64;

  /// Appends `item` to its bucket relative to `base` and returns that
  /// bucket's mask bit.
  uint64_t Push(const Item& item, SimTime base) {
    const uint64_t diff = static_cast<uint64_t>(item.when ^ base);
    const int bucket = diff == 0 ? 0 : 64 - __builtin_clzll(diff);
    buckets_[bucket].push_back(item);
    min_[bucket] = std::min(min_[bucket], item.when);
    return uint64_t{1} << bucket;
  }

  /// Makes the lowest non-empty bucket's minimum the base and files the
  /// bucket's events below it, in order. Bucket 0 must be empty.
  void Refill();

  std::array<std::vector<Item>, kBuckets> buckets_;
  /// min_[i] is bucket i's earliest time; kSimTimeMax when it is empty.
  std::array<SimTime, kBuckets> min_ = [] {
    std::array<SimTime, kBuckets> empty;
    empty.fill(kSimTimeMax);
    return empty;
  }();
  /// Bit i is set iff bucket i holds pending events.
  uint64_t mask_ = 0;
  /// buckets_[0][head_..] are pending.
  size_t head_ = 0;
  /// Time of the last event run; no pending time is before it.
  SimTime base_ = 0;
};

}  // namespace d3t::sim

#endif  // D3T_SIM_EVENT_QUEUE_H_
