#include <vector>

#include "gtest/gtest.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace d3t::sim {
namespace {

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Millis(12.5), 12500);
  EXPECT_EQ(Seconds(1.0), 1000000);
  EXPECT_DOUBLE_EQ(ToMillis(12500), 12.5);
  EXPECT_DOUBLE_EQ(ToSeconds(2500000), 2.5);
}

/// Records every event it receives, in dispatch order.
struct RecordingHandler final : EventHandler {
  struct Seen {
    SimTime t;
    Event event;
  };
  std::vector<Seen> seen;
  void HandleEvent(SimTime t, const Event& event) override {
    seen.push_back({t, event});
  }
  /// The `a` payload word of every event seen, in dispatch order.
  std::vector<uint32_t> Payloads() const {
    std::vector<uint32_t> out;
    for (const Seen& s : seen) out.push_back(s.event.a);
    return out;
  }
};

/// Handler that keeps re-scheduling itself on `sim` at `now() + step`
/// until it has run `limit` times.
struct ChainHandler final : EventHandler {
  ChainHandler(Simulator& simulator, SimTime step_size, int max_runs)
      : sim(simulator), step(step_size), limit(max_runs) {}
  void HandleEvent(SimTime t, const Event&) override {
    times.push_back(t);
    if (static_cast<int>(times.size()) < limit) {
      sim.ScheduleAt(sim.now() + step, Event::NodeProcess(0));
    }
  }
  Simulator& sim;
  SimTime step;
  int limit;
  std::vector<SimTime> times;
};

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.PeekTime(), kSimTimeMax);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  RecordingHandler handler;
  q.Schedule(30, Event::NodeProcess(3));
  q.Schedule(10, Event::NodeProcess(1));
  q.Schedule(20, Event::NodeProcess(2));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.PeekTime(), 10);
  while (!q.empty()) q.RunNext(handler);
  EXPECT_EQ(handler.Payloads(), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  RecordingHandler handler;
  for (uint32_t i = 0; i < 10; ++i) q.Schedule(5, Event::NodeProcess(i));
  while (!q.empty()) q.RunNext(handler);
  EXPECT_EQ(handler.Payloads(),
            (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueueTest, TypedEventsDispatchThroughHandler) {
  EventQueue q;
  RecordingHandler handler;
  q.Schedule(20, Event::Delivery(7, 42));
  q.Schedule(10, Event::SourceTick(3, 5));
  q.Schedule(30, Event::NodeProcess(9));
  q.Schedule(30, Event::PullPoll(1, 2));
  q.Schedule(30, Event::FinalizeHook());
  while (!q.empty()) {
    const SimTime t = q.RunNext(handler);
    EXPECT_EQ(t, handler.seen.back().t);
  }
  ASSERT_EQ(handler.seen.size(), 5u);
  EXPECT_EQ(handler.seen[0].t, 10);
  EXPECT_EQ(handler.seen[0].event.kind, EventKind::kSourceTick);
  EXPECT_EQ(handler.seen[0].event.a, 3u);
  EXPECT_EQ(handler.seen[0].event.b, 5u);
  EXPECT_EQ(handler.seen[1].event.kind, EventKind::kDelivery);
  EXPECT_EQ(handler.seen[1].event.a, 7u);
  EXPECT_EQ(handler.seen[1].event.b, 42u);
  EXPECT_EQ(handler.seen[2].event.kind, EventKind::kNodeProcess);
  EXPECT_EQ(handler.seen[2].event.a, 9u);
  EXPECT_EQ(handler.seen[3].event.kind, EventKind::kPullPoll);
  EXPECT_EQ(handler.seen[3].event.b, 2u);
  EXPECT_EQ(handler.seen[4].event.kind, EventKind::kFinalizeHook);
}

// HandleEvent, the queue's one callback, may schedule further events.
TEST(EventQueueTest, CallbackMaySchedule) {
  struct Rescheduler final : EventHandler {
    EventQueue* q = nullptr;
    int count = 0;
    void HandleEvent(SimTime t, const Event&) override {
      if (++count < 5) q->Schedule(t + 1, Event::NodeProcess(0));
    }
  } handler;
  EventQueue q;
  handler.q = &q;
  q.Schedule(0, Event::NodeProcess(0));
  while (!q.empty()) q.RunNext(handler);
  EXPECT_EQ(handler.count, 5);
}

TEST(SimulatorTest, NowAdvancesWithEvents) {
  Simulator sim;
  ChainHandler handler(sim, 0, 1);
  sim.set_handler(&handler);
  sim.ScheduleAt(100, Event::NodeProcess(0));
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 1u);
  EXPECT_EQ(handler.times, (std::vector<SimTime>{100}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, RunUntilHorizonLeavesLaterEvents) {
  Simulator sim;
  RecordingHandler handler;
  sim.set_handler(&handler);
  sim.ScheduleAt(10, Event::NodeProcess(1));
  sim.ScheduleAt(20, Event::NodeProcess(2));
  sim.ScheduleAt(30, Event::NodeProcess(3));
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(handler.Payloads(), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(sim.now(), 20);
  // The later event stayed pending and fires on the next run.
  EXPECT_EQ(sim.RunUntil(25), 0u);
  EXPECT_EQ(sim.now(), 25);
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 1u);
  EXPECT_EQ(handler.Payloads(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, ZeroDelaySelfChainTerminates) {
  Simulator sim;
  ChainHandler handler(sim, 0, 1000);
  sim.set_handler(&handler);
  sim.ScheduleAt(0, Event::NodeProcess(0));
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 1000u);
  EXPECT_EQ(handler.times.size(), 1000u);
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimulatorTest, DispatchesTypedEventsToRegisteredHandler) {
  Simulator sim;
  RecordingHandler handler;
  sim.set_handler(&handler);
  sim.ScheduleAt(100, Event::SourceTick(2, 4));
  sim.ScheduleAt(50, Event::Delivery(1, 3));
  sim.ScheduleAt(75, Event::Scenario(6, 1));
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 3u);
  ASSERT_EQ(handler.seen.size(), 3u);
  EXPECT_EQ(handler.seen[0].t, 50);
  EXPECT_EQ(handler.seen[0].event.kind, EventKind::kDelivery);
  EXPECT_EQ(handler.seen[1].t, 75);
  EXPECT_EQ(handler.seen[1].event.kind, EventKind::kScenario);
  EXPECT_EQ(handler.seen[1].event.a, 6u);
  EXPECT_EQ(handler.seen[1].event.b, 1u);
  EXPECT_EQ(handler.seen[2].t, 100);
  EXPECT_EQ(handler.seen[2].event.kind, EventKind::kSourceTick);
}

// An event already due at now() was scheduled before the clock reached
// now(), so it runs before every event scheduled at now().
TEST(SimulatorTest, HeapEventsDueNowRunBeforeLaneEvents) {
  struct Handler final : EventHandler {
    Simulator* sim = nullptr;
    std::vector<uint32_t> order;
    void HandleEvent(SimTime t, const Event& event) override {
      order.push_back(event.a);
      // The first event due at 10 adds a same-instant event (3) and a
      // later one (4).
      if (event.a == 1) {
        sim->ScheduleAt(t, Event::NodeProcess(3));
        sim->ScheduleAt(t + 1, Event::NodeProcess(4));
      }
    }
  } handler;
  Simulator sim;
  handler.sim = &sim;
  sim.set_handler(&handler);
  sim.ScheduleAt(10, Event::NodeProcess(1));
  sim.ScheduleAt(10, Event::NodeProcess(2));
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 4u);
  EXPECT_EQ(handler.order, (std::vector<uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 11);
}

// Same-instant events run FIFO, including those a same-instant handler
// schedules at now(): they run behind every event already due.
TEST(SimulatorTest, SameInstantEventsRunFifo) {
  struct Handler final : EventHandler {
    Simulator* sim = nullptr;
    std::vector<uint32_t> order;
    void HandleEvent(SimTime t, const Event& event) override {
      order.push_back(event.a);
      if (event.a < 3) sim->ScheduleAt(t, Event::NodeProcess(event.a + 10));
    }
  } handler;
  Simulator sim;
  handler.sim = &sim;
  sim.set_handler(&handler);
  for (uint32_t i = 0; i < 5; ++i) sim.ScheduleAt(0, Event::NodeProcess(i));
  EXPECT_EQ(sim.RunUntil(0), 8u);
  EXPECT_EQ(handler.order,
            (std::vector<uint32_t>{0, 1, 2, 3, 4, 10, 11, 12}));
  EXPECT_EQ(sim.now(), 0);
}

// An unbounded run ends once nothing is pending, also when the last
// events fire at kSimTimeMax itself, where the empty queue's PeekTime()
// equals the horizon.
TEST(SimulatorTest, RunToSimTimeMaxEndsWhenNothingIsPending) {
  struct Handler final : EventHandler {
    Simulator* sim = nullptr;
    std::vector<SimTime> times;
    void HandleEvent(SimTime t, const Event& event) override {
      times.push_back(t);
      if (event.a == 1) sim->ScheduleAt(t, Event::NodeProcess(2));
    }
  } handler;
  Simulator sim;
  handler.sim = &sim;
  sim.set_handler(&handler);
  sim.ScheduleAt(0, Event::NodeProcess(0));
  sim.ScheduleAt(5, Event::NodeProcess(0));
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 2u);
  EXPECT_EQ(sim.now(), 5);
  sim.ScheduleAt(kSimTimeMax, Event::NodeProcess(1));
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 2u);
  EXPECT_EQ(handler.times,
            (std::vector<SimTime>{0, 5, kSimTimeMax, kSimTimeMax}));
  EXPECT_EQ(sim.now(), kSimTimeMax);
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 0u);
}

// A horizon behind the clock runs nothing: same-instant events stay
// pending like later ones, and fire on the next run that reaches them.
TEST(SimulatorTest, HorizonBehindTheClockLeavesSameInstantEventsPending) {
  Simulator sim;
  RecordingHandler handler;
  sim.set_handler(&handler);
  sim.ScheduleAt(20, Event::NodeProcess(1));
  EXPECT_EQ(sim.RunUntil(20), 1u);
  sim.ScheduleAt(20, Event::NodeProcess(2));
  sim.ScheduleAt(30, Event::NodeProcess(3));
  EXPECT_EQ(sim.RunUntil(10), 0u);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(handler.Payloads(), (std::vector<uint32_t>{1}));
  EXPECT_EQ(sim.RunUntil(20), 1u);
  EXPECT_EQ(handler.Payloads(), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 1u);
  EXPECT_EQ(handler.Payloads(), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(SimulatorTest, ManyEventsStressOrder) {
  // Checks time order, that each event fires at its own scheduled time
  // (carried in its payload) and that now() tracks it.
  struct OrderChecker final : EventHandler {
    Simulator* sim = nullptr;
    SimTime last = -1;
    bool monotone = true;
    uint64_t fired = 0;
    void HandleEvent(SimTime t, const Event& event) override {
      if (t < last) monotone = false;
      last = t;
      EXPECT_EQ(t, static_cast<SimTime>(event.b));
      EXPECT_EQ(sim->now(), t);
      ++fired;
    }
  } handler;
  Simulator sim;
  handler.sim = &sim;
  sim.set_handler(&handler);
  for (uint32_t i = 0; i < 20000; ++i) {
    // Pseudo-random but deterministic times.
    const SimTime t = (static_cast<SimTime>(i) * 7919) % 10007;
    sim.ScheduleAt(t, Event::SourceTick(i, static_cast<uint64_t>(t)));
  }
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 20000u);
  EXPECT_TRUE(handler.monotone);
  EXPECT_EQ(handler.fired, 20000u);
}

}  // namespace
}  // namespace d3t::sim
