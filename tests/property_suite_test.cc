// Cross-module randomized properties checked against independent
// reference implementations: the event queue, alone and under a
// simulator run in horizon slices, against std::map scheduling, the
// fidelity tracker against a brute-force replay and its raw-timeline
// binding against the change-only one,
// Trace::ValueAt against linear scan, and shortest-path delays against
// the triangle inequality.

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.h"
#include "core/fidelity.h"
#include "gtest/gtest.h"
#include "net/routing.h"
#include "net/topology_generator.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "trace/trace.h"

namespace d3t {
namespace {

// ---------------------------------------------------------------------------
// Event queue vs reference

/// Records the `b` payload word of every event it receives.
struct PayloadRecorder final : sim::EventHandler {
  std::vector<uint64_t> fired;
  void HandleEvent(sim::SimTime, const sim::Event& event) override {
    fired.push_back(event.b);
  }
};

/// (time, seq) -> payload, ordered exactly like the kernel promises.
using ReferenceOrder = std::map<std::pair<sim::SimTime, uint64_t>, uint64_t>;

/// Drives a Simulator against the reference: every event it fires must
/// be the reference's earliest, and each schedules up to three more
/// while the budget lasts, ~40% at now() and the rest later.
struct ReferenceCheckedHandler final : sim::EventHandler {
  ReferenceCheckedHandler(sim::Simulator& simulator, Rng& random)
      : sim(simulator), rng(random) {}

  void Schedule(sim::SimTime when) {
    if (budget == 0) return;
    --budget;
    const uint64_t payload = rng.Next();
    sim.ScheduleAt(when, sim::Event::SourceTick(0, payload));
    reference.emplace(std::make_pair(when, seq++), payload);
  }

  void HandleEvent(sim::SimTime t, const sim::Event& event) override {
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(t, reference.begin()->first.first);
    EXPECT_EQ(event.b, reference.begin()->second);
    reference.erase(reference.begin());
    ++fired;
    for (uint64_t k = rng.NextBounded(4); k > 0; --k) {
      Schedule(rng.NextBernoulli(0.4)
                   ? t
                   : t + 1 + static_cast<sim::SimTime>(rng.NextBounded(50)));
    }
  }

  sim::Simulator& sim;
  Rng& rng;
  ReferenceOrder reference;
  uint64_t seq = 0;
  uint64_t fired = 0;
  int budget = 3000;
};

TEST(PropertySuite, EventQueueMatchesReferenceOrdering) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    sim::EventQueue queue;
    PayloadRecorder handler;
    ReferenceOrder reference;
    uint64_t seq = 0;
    // The queue takes no time before the last event it ran; ~30% of
    // draws land within 4 us of it, so ties are common.
    sim::SimTime last_run = 0;

    for (int op = 0; op < 3000; ++op) {
      if (rng.NextDouble() < 0.55 || queue.empty()) {
        const sim::SimTime offset = static_cast<sim::SimTime>(
            rng.NextBernoulli(0.3) ? rng.NextBounded(4)
                                   : rng.NextBounded(100000));
        const sim::SimTime when = last_run + offset;
        const uint64_t payload = rng.Next();
        queue.Schedule(when, sim::Event::SourceTick(0, payload));
        reference.emplace(std::make_pair(when, seq++), payload);
      } else {
        const uint64_t expected = reference.begin()->second;
        reference.erase(reference.begin());
        last_run = queue.RunNext(handler);
        ASSERT_FALSE(handler.fired.empty());
        EXPECT_EQ(handler.fired.back(), expected) << "seed " << seed;
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
    while (!reference.empty()) {
      const uint64_t expected = reference.begin()->second;
      reference.erase(reference.begin());
      queue.RunNext(handler);
      EXPECT_EQ(handler.fired.back(), expected);
    }
    EXPECT_TRUE(queue.empty());
  }
  // The same order through a Simulator, run in random slices. Between
  // slices, events are also scheduled from outside at now() and later,
  // and a horizon behind the clock must run nothing.
  for (uint64_t seed : {15u, 16u, 17u, 18u}) {
    Rng rng(seed);
    sim::Simulator sim;
    ReferenceCheckedHandler handler(sim, rng);
    sim.set_handler(&handler);
    for (int i = 0; i < 20; ++i) {
      handler.Schedule(static_cast<sim::SimTime>(rng.NextBounded(30)));
    }
    for (sim::SimTime horizon = 0; !handler.reference.empty();
         horizon += 1 + static_cast<sim::SimTime>(rng.NextBounded(200))) {
      sim.RunUntil(horizon);
      ASSERT_EQ(sim.now(), horizon) << "seed " << seed;
      ASSERT_TRUE(handler.reference.empty() ||
                  handler.reference.begin()->first.first > horizon)
          << "seed " << seed;
      handler.Schedule(sim.now());
      handler.Schedule(sim.now() + 1);
      EXPECT_EQ(sim.RunUntil(horizon - 1), 0u) << "seed " << seed;
    }
    EXPECT_EQ(handler.fired, handler.seq) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Fidelity tracker vs brute-force replay

TEST(PropertySuite, FidelityTrackerMatchesBruteForceReplay) {
  // The tracker sees the source process only through its bound raw
  // timeline — value-repeating polls included — caught up on repository
  // updates and at Finalize. The reference replays both processes event
  // by event, a source tick applying before a repository update at the
  // same instant.
  for (uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    Rng rng(seed);
    const core::Coherency c = rng.NextDoubleInRange(0.05, 0.5);
    const double initial = 10.0;

    std::vector<trace::Tick> ticks = {{0, initial}};
    sim::SimTime t = 0;
    for (int i = 0; i < 300; ++i) {
      t += 1 + static_cast<sim::SimTime>(rng.NextBounded(40));
      // Mix genuine changes with value-repeating polls.
      const double value = rng.NextBernoulli(0.3)
                               ? ticks.back().value
                               : initial + rng.NextDoubleInRange(-1.0, 1.0);
      ticks.push_back({t, value});
    }

    std::vector<trace::Tick> repo_events;
    sim::SimTime rt = 0;
    for (int i = 0; i < 40; ++i) {
      rt += 1 + static_cast<sim::SimTime>(rng.NextBounded(100));
      if (rng.NextBernoulli(0.3)) {
        // Land exactly on the next source tick.
        auto next = std::lower_bound(
            ticks.begin(), ticks.end(), rt,
            [](const trace::Tick& tick, sim::SimTime at) {
              return tick.time < at;
            });
        if (next != ticks.end()) rt = next->time;
      }
      repo_events.push_back({rt, initial + rng.NextDoubleInRange(-1.0, 1.0)});
    }
    // Source ticks past the last repository update: Finalize integrates
    // that tail on its own.
    ASSERT_GT(ticks.back().time, repo_events.back().time) << "seed " << seed;
    const sim::SimTime end = ticks.back().time + 10;

    core::FidelityTracker tracker(c, &ticks);
    for (const trace::Tick& event : repo_events) {
      tracker.OnRepositoryValue(event.time, event.value);
    }
    tracker.Finalize(end);

    // Brute force: piecewise-constant replay between event times.
    double source = initial, repo = initial;
    sim::SimTime out_of_sync = 0;
    sim::SimTime prev = 0;
    auto advance = [&](sim::SimTime at) {
      if (std::abs(source - repo) > c + 1e-6) out_of_sync += at - prev;
      prev = at;
    };
    size_t cursor = 1;
    auto replay_source_until = [&](sim::SimTime limit) {
      for (; cursor < ticks.size() && ticks[cursor].time <= limit; ++cursor) {
        advance(ticks[cursor].time);
        source = ticks[cursor].value;
      }
    };
    for (const trace::Tick& event : repo_events) {
      replay_source_until(event.time);
      advance(event.time);
      repo = event.value;
    }
    replay_source_until(end);
    advance(end);

    EXPECT_EQ(tracker.out_of_sync_time(), out_of_sync) << "seed " << seed;
    EXPECT_EQ(tracker.LossPercent(),
              100.0 * static_cast<double>(out_of_sync) /
                  static_cast<double>(end))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Raw-timeline tracker vs change-only (eager) timeline

TEST(PropertySuite, LazyTrackerMatchesEagerTracker) {
  // The two bindings must agree bit-for-bit: one tracker walks the raw
  // timeline, value-repeating polls included; the other walks the
  // BuildChangeTimelines compaction, which holds exactly the genuine
  // source updates an eager push feed would deliver.
  for (uint64_t seed : {61u, 62u, 63u, 64u, 65u}) {
    Rng rng(seed);
    const core::Coherency c = rng.NextDoubleInRange(0.05, 0.5);
    const double initial = 10.0;

    std::vector<trace::Tick> ticks = {{0, initial}};
    sim::SimTime t = 0;
    for (int i = 0; i < 300; ++i) {
      t += 1 + static_cast<sim::SimTime>(rng.NextBounded(40));
      const double value = rng.NextBernoulli(0.3)
                               ? ticks.back().value
                               : initial + rng.NextDoubleInRange(-1.0, 1.0);
      ticks.push_back({t, value});
    }
    const std::vector<trace::Trace> traces = {trace::Trace("raw", ticks)};
    const core::ChangeTimelines changes = core::BuildChangeTimelines(traces);
    ASSERT_EQ(changes.size(), 1u);
    ASSERT_LT(changes[0].size(), ticks.size()) << "seed " << seed;

    std::vector<trace::Tick> repo_events;
    sim::SimTime rt = 0;
    for (int i = 0; i < 60; ++i) {
      rt += 1 + static_cast<sim::SimTime>(rng.NextBounded(200));
      repo_events.push_back({rt, initial + rng.NextDoubleInRange(-1.0, 1.0)});
    }
    const sim::SimTime end = std::max(t, rt) + 10;

    core::FidelityTracker lazy(c, &traces[0].ticks());
    core::FidelityTracker eager(c, &changes[0]);
    for (const trace::Tick& event : repo_events) {
      lazy.OnRepositoryValue(event.time, event.value);
      eager.OnRepositoryValue(event.time, event.value);
    }
    lazy.Finalize(end);
    eager.Finalize(end);

    EXPECT_EQ(lazy.out_of_sync_time(), eager.out_of_sync_time())
        << "seed " << seed;
    EXPECT_EQ(lazy.LossPercent(), eager.LossPercent()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Trace::ValueAt vs linear reference

TEST(PropertySuite, ValueAtMatchesLinearScan) {
  Rng rng(31);
  trace::SyntheticTraceOptions options;
  options.tick_count = 500;
  Result<trace::Trace> trace = trace::GenerateSyntheticTrace(options, rng);
  ASSERT_TRUE(trace.ok());
  const auto& ticks = trace->ticks();
  auto reference = [&](sim::SimTime t) {
    double v = ticks.front().value;
    for (const trace::Tick& tick : ticks) {
      if (tick.time > t) break;
      v = tick.value;
    }
    return v;
  };
  for (int i = 0; i < 2000; ++i) {
    const sim::SimTime t = static_cast<sim::SimTime>(
        rng.NextBounded(static_cast<uint64_t>(ticks.back().time) + 1000));
    EXPECT_DOUBLE_EQ(trace->ValueAt(t), reference(t)) << "t=" << t;
  }
  // Exact tick boundaries.
  for (size_t k = 0; k < ticks.size(); k += 37) {
    EXPECT_DOUBLE_EQ(trace->ValueAt(ticks[k].time), ticks[k].value);
    EXPECT_DOUBLE_EQ(trace->ValueAt(ticks[k].time - 1), reference(ticks[k].time - 1));
  }
}

// ---------------------------------------------------------------------------
// Shortest paths satisfy the triangle inequality & identity axioms

TEST(PropertySuite, ShortestPathDelaysAreAMetric) {
  Rng rng(41);
  net::TopologyGeneratorOptions options;
  options.router_count = 60;
  options.repository_count = 12;
  Result<net::Topology> topo = net::GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  Result<net::RoutingTables> routing =
      net::RoutingTables::FloydWarshall(*topo);
  ASSERT_TRUE(routing.ok());
  const size_t n = topo->node_count();
  for (int trial = 0; trial < 4000; ++trial) {
    const net::NodeId a = static_cast<net::NodeId>(rng.NextBounded(n));
    const net::NodeId b = static_cast<net::NodeId>(rng.NextBounded(n));
    const net::NodeId k = static_cast<net::NodeId>(rng.NextBounded(n));
    EXPECT_LE(routing->Delay(a, b),
              routing->Delay(a, k) + routing->Delay(k, b));
    EXPECT_EQ(routing->Delay(a, a), 0);
    EXPECT_GE(routing->Delay(a, b), 0);
  }
}

// ---------------------------------------------------------------------------
// Pareto tail: the generated link-delay family really is heavy-tailed

TEST(PropertySuite, ParetoTailHeavierThanExponential) {
  Rng rng(51);
  const double mean = 15.0, minimum = 2.0;
  size_t pareto_extreme = 0, expo_extreme = 0;
  const double threshold = 10.0 * mean;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextParetoWithMean(minimum, mean) > threshold) ++pareto_extreme;
    if (rng.NextExponential(mean) > threshold) ++expo_extreme;
  }
  // Exponential beyond 10 means: e^-10 ~ 4.5e-5 of samples (~9 of 200k).
  // The Pareto with alpha ~1.15 lands two orders of magnitude higher.
  EXPECT_GT(pareto_extreme, expo_extreme * 10);
}

}  // namespace
}  // namespace d3t
