#include "core/engine.h"

#include <memory>

#include "core/lela.h"
#include "gtest/gtest.h"
#include "net/transport.h"
#include "net/wire.h"
#include "trace/synthetic.h"

namespace d3t::core {
namespace {

/// Builds a trace with ticks one second apart from a value list.
trace::Trace SecondsTrace(std::vector<double> values) {
  std::vector<trace::Tick> ticks;
  for (size_t i = 0; i < values.size(); ++i) {
    ticks.push_back({sim::Seconds(static_cast<double>(i)), values[i]});
  }
  return trace::Trace("T", std::move(ticks));
}

/// Random overlay + random traces used by the zero-delay property tests.
struct Scenario {
  Overlay overlay{1, 0};
  std::vector<trace::Trace> traces;
  net::OverlayDelayModel delays = net::OverlayDelayModel::Uniform(1, 0);
};

Scenario BuildRandomScenario(uint64_t seed, size_t repos, size_t items,
                             size_t degree, sim::SimTime delay) {
  Scenario s;
  Rng rng(seed);
  InterestOptions workload;
  workload.repository_count = repos;
  workload.item_count = items;
  auto interests = GenerateInterests(workload, rng);
  s.delays = net::OverlayDelayModel::Uniform(repos + 1, delay);
  LelaOptions options;
  options.coop_degree = degree;
  Result<LelaResult> built =
      BuildOverlay(s.delays, interests, items, options, rng);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  s.overlay = std::move(built->overlay);
  for (size_t i = 0; i < items; ++i) {
    trace::SyntheticTraceOptions trace_options;
    trace_options.name = "X" + std::to_string(i);
    trace_options.tick_count = 400;
    trace_options.min_price = 20.0;
    trace_options.max_price = 21.0;
    Result<trace::Trace> trace =
        trace::GenerateSyntheticTrace(trace_options, rng);
    EXPECT_TRUE(trace.ok());
    s.traces.push_back(std::move(trace).value());
  }
  return s;
}

EngineMetrics RunScenario(Scenario& s, const std::string& policy_name,
                          sim::SimTime comp_delay = 0) {
  std::unique_ptr<Disseminator> policy = MakeDisseminator(policy_name);
  EXPECT_NE(policy, nullptr);
  EngineOptions options;
  options.comp_delay = comp_delay;
  Engine engine(s.overlay, s.delays, s.traces, *policy, options);
  Result<EngineMetrics> metrics = engine.Run();
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return metrics.value_or(EngineMetrics{});
}

// ---------------------------------------------------------------------------
// The paper's central correctness claim (§5): both the distributed and
// the centralized algorithms achieve 100% fidelity when communication
// and computational delays are zero. Property-tested over random
// workloads, degrees and seeds.

struct ZeroDelayCase {
  uint64_t seed;
  size_t repos;
  size_t items;
  size_t degree;
};

class ZeroDelayFidelityTest
    : public testing::TestWithParam<std::tuple<ZeroDelayCase, const char*>> {
};

TEST_P(ZeroDelayFidelityTest, AchievesFullFidelity) {
  const auto& [c, policy] = GetParam();
  Scenario s = BuildRandomScenario(c.seed, c.repos, c.items, c.degree, 0);
  EngineMetrics metrics = RunScenario(s, policy);
  EXPECT_DOUBLE_EQ(metrics.loss_percent, 0.0)
      << policy << " seed=" << c.seed;
  for (double loss : metrics.per_member_loss) {
    if (loss >= 0.0) {
      EXPECT_DOUBLE_EQ(loss, 0.0);
    }
  }
  EXPECT_GT(metrics.messages, 0u);
}

std::string ZeroDelayCaseName(
    const testing::TestParamInfo<ZeroDelayFidelityTest::ParamType>& info) {
  return std::string(std::get<1>(info.param)) + "_seed" +
         std::to_string(std::get<0>(info.param).seed);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ZeroDelayFidelityTest,
    testing::Combine(
        testing::Values(ZeroDelayCase{1, 10, 3, 2}, ZeroDelayCase{2, 20, 5, 1},
                        ZeroDelayCase{3, 15, 4, 4}, ZeroDelayCase{4, 30, 6, 3},
                        ZeroDelayCase{5, 8, 2, 8}),
        testing::Values("distributed", "centralized")),
    ZeroDelayCaseName);

/// The Fig. 4 chain source -> P (c=0.3) -> Q (c=0.5) under zero delays.
Scenario Fig4Scenario() {
  Scenario s;
  s.overlay = Overlay(3, 1);
  s.overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  s.overlay.SetOwnInterest(1, 0, 0.3);
  s.overlay.AddItemEdge(0, 1, 0, 0.3);
  s.overlay.SetOwnInterest(2, 0, 0.5);
  s.overlay.AddItemEdge(1, 2, 0, 0.5);
  s.delays = net::OverlayDelayModel::Uniform(3, 0);
  // Fig. 4 sequence, then hold at 1.7 so the miss persists.
  s.traces = {SecondsTrace({1.0, 1.2, 1.4, 1.5, 1.7, 1.7, 1.7, 1.7})};
  return s;
}

// Eq. (3) alone does NOT achieve 100% fidelity even with zero delays
// (the Fig. 4 missed-updates problem), which is why the guard exists.
TEST(EngineTest, Eq3OnlyLosesFidelityOnFig4Scenario) {
  Scenario s = Fig4Scenario();
  EngineMetrics eq3 = RunScenario(s, "eq3-only");
  EngineMetrics dist = RunScenario(s, "distributed");
  EXPECT_GT(eq3.loss_percent, 10.0);
  EXPECT_DOUBLE_EQ(dist.loss_percent, 0.0);
}

// ---------------------------------------------------------------------------
// Busy-server computational delay model

TEST(EngineTest, ComputationalDelaySerializesDependents) {
  // Source with two direct children; one update. The second child's copy
  // is repaired one extra comp_delay later, so it accrues ~2x the
  // out-of-sync time of the first child.
  Scenario s;
  s.overlay = Overlay(3, 1);
  s.overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  s.overlay.SetOwnInterest(1, 0, 0.01);
  s.overlay.AddItemEdge(0, 1, 0, 0.01);
  s.overlay.SetOwnInterest(2, 0, 0.01);
  s.overlay.AddItemEdge(0, 2, 0, 0.01);
  s.delays = net::OverlayDelayModel::Uniform(3, 0);
  s.traces = {SecondsTrace({10.0, 11.0, 11.0, 11.0})};

  EngineMetrics metrics = RunScenario(s, "distributed", sim::Millis(10));
  ASSERT_EQ(metrics.per_member_loss.size(), 3u);
  const double loss1 = metrics.per_member_loss[1];
  const double loss2 = metrics.per_member_loss[2];
  EXPECT_GT(loss1, 0.0);
  EXPECT_NEAR(loss2 / loss1, 2.0, 0.05);
}

TEST(EngineTest, CommunicationDelayCausesLoss) {
  Scenario s = BuildRandomScenario(7, 10, 3, 3, sim::Millis(200));
  EngineMetrics delayed = RunScenario(s, "distributed");
  EXPECT_GT(delayed.loss_percent, 0.0);
  Scenario zero = BuildRandomScenario(7, 10, 3, 3, 0);
  EngineMetrics instant = RunScenario(zero, "distributed");
  EXPECT_DOUBLE_EQ(instant.loss_percent, 0.0);
}

// ---------------------------------------------------------------------------
// Message and check accounting

TEST(EngineTest, AllUpdatesPushesEveryChangeOnEveryEdge) {
  Scenario s;
  s.overlay = Overlay(3, 1);
  s.overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  s.overlay.SetOwnInterest(1, 0, 0.5);
  s.overlay.AddItemEdge(0, 1, 0, 0.5);
  s.overlay.SetOwnInterest(2, 0, 0.5);
  s.overlay.AddItemEdge(1, 2, 0, 0.5);
  s.delays = net::OverlayDelayModel::Uniform(3, 0);
  s.traces = {SecondsTrace({1.0, 1.1, 1.2, 1.3, 1.4})};  // 4 updates

  EngineMetrics metrics = RunScenario(s, "all-updates");
  EXPECT_EQ(metrics.source_updates, 4u);
  EXPECT_EQ(metrics.messages, 8u);  // 4 on each of the 2 edges
  EXPECT_EQ(metrics.source_messages, 4u);
}

TEST(EngineTest, FilteringSendsFewerMessagesThanFlooding) {
  Scenario s = BuildRandomScenario(8, 20, 5, 3, 0);
  EngineMetrics filtered = RunScenario(s, "distributed");
  EngineMetrics flooded = RunScenario(s, "all-updates");
  EXPECT_LT(filtered.messages, flooded.messages);
}

TEST(EngineTest, CentralizedDoesMoreSourceChecks) {
  // Fig. 11(a): the centralized source scans its unique-tolerance list
  // on every update, on top of its child edges.
  Scenario s = BuildRandomScenario(9, 25, 4, 5, 0);
  EngineMetrics dist = RunScenario(s, "distributed");
  EngineMetrics cent = RunScenario(s, "centralized");
  EXPECT_GT(cent.source_checks, dist.source_checks);
}

TEST(EngineTest, PoliciesSendComparableMessageCounts) {
  // Fig. 11(b): both exact policies send the same order of messages.
  Scenario s = BuildRandomScenario(10, 25, 4, 5, 0);
  EngineMetrics dist = RunScenario(s, "distributed");
  EngineMetrics cent = RunScenario(s, "centralized");
  EXPECT_GT(dist.messages, 0u);
  EXPECT_GT(cent.messages, 0u);
  const double ratio = static_cast<double>(dist.messages) /
                       static_cast<double>(cent.messages);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

// ---------------------------------------------------------------------------
// Batched delivery dispatch

EngineMetrics RunScenarioWithOptions(Scenario& s,
                                     const std::string& policy_name,
                                     const EngineOptions& options) {
  std::unique_ptr<Disseminator> policy = MakeDisseminator(policy_name);
  EXPECT_NE(policy, nullptr);
  Engine engine(s.overlay, s.delays, s.traces, *policy, options);
  Result<EngineMetrics> metrics = engine.Run();
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return metrics.value_or(EngineMetrics{});
}

TEST(EngineTest, SameArrivalDeliveriesCoalesceIntoOneEvent) {
  // Two items change at the same source tick time; with zero
  // computational delay the source pushes both to its child in the same
  // instant, so both messages arrive together and must ride one batched
  // delivery event.
  Scenario s;
  s.overlay = Overlay(2, 2);
  for (ItemId item = 0; item < 2; ++item) {
    s.overlay.SetServing(0, item, 0.0, kInvalidOverlayIndex);
    s.overlay.SetOwnInterest(1, item, 0.01);
    s.overlay.AddItemEdge(0, 1, item, 0.01);
  }
  s.delays = net::OverlayDelayModel::Uniform(2, sim::Millis(5));
  // Value-repeating tail ticks keep the horizon past the delivery times.
  s.traces = {SecondsTrace({10.0, 11.0, 11.0, 11.0}),
              SecondsTrace({20.0, 21.0, 21.0, 21.0})};

  EngineOptions batched;
  batched.comp_delay = 0;
  const EngineMetrics with = RunScenarioWithOptions(s, "all-updates", batched);
  EXPECT_EQ(with.messages, 2u);
  EXPECT_EQ(with.delivery_batches, 1u);  // N same-arrival jobs -> 1 event
  EXPECT_EQ(with.coalesced_messages, 1u);

  EngineOptions per_message = batched;
  per_message.coalesce_deliveries = false;
  const EngineMetrics without =
      RunScenarioWithOptions(s, "all-updates", per_message);
  EXPECT_EQ(without.delivery_batches, 2u);
  EXPECT_EQ(without.coalesced_messages, 0u);

  // Every externally observable metric is batching-invariant, including
  // the logical event count.
  EXPECT_EQ(with.messages, without.messages);
  EXPECT_EQ(with.checks, without.checks);
  EXPECT_EQ(with.events, without.events);
  EXPECT_EQ(with.loss_percent, without.loss_percent);
  EXPECT_EQ(with.per_member_loss, without.per_member_loss);
}

TEST(EngineTest, DistinctArrivalTimesDoNotCoalesce) {
  // Same destination, but a nonzero per-edge computational delay makes
  // the two pushes leave the source at different busy times, so nothing
  // may batch.
  Scenario s;
  s.overlay = Overlay(2, 2);
  for (ItemId item = 0; item < 2; ++item) {
    s.overlay.SetServing(0, item, 0.0, kInvalidOverlayIndex);
    s.overlay.SetOwnInterest(1, item, 0.01);
    s.overlay.AddItemEdge(0, 1, item, 0.01);
  }
  s.delays = net::OverlayDelayModel::Uniform(2, sim::Millis(5));
  s.traces = {SecondsTrace({10.0, 11.0, 11.0, 11.0}),
              SecondsTrace({20.0, 21.0, 21.0, 21.0})};
  const EngineMetrics metrics =
      RunScenario(s, "all-updates", sim::Millis(10));
  EXPECT_EQ(metrics.messages, 2u);
  EXPECT_EQ(metrics.delivery_batches, 2u);
  EXPECT_EQ(metrics.coalesced_messages, 0u);
}

// ---------------------------------------------------------------------------
// Validation & determinism

TEST(EngineTest, RejectsMismatchedTraceCount) {
  Scenario s = BuildRandomScenario(11, 5, 2, 2, 0);
  s.traces.pop_back();
  DistributedDisseminator policy;
  Engine engine(s.overlay, s.delays, s.traces, policy, EngineOptions{});
  EXPECT_TRUE(engine.Run().status().IsInvalidArgument());
}

TEST(EngineTest, RejectsEmptyTrace) {
  Scenario s = BuildRandomScenario(12, 5, 2, 2, 0);
  s.traces[0] = trace::Trace("empty", {});
  DistributedDisseminator policy;
  Engine engine(s.overlay, s.delays, s.traces, policy, EngineOptions{});
  EXPECT_FALSE(engine.Run().ok());
}

TEST(EngineTest, RejectsTickTimesOutsideTheClock) {
  // A tick before 0 would be scheduled into the past; one at or past
  // kSimTimeMax / 4 would overflow the horizon and every time after it.
  for (const std::vector<trace::Tick>& ticks :
       {std::vector<trace::Tick>{
            {-sim::Seconds(2), 1.0}, {-sim::Seconds(1), 2.0}, {0, 3.0}},
        std::vector<trace::Tick>{{0, 1.0}, {sim::kSimTimeMax, 2.0}},
        std::vector<trace::Tick>{{0, 1.0}, {sim::kSimTimeMax / 4, 2.0}}}) {
    Scenario s = Fig4Scenario();
    s.traces = {trace::Trace("T", ticks)};
    DistributedDisseminator policy;
    const Status status =
        Engine(s.overlay, s.delays, s.traces, policy, EngineOptions{})
            .Run()
            .status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.message().find("item 0"), std::string::npos)
        << status.ToString();
  }
}

TEST(EngineTest, RejectsCompDelayWhoseBusyPeriodOverflows) {
  // One job can cost comp_delay per child plus policy checks; on three
  // members that busy period must stay below kSimTimeMax / 4.
  Scenario s = Fig4Scenario();
  DistributedDisseminator policy;
  EngineOptions options;
  options.comp_delay = sim::kSimTimeMax / 16;
  EXPECT_TRUE(
      Engine(s.overlay, s.delays, s.traces, policy, options).Run().ok());
  options.comp_delay = sim::kSimTimeMax / 8;
  Status status =
      Engine(s.overlay, s.delays, s.traces, policy, options).Run().status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("comp_delay"), std::string::npos);
  options.comp_delay = sim::kSimTimeMax / 16;
  options.tag_check_cost_factor = 1.0;
  status =
      Engine(s.overlay, s.delays, s.traces, policy, options).Run().status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST(EngineTest, RejectsMismatchedDelayModel) {
  Scenario s = BuildRandomScenario(13, 5, 2, 2, 0);
  net::OverlayDelayModel wrong = net::OverlayDelayModel::Uniform(3, 0);
  DistributedDisseminator policy;
  Engine engine(s.overlay, wrong, s.traces, policy, EngineOptions{});
  EXPECT_TRUE(engine.Run().status().IsInvalidArgument());
}

/// Runs the Fig. 4 chain in wire mode with `forged` frames already
/// queued on P's ring, ahead of the source's first push to P.
Result<EngineMetrics> RunWithForgedFrames(
    const std::vector<net::wire::Frame>& forged) {
  Scenario s = Fig4Scenario();
  net::InProcTransport bus(s.overlay.member_count(), 8);
  for (const net::wire::Frame& frame : forged) {
    EXPECT_TRUE(bus.Send(0, 1, frame).ok());
  }
  EngineOptions options;
  options.wire_transport = &bus;
  DistributedDisseminator policy;
  return Engine(s.overlay, s.delays, s.traces, policy, options).Run();
}

TEST(EngineTest, WireDrainRejectsFrameForUnknownItem) {
  // Correctly addressed and due inside the horizon, but naming an item
  // the overlay does not have.
  Result<EngineMetrics> run = RunWithForgedFrames(
      {net::wire::Frame::Update(0, 1, sim::Seconds(5), 1000000, 1.0, 0.0)});
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsInternal()) << run.status().ToString();
  EXPECT_EQ(run.status().message(), "malformed update frame");
}

TEST(EngineTest, WireDrainRejectsFrameArrivingBeforeTheClock) {
  // The first push to P happens at t >= 1 s; a frame claiming to land
  // at t = 0 would rewind the simulator. The wrong-typed frame behind
  // it must not overwrite the first failure.
  Result<EngineMetrics> run = RunWithForgedFrames(
      {net::wire::Frame::Update(0, 1, /*arrival_us=*/0, 0, 1.0, 0.0),
       net::wire::Frame::Shutdown(0)});
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsInternal()) << run.status().ToString();
  EXPECT_EQ(run.status().message(), "malformed update frame");
}

TEST(EngineTest, DeterministicAcrossRuns) {
  Scenario s = BuildRandomScenario(14, 15, 4, 3, sim::Millis(30));
  EngineMetrics a = RunScenario(s, "distributed", sim::Millis(5));
  EngineMetrics b = RunScenario(s, "distributed", sim::Millis(5));
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_DOUBLE_EQ(a.loss_percent, b.loss_percent);
  EXPECT_EQ(a.events, b.events);
}

TEST(EngineTest, SourceNeverReportsLoss) {
  Scenario s = BuildRandomScenario(15, 10, 3, 3, sim::Millis(100));
  EngineMetrics metrics = RunScenario(s, "distributed", sim::Millis(10));
  EXPECT_DOUBLE_EQ(metrics.per_member_loss[0], 0.0);
}

}  // namespace
}  // namespace d3t::core
