// Tests for the time-domain coherency policy (paper §1.1: tolerances in
// units of time are the "simpler problem" solved by periodic pushes).

#include <memory>

#include "core/disseminator.h"
#include "core/engine.h"
#include "gtest/gtest.h"

namespace d3t::core {
namespace {

Overlay OneEdgeOverlay() {
  Overlay overlay(2, 1);
  overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  overlay.SetOwnInterest(1, 0, 0.5);
  overlay.AddItemEdge(0, 1, 0, 0.5);
  return overlay;
}

TEST(TemporalTest, FirstUpdateAlwaysPushed) {
  Overlay overlay = OneEdgeOverlay();
  TemporalDisseminator policy;
  policy.Initialize(overlay, {1.0});
  const ItemEdge& edge = overlay.Serving(0, 0).children[0];
  EXPECT_TRUE(policy.ShouldPush(0, 0, 0, edge, 1.1, 0.0));
}

TEST(TemporalTest, RateLimitsWithinPeriod) {
  Overlay overlay = OneEdgeOverlay();
  TemporalDisseminator policy;
  policy.Initialize(overlay, {1.0});
  const ItemEdge& edge = overlay.Serving(0, 0).children[0];
  EXPECT_TRUE(policy.ShouldPush(sim::Seconds(1), 0, 0, edge, 1.1, 0.0));
  // Inside the 5s window: suppressed regardless of how large the value
  // change is (time-domain coherency ignores magnitudes).
  EXPECT_FALSE(policy.ShouldPush(sim::Seconds(3), 0, 0, edge, 99.0, 0.0));
  EXPECT_FALSE(
      policy.ShouldPush(sim::Seconds(5.999), 0, 0, edge, 42.0, 0.0));
  // At/after one period: pushed again.
  EXPECT_TRUE(policy.ShouldPush(sim::Seconds(6), 0, 0, edge, 1.2, 0.0));
}

TEST(TemporalTest, EdgesRateLimitedIndependently) {
  Overlay overlay(3, 1);
  overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  overlay.SetOwnInterest(1, 0, 0.5);
  overlay.AddItemEdge(0, 1, 0, 0.5);
  overlay.SetOwnInterest(2, 0, 0.5);
  overlay.AddItemEdge(0, 2, 0, 0.5);
  TemporalDisseminator policy;
  policy.Initialize(overlay, {1.0});
  const auto& edges = overlay.Serving(0, 0).children;
  EXPECT_TRUE(policy.ShouldPush(sim::Seconds(1), 0, 0, edges[0], 1.1, 0.0));
  // The other edge has its own clock.
  EXPECT_TRUE(policy.ShouldPush(sim::Seconds(2), 0, 0, edges[1], 1.1, 0.0));
  EXPECT_FALSE(
      policy.ShouldPush(sim::Seconds(4), 0, 0, edges[0], 1.2, 0.0));
  EXPECT_TRUE(policy.ShouldPush(sim::Seconds(7), 0, 0, edges[1], 1.2, 0.0));
}

TEST(TemporalTest, FactoryProvidesDefaultPeriod) {
  std::unique_ptr<Disseminator> policy = MakeDisseminator("temporal");
  ASSERT_NE(policy, nullptr);
  ASSERT_NE(dynamic_cast<TemporalDisseminator*>(policy.get()), nullptr);
  EXPECT_EQ(TemporalDisseminator::kPeriod, sim::Seconds(5.0));
}

TEST(TemporalTest, BoundsStalenessInTimeNotValue) {
  // End-to-end: a 5s-period temporal push guarantees every repository's
  // copy is at most ~5s stale, but its *value* fidelity on a volatile
  // item is worse than the value-domain distributed policy.
  std::vector<trace::Tick> ticks;
  double v = 10.0;
  for (int i = 0; i < 600; ++i) {
    ticks.push_back({sim::Seconds(static_cast<double>(i)), v});
    v += (i % 2 == 0) ? 0.30 : -0.30;  // oscillates every second
  }
  std::vector<trace::Trace> traces = {
      trace::Trace("osc", std::move(ticks))};

  Overlay overlay(2, 1);
  overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  overlay.SetOwnInterest(1, 0, 0.05);
  overlay.AddItemEdge(0, 1, 0, 0.05);
  auto delays = net::OverlayDelayModel::Uniform(2, 0);

  EngineOptions engine_options;
  engine_options.comp_delay = 0;

  TemporalDisseminator temporal;
  Engine temporal_engine(overlay, delays, traces, temporal, engine_options);
  Result<EngineMetrics> temporal_metrics = temporal_engine.Run();
  ASSERT_TRUE(temporal_metrics.ok());

  DistributedDisseminator distributed;
  Engine dist_engine(overlay, delays, traces, distributed, engine_options);
  Result<EngineMetrics> dist_metrics = dist_engine.Run();
  ASSERT_TRUE(dist_metrics.ok());

  // Value-domain filtering keeps fidelity perfect at zero delay;
  // periodic pushes cannot (they skip intermediate violations).
  EXPECT_DOUBLE_EQ(dist_metrics->loss_percent, 0.0);
  EXPECT_GT(temporal_metrics->loss_percent, 10.0);
  // But the temporal policy pushes at most one update per 5s window.
  EXPECT_LE(temporal_metrics->messages,
            static_cast<uint64_t>(600 / 5 + 2));
  EXPECT_LT(temporal_metrics->messages, dist_metrics->messages);
}

TEST(TemporalTest, QuietItemSendsNothing) {
  // Rate limiting never *generates* traffic: a value that never changes
  // is never pushed (the engine only processes real updates).
  std::vector<trace::Tick> ticks;
  for (int i = 0; i < 100; ++i) {
    ticks.push_back({sim::Seconds(static_cast<double>(i)), 5.0});
  }
  std::vector<trace::Trace> traces = {
      trace::Trace("flat", std::move(ticks))};
  Overlay overlay = OneEdgeOverlay();
  auto delays = net::OverlayDelayModel::Uniform(2, 0);
  TemporalDisseminator policy;
  Engine engine(overlay, delays, traces, policy, EngineOptions{});
  Result<EngineMetrics> metrics = engine.Run();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->messages, 0u);
  EXPECT_DOUBLE_EQ(metrics->loss_percent, 0.0);
}

}  // namespace
}  // namespace d3t::core
