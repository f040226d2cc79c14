// The Scenario subsystem: scripted mid-run dynamics (repository
// failures and recoveries, coherency renegotiation) delivered through
// the typed event kernel, the overlay's repair operations (detach /
// re-attach / edge-id recycling), and the repair policies that put
// orphaned subtrees back together — the paper's resilience story (§4)
// made executable.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/lela.h"
#include "core/scenario.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "gtest/gtest.h"
#include "trace/synthetic.h"

namespace d3t::core {
namespace {

// ---------------------------------------------------------------------------
// Scenario construction and static validation

TEST(ScenarioTest, CreateSortsOpsByTimeStably) {
  auto scenario = exp::ScenarioBuilder()
                      .RecoverRepo(sim::Seconds(90), 2)
                      .FailRepo(sim::Seconds(30), 2)
                      .ChangeCoherency(sim::Seconds(30), 3, 0, 0.5)
                      .Build();
  // Unsorted authoring is fine as long as the *sorted* schedule is
  // valid: fail(30) ... recover(90).
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  ASSERT_EQ(scenario->size(), 3u);
  EXPECT_EQ(scenario->op(0).kind, ScenarioOpKind::kRepoFail);
  EXPECT_EQ(scenario->op(1).kind, ScenarioOpKind::kCoherencyChange);
  EXPECT_EQ(scenario->op(2).kind, ScenarioOpKind::kRepoRecover);
}

TEST(ScenarioTest, StaticValidationRejectsContradictions) {
  // Double fail.
  EXPECT_TRUE(exp::ScenarioBuilder()
                  .FailRepo(sim::Seconds(10), 2)
                  .FailRepo(sim::Seconds(20), 2)
                  .Build()
                  .status()
                  .IsFailedPrecondition());
  // Recover of a live member.
  EXPECT_TRUE(exp::ScenarioBuilder()
                  .RecoverRepo(sim::Seconds(10), 2)
                  .Build()
                  .status()
                  .IsFailedPrecondition());
  // The source is never a target.
  EXPECT_TRUE(exp::ScenarioBuilder()
                  .FailRepo(sim::Seconds(10), 0)
                  .Build()
                  .status()
                  .IsInvalidArgument());
  // Renegotiation on a member the script has down.
  EXPECT_TRUE(exp::ScenarioBuilder()
                  .FailRepo(sim::Seconds(10), 2)
                  .ChangeCoherency(sim::Seconds(20), 2, 0, 0.5)
                  .Build()
                  .status()
                  .IsFailedPrecondition());
  // Non-positive tolerance.
  EXPECT_TRUE(exp::ScenarioBuilder()
                  .ChangeCoherency(sim::Seconds(10), 2, 0, 0.0)
                  .Build()
                  .status()
                  .IsInvalidArgument());
  // Infinite tolerance: it used to reach the overlay, where a Debug
  // build aborts and a Release build serves the item at c = inf.
  const Status infinite =
      exp::ScenarioBuilder()
          .ChangeCoherency(sim::Seconds(10), 2, 0,
                           std::numeric_limits<double>::infinity())
          .Build()
          .status();
  EXPECT_TRUE(infinite.IsInvalidArgument()) << infinite.ToString();
  EXPECT_NE(infinite.message().find("coherency-change op #0"),
            std::string::npos)
      << infinite.ToString();
  // Chained RecoverAt with no FailRepo to chain off.
  EXPECT_TRUE(exp::ScenarioBuilder()
                  .RecoverAt(sim::Seconds(10))
                  .Build()
                  .status()
                  .IsFailedPrecondition());
  // Unknown kinds, including 2 and 3 (the retired interest join and
  // leave), even when every other field would suit a coherency change.
  for (const uint32_t raw : {2u, 3u, 7u}) {
    SCOPED_TRACE(raw);
    ScenarioOp op;
    op.at = sim::Seconds(10);
    op.kind = static_cast<ScenarioOpKind>(raw);
    op.member = 2;
    op.item = 0;
    op.c = 0.5;
    const Status status = Scenario::Create({op}).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(
        status.message().find("unknown op kind " + std::to_string(raw)),
        std::string::npos)
        << status.ToString();
  }
}

TEST(ScenarioTest, ValidateAgainstChecksWorldRanges) {
  auto scenario = exp::ScenarioBuilder()
                      .FailRepo(sim::Seconds(10), 7)
                      .RecoverAt(sim::Seconds(20))
                      .Build();
  ASSERT_TRUE(scenario.ok());
  EXPECT_TRUE(scenario->ValidateAgainst(8, 4).ok());
  EXPECT_TRUE(scenario->ValidateAgainst(7, 4).IsOutOfRange());
  auto renegotiation = exp::ScenarioBuilder()
                           .ChangeCoherency(sim::Seconds(10), 1, 9, 0.5)
                           .Build();
  ASSERT_TRUE(renegotiation.ok());
  EXPECT_TRUE(renegotiation->ValidateAgainst(8, 4).IsOutOfRange());
}

TEST(ScenarioTest, ChurnGeneratorIsDeterministicAndDisjoint) {
  exp::ChurnOptions options;
  options.repositories = 12;
  options.failures = 6;
  options.horizon = sim::Seconds(600);
  options.seed = 99;
  auto a = exp::MakeChurnScenario(options);
  auto b = exp::MakeChurnScenario(options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  EXPECT_GT(a->size(), 0u);
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->op(i).at, b->op(i).at);
    EXPECT_EQ(a->op(i).kind, b->op(i).kind);
    EXPECT_EQ(a->op(i).member, b->op(i).member);
    EXPECT_LE(a->op(i).at, options.horizon);
  }
  // Create() already rejected overlapping per-member episodes; a seed
  // change must decorrelate the schedule.
  options.seed = 100;
  auto c = exp::MakeChurnScenario(options);
  ASSERT_TRUE(c.ok());
  bool differs = c->size() != a->size();
  for (size_t i = 0; !differs && i < a->size(); ++i) {
    differs = a->op(i).at != c->op(i).at || a->op(i).member != c->op(i).member;
  }
  EXPECT_TRUE(differs);
}

TEST(ScenarioTest, ChurnRejectsBadOptions) {
  exp::ChurnOptions good;
  good.repositories = 4;
  good.horizon = sim::Seconds(600);
  ASSERT_TRUE(exp::MakeChurnScenario(good).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<exp::ChurnOptions> bad(7, good);
  bad[0].repositories = 0;
  bad[1].horizon = 0;
  bad[2].min_outage_fraction = 0.0;
  bad[3].max_outage_fraction = 0.5 * good.min_outage_fraction;
  bad[4].max_outage_fraction = 1.0;
  // NaN fails every ordered comparison, so each bound must be checked
  // in the form NaN fails; a NaN fraction would otherwise reach the
  // outage duration's float-to-int cast.
  bad[5].min_outage_fraction = nan;
  bad[6].max_outage_fraction = nan;
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_TRUE(exp::MakeChurnScenario(bad[i]).status().IsInvalidArgument())
        << "case " << i;
  }
}

// ---------------------------------------------------------------------------
// Overlay repair operations

/// source -> 1 -> 2 -> 3 chain on one item, loosening tolerances.
Overlay MakeChain() {
  Overlay overlay(4, 1);
  overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  overlay.SetOwnInterest(1, 0, 0.1);
  overlay.AddItemEdge(0, 1, 0, 0.1);
  overlay.SetOwnInterest(2, 0, 0.2);
  overlay.AddItemEdge(1, 2, 0, 0.2);
  overlay.SetOwnInterest(3, 0, 0.3);
  overlay.AddItemEdge(2, 3, 0, 0.3);
  return overlay;
}

TEST(OverlayRepairTest, DetachCapturesOrphansAndNeeds) {
  Overlay overlay = MakeChain();
  const EdgeId limit_before = overlay.edge_id_limit();
  Result<MemberDetachment> det = overlay.DetachMember(2);
  ASSERT_TRUE(det.ok()) << det.status().ToString();
  ASSERT_EQ(det->orphans.size(), 1u);
  EXPECT_EQ(det->orphans[0].item, 0u);
  EXPECT_EQ(det->orphans[0].child, 3u);
  EXPECT_DOUBLE_EQ(det->orphans[0].c, 0.3);
  EXPECT_EQ(det->orphans[0].fallback_parent, 1u);
  ASSERT_EQ(det->needs.size(), 1u);
  EXPECT_DOUBLE_EQ(det->needs[0].c_own, 0.2);
  EXPECT_EQ(det->needs[0].parent, 1u);
  // The orphan keeps its holding and serve tolerance but has no parent,
  // so the overlay is (deliberately) invalid until repaired.
  EXPECT_TRUE(overlay.Holds(3, 0));
  EXPECT_EQ(overlay.Serving(3, 0).parent, kInvalidOverlayIndex);
  EXPECT_FALSE(overlay.Validate().ok());
  // The detached member holds nothing, sits on no connection list in
  // either direction, and is unplaced.
  EXPECT_FALSE(overlay.Holds(2, 0));
  EXPECT_TRUE(overlay.ConnectionChildren(2).empty());
  EXPECT_TRUE(overlay.ConnectionParents(2).empty());
  EXPECT_EQ(overlay.level(2), Overlay::kInvalidLevel);
  EXPECT_TRUE(overlay.ConnectionChildren(1).empty());
  EXPECT_TRUE(overlay.ConnectionParents(3).empty());
  // Repair via the fallback parent restores validity, recycling ids:
  // no fresh id is minted.
  overlay.AddItemEdge(1, 3, 0, 0.3);
  EXPECT_TRUE(overlay.Validate().ok());
  EXPECT_EQ(overlay.edge_id_limit(), limit_before);
  // The source and unknown members cannot be detached.
  EXPECT_TRUE(overlay.DetachMember(0).status().IsInvalidArgument());
  EXPECT_TRUE(overlay.DetachMember(99).status().IsOutOfRange());
}

TEST(OverlayRepairTest, EdgeIdsStayBoundedAcrossChurn) {
  Overlay overlay = MakeChain();
  const EdgeId limit = overlay.edge_id_limit();
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(overlay.DetachMember(2).ok());
    overlay.AddItemEdge(1, 3, 0, 0.3);  // repair the orphan
    // Member 2 re-joins as a leaf under 1.
    overlay.AddItemEdge(1, 2, 0, 0.2);
    overlay.SetOwnInterest(2, 0, 0.2);
    ASSERT_TRUE(overlay.Validate().ok()) << "round " << round;
  }
  // Long-lived churn must not grow the dense per-edge id space.
  EXPECT_EQ(overlay.edge_id_limit(), limit);
  // The rejoining member kept its tracker identity throughout.
  EXPECT_EQ(overlay.tracker_id(2, 0), 1u);
}

TEST(OverlayRepairTest, CoherencyRenegotiationPropagatesBothWays) {
  Overlay overlay = MakeChain();
  // Tightening the leaf cascades up to every ancestor's serve.
  ASSERT_TRUE(overlay.UpdateOwnCoherency(3, 0, 0.05).ok());
  EXPECT_DOUBLE_EQ(overlay.Serving(3, 0).c_serve, 0.05);
  EXPECT_DOUBLE_EQ(overlay.Serving(2, 0).c_serve, 0.05);
  EXPECT_DOUBLE_EQ(overlay.Serving(1, 0).c_serve, 0.05);
  EXPECT_TRUE(overlay.Validate().ok());
  // Loosening walks back exactly to each hop's own constraint.
  ASSERT_TRUE(overlay.UpdateOwnCoherency(3, 0, 0.3).ok());
  EXPECT_DOUBLE_EQ(overlay.Serving(3, 0).c_serve, 0.3);
  EXPECT_DOUBLE_EQ(overlay.Serving(2, 0).c_serve, 0.2);
  EXPECT_DOUBLE_EQ(overlay.Serving(1, 0).c_serve, 0.1);
  EXPECT_TRUE(overlay.Validate().ok());
  // Guard rails.
  EXPECT_TRUE(overlay.UpdateOwnCoherency(0, 0, 0.5).IsInvalidArgument());
  EXPECT_TRUE(
      overlay.UpdateOwnCoherency(1, 0, -1.0).IsInvalidArgument());
  // +inf used to trip PropagateServe's finiteness assert (a Release
  // build served at c = inf); NaN must stay rejected too.
  for (const double c : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_TRUE(overlay.UpdateOwnCoherency(3, 0, c).IsInvalidArgument())
        << c;
  }
  EXPECT_DOUBLE_EQ(overlay.Serving(3, 0).c_serve, 0.3);
  EXPECT_TRUE(overlay.Validate().ok());
  Overlay fresh(4, 2);
  fresh.SetServing(0, 1, 0.0, kInvalidOverlayIndex);
  EXPECT_TRUE(fresh.UpdateOwnCoherency(1, 1, 0.5).IsFailedPrecondition());
}

TEST(ScenarioTest, CentralizedRepairForcesResync) {
  // The centralized source keys state by tolerance class, not edge; a
  // repair notification must prime the repaired class so the next
  // update flows to the re-attached child even when it violates no
  // tolerance — otherwise a recovered member could stay stale forever.
  Overlay overlay(3, 1);
  overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  overlay.SetOwnInterest(1, 0, 0.1);
  overlay.AddItemEdge(0, 1, 0, 0.1);
  overlay.SetOwnInterest(2, 0, 0.5);
  const EdgeId edge = overlay.AddItemEdge(0, 2, 0, 0.5);
  CentralizedDisseminator policy;
  policy.Initialize(overlay, {10.0});
  // A drift within every tolerance: dropped at the source.
  BeginDecision quiet = policy.BeginUpdate(0, 0, 0, 10.05, 0.0);
  EXPECT_TRUE(quiet.drop);
  // Repair of the 0.5-class edge: the class is primed to fire.
  policy.OnEdgeCreated(edge, 0, 0.5);
  BeginDecision resync = policy.BeginUpdate(0, 0, 0, 10.05, 0.0);
  EXPECT_FALSE(resync.drop);
  EXPECT_DOUBLE_EQ(resync.tag, 0.5);
  // And the class settles: the same value does not fire twice.
  EXPECT_TRUE(policy.BeginUpdate(0, 0, 0, 10.05, 0.0).drop);
}

// ---------------------------------------------------------------------------
// Engine: failure, repair convergence, fidelity during outages

struct EngineFixture {
  Overlay overlay{1, 0};
  std::vector<InterestSet> interests;
  std::vector<trace::Trace> traces;
  net::OverlayDelayModel delays = net::OverlayDelayModel::Uniform(1, 0);
};

EngineFixture BuildFixture(uint64_t seed, size_t repos, size_t items,
                           size_t degree, sim::SimTime delay,
                           size_t ticks = 400) {
  EngineFixture f;
  Rng rng(seed);
  InterestOptions workload;
  workload.repository_count = repos;
  workload.item_count = items;
  f.interests = GenerateInterests(workload, rng);
  f.delays = net::OverlayDelayModel::Uniform(repos + 1, delay);
  LelaOptions options;
  options.coop_degree = degree;
  Result<LelaResult> built =
      BuildOverlay(f.delays, f.interests, items, options, rng);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  f.overlay = std::move(built->overlay);
  for (size_t i = 0; i < items; ++i) {
    trace::SyntheticTraceOptions trace_options;
    trace_options.name = "X" + std::to_string(i);
    trace_options.tick_count = ticks;
    Result<trace::Trace> trace =
        trace::GenerateSyntheticTrace(trace_options, rng);
    EXPECT_TRUE(trace.ok());
    f.traces.push_back(std::move(trace).value());
  }
  return f;
}

/// A member that actually relays (has dependents) for some item —
/// failing a leaf would exercise no repair at all.
OverlayIndex PickRelay(const Overlay& overlay) {
  for (OverlayIndex m = 1; m < overlay.member_count(); ++m) {
    for (ItemId item = 0; item < overlay.item_count(); ++item) {
      if (overlay.Holds(m, item) &&
          !overlay.Serving(m, item).children.empty()) {
        return m;
      }
    }
  }
  return kInvalidOverlayIndex;
}

EngineMetrics RunWithScenario(EngineFixture& f, const Scenario* scenario,
                              RepairPolicy repair = RepairPolicy::kFallback,
                              sim::SimTime repair_delay = 0) {
  auto policy = MakeDisseminator("distributed");
  EngineOptions options;
  options.comp_delay = 0;
  options.repair_policy = repair;
  options.repair_delay = repair_delay;
  Engine engine(f.overlay, f.delays, f.traces, *policy, options, nullptr,
                scenario);
  Result<EngineMetrics> metrics = engine.Run();
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return metrics.ok() ? *metrics : EngineMetrics{};
}

TEST(EngineScenarioTest, FailureAndRecoveryReattachEveryOrphan) {
  for (const RepairPolicy repair :
       {RepairPolicy::kFallback, RepairPolicy::kLela,
        RepairPolicy::kOnRecovery}) {
    SCOPED_TRACE(static_cast<int>(repair));
    EngineFixture f = BuildFixture(7, 20, 4, 3, sim::Millis(5));
    const OverlayIndex victim = PickRelay(f.overlay);
    ASSERT_NE(victim, kInvalidOverlayIndex);
    auto scenario = exp::ScenarioBuilder()
                        .FailRepo(sim::Seconds(60), victim)
                        .RecoverAt(sim::Seconds(200))
                        .Build();
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const EngineMetrics metrics = RunWithScenario(f, &*scenario, repair);
    EXPECT_EQ(metrics.scenario_ops, 2u);
    EXPECT_GT(metrics.repairs, 0u);
    EXPECT_GT(metrics.outage_pair_time, 0);
    // Repair convergence: after the recovery the d3g is whole again —
    // every orphaned subtree re-attached, every tree rooted, Eq. (1)
    // intact — and the recovered member holds its own items again.
    EXPECT_TRUE(f.overlay.Validate().ok());
    for (const auto& [item, c] : f.interests[victim - 1]) {
      EXPECT_TRUE(f.overlay.Holds(victim, item))
          << "item " << item << " not re-attached";
    }
  }
  // A relay and one of its dependents fail together (the dependent
  // first, so its captured needs name the relay as their parent), and
  // the dependent recovers while the relay is still down: its needs
  // must find another live parent, at worst the source.
  for (const RepairPolicy repair :
       {RepairPolicy::kFallback, RepairPolicy::kLela,
        RepairPolicy::kOnRecovery}) {
    for (const sim::SimTime repair_delay :
         {sim::SimTime{0}, sim::Millis(750)}) {
      SCOPED_TRACE(testing::Message() << "policy " << static_cast<int>(repair)
                                      << ", repair_delay " << repair_delay);
      EngineFixture f = BuildFixture(7, 20, 4, 3, sim::Millis(5));
      const OverlayIndex relay = PickRelay(f.overlay);
      ASSERT_NE(relay, kInvalidOverlayIndex);
      OverlayIndex dependent = kInvalidOverlayIndex;
      for (ItemId item = 0; dependent == kInvalidOverlayIndex &&
                            item < f.overlay.item_count();
           ++item) {
        if (f.overlay.Holds(relay, item) &&
            !f.overlay.Serving(relay, item).children.empty()) {
          dependent = f.overlay.Serving(relay, item).children.front().child;
        }
      }
      ASSERT_NE(dependent, kInvalidOverlayIndex);
      auto scenario = exp::ScenarioBuilder()
                          .FailRepo(sim::Seconds(60), dependent)
                          .FailRepo(sim::Seconds(60), relay)
                          .RecoverRepo(sim::Seconds(120), dependent)
                          .RecoverRepo(sim::Seconds(200), relay)
                          .Build();
      ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
      const EngineMetrics metrics =
          RunWithScenario(f, &*scenario, repair, repair_delay);
      EXPECT_EQ(metrics.scenario_ops, 4u);
      EXPECT_GT(metrics.repairs, 0u);
      EXPECT_TRUE(f.overlay.Validate().ok());
      for (const OverlayIndex m : {dependent, relay}) {
        for (const auto& [item, c] : f.interests[m - 1]) {
          EXPECT_TRUE(f.overlay.Holds(m, item) &&
                      f.overlay.Serving(m, item).own_interest)
              << "member " << m << " item " << item << " not re-attached";
        }
      }
    }
  }
}

TEST(EngineScenarioTest, RecoveryRestoresRelayOnlyHoldingsForItsOrphans) {
  // LeLA's cascading augmentation can make a member relay an item it
  // never wanted itself. Under the on-recovery policy its orphans wait
  // for exactly that member — so recovery must restore the relay-only
  // holding (it is not captured as an own need) before re-adopting
  // them.
  EngineFixture f;
  f.overlay = Overlay(3, 1);
  f.overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  f.overlay.AddItemEdge(0, 1, 0, 0.3);  // member 1: pure relay
  f.overlay.SetOwnInterest(2, 0, 0.3);
  f.overlay.AddItemEdge(1, 2, 0, 0.3);
  f.interests = {{}, {{0, 0.3}}};
  f.delays = net::OverlayDelayModel::Uniform(3, sim::Millis(5));
  Rng rng(41);
  trace::SyntheticTraceOptions trace_options;
  trace_options.tick_count = 300;
  f.traces.push_back(
      std::move(trace::GenerateSyntheticTrace(trace_options, rng)).value());
  auto scenario = exp::ScenarioBuilder()
                      .FailRepo(sim::Seconds(50), 1)
                      .RecoverAt(sim::Seconds(150))
                      .Build();
  ASSERT_TRUE(scenario.ok());
  const EngineMetrics metrics =
      RunWithScenario(f, &*scenario, RepairPolicy::kOnRecovery);
  // The relay holding came back and the orphan re-joined under its
  // original parent, exactly as the policy promises.
  EXPECT_TRUE(f.overlay.Holds(1, 0));
  ASSERT_TRUE(f.overlay.Holds(2, 0));
  EXPECT_EQ(f.overlay.Serving(2, 0).parent, 1u);
  EXPECT_EQ(metrics.repairs, 2u);  // relay restore + orphan re-join
  EXPECT_TRUE(f.overlay.Validate().ok());
}

TEST(EngineScenarioTest, DeferredRepairLeavesOrphansStaleDuringWindow) {
  EngineFixture f = BuildFixture(7, 20, 4, 3, sim::Millis(5));
  const OverlayIndex victim = PickRelay(f.overlay);
  ASSERT_NE(victim, kInvalidOverlayIndex);
  auto scenario = exp::ScenarioBuilder()
                      .FailRepo(sim::Seconds(60), victim)
                      .RecoverAt(sim::Seconds(200))
                      .Build();
  ASSERT_TRUE(scenario.ok());
  const EngineMetrics metrics =
      RunWithScenario(f, &*scenario, RepairPolicy::kFallback,
                      /*repair_delay=*/sim::Seconds(20));
  // Source ticks fired while the subtree sat orphaned in its
  // silence-detection window.
  EXPECT_GT(metrics.orphaned_ticks, 0u);
  EXPECT_TRUE(f.overlay.Validate().ok());
}

TEST(EngineScenarioTest, FailureDropsDeliveriesAndDegradesGracefully) {
  // Deterministic by construction: a 0 -> 1 -> 2 chain with stringent
  // tolerances (every value move propagates) over a 5-second pipe, so
  // updates are always in the air — the crash of member 2 catches and
  // drops in-flight traffic. Detachment already stops *future* sends
  // structurally, which is why a short pipe shows no drops at all.
  auto make_fixture = [] {
    EngineFixture f;
    f.overlay = Overlay(3, 1);
    f.overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
    f.overlay.SetOwnInterest(1, 0, 0.001);
    f.overlay.AddItemEdge(0, 1, 0, 0.001);
    f.overlay.SetOwnInterest(2, 0, 0.002);
    f.overlay.AddItemEdge(1, 2, 0, 0.002);
    f.interests = {{{0, 0.001}}, {{0, 0.002}}};
    f.delays = net::OverlayDelayModel::Uniform(3, sim::Seconds(5));
    Rng rng(31);
    trace::SyntheticTraceOptions trace_options;
    trace_options.tick_count = 300;
    f.traces.push_back(
        std::move(trace::GenerateSyntheticTrace(trace_options, rng))
            .value());
    return f;
  };
  EngineFixture baseline_fixture = make_fixture();
  EngineFixture failed_fixture = make_fixture();
  const EngineMetrics baseline = RunWithScenario(baseline_fixture, nullptr);
  auto scenario = exp::ScenarioBuilder()
                      .FailRepo(sim::Seconds(100), 2)
                      .RecoverAt(sim::Seconds(200))
                      .Build();
  ASSERT_TRUE(scenario.ok());
  const EngineMetrics outage = RunWithScenario(failed_fixture, &*scenario);
  // The failed host lost in-flight traffic and its pair integrated
  // staleness through the outage, yet the overall loss moved only a
  // bounded amount from the baseline (member 1 kept flowing; the
  // forced-resync repair edge can even claw a little fidelity back).
  EXPECT_GT(outage.dropped_jobs, 0u);
  EXPECT_GT(outage.outage_pair_time, 0);
  EXPECT_GT(outage.outage_loss_percent, 0.0);
  EXPECT_NEAR(outage.loss_percent, baseline.loss_percent, 10.0);
}

TEST(EngineScenarioTest, InterestChurnAndRenegotiationKeepOverlayValid) {
  EngineFixture f = BuildFixture(13, 12, 4, 3, sim::Millis(5));
  // Two own-interest pairs of one member to renegotiate.
  OverlayIndex member = kInvalidOverlayIndex;
  ItemId first = kInvalidItem;
  ItemId second = kInvalidItem;
  for (OverlayIndex m = 1;
       m < f.overlay.member_count() && member == kInvalidOverlayIndex;
       ++m) {
    std::vector<ItemId> owned;
    for (ItemId item = 0; item < f.overlay.item_count(); ++item) {
      if (f.overlay.Holds(m, item) &&
          f.overlay.Serving(m, item).own_interest) {
        owned.push_back(item);
      }
    }
    if (owned.size() >= 2) {
      member = m;
      first = owned[0];
      second = owned[1];
    }
  }
  ASSERT_NE(member, kInvalidOverlayIndex);
  auto scenario =
      exp::ScenarioBuilder()
          .ChangeCoherency(sim::Seconds(50), member, first, 0.01)
          .ChangeCoherency(sim::Seconds(100), member, second, 0.05)
          .ChangeCoherency(sim::Seconds(250), member, first, 0.5)
          .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const EngineMetrics metrics = RunWithScenario(f, &*scenario);
  EXPECT_EQ(metrics.scenario_ops, 3u);
  EXPECT_TRUE(f.overlay.Validate().ok());
  // Each pair serves at its last renegotiated tolerance or tighter (a
  // dependent may still need the tighter serve).
  EXPECT_DOUBLE_EQ(f.overlay.Serving(member, first).c_own, 0.5);
  EXPECT_LE(f.overlay.Serving(member, first).c_serve, 0.5);
  EXPECT_DOUBLE_EQ(f.overlay.Serving(member, second).c_own, 0.05);
  EXPECT_LE(f.overlay.Serving(member, second).c_serve, 0.05);
}

TEST(EngineScenarioTest, RuntimeContradictionSurfacesAsError) {
  // Statically valid script, runtime-invalid op: renegotiating an
  // interest the generated world never gave the member. The run must
  // fail, not silently skip.
  EngineFixture f = BuildFixture(17, 8, 2, 3, 0);
  OverlayIndex uninterested = kInvalidOverlayIndex;
  ItemId item = 0;
  for (OverlayIndex m = 1; m < f.overlay.member_count(); ++m) {
    if (!f.overlay.Holds(m, item)) {
      uninterested = m;
      break;
    }
  }
  if (uninterested == kInvalidOverlayIndex) GTEST_SKIP();
  auto scenario = exp::ScenarioBuilder()
                      .ChangeCoherency(sim::Seconds(10), uninterested, item,
                                       0.5)
                      .Build();
  ASSERT_TRUE(scenario.ok());
  auto policy = MakeDisseminator("distributed");
  EngineOptions options;
  options.comp_delay = 0;
  Engine engine(f.overlay, f.delays, f.traces, *policy, options, nullptr,
                &*scenario);
  EXPECT_TRUE(engine.Run().status().IsFailedPrecondition());
}

TEST(EngineScenarioTest, RepairWithNoLegalParentFailsTheRun) {
  // On an overlay rooted at the source a repair always finds a parent,
  // at worst the source. Here the source does not hold the item, so
  // when relay 1 fails no live member can adopt its dependent 2: the
  // run must fail rather than leave the orphan waiting.
  EngineFixture f;
  f.overlay = Overlay(3, 1);
  f.overlay.SetServing(1, 0, 0.1, kSourceOverlayIndex);
  f.overlay.SetOwnInterest(2, 0, 0.2);
  f.overlay.AddItemEdge(1, 2, 0, 0.2);
  f.delays = net::OverlayDelayModel::Uniform(3, sim::Millis(5));
  Rng rng(43);
  trace::SyntheticTraceOptions trace_options;
  trace_options.tick_count = 60;
  f.traces.push_back(
      std::move(trace::GenerateSyntheticTrace(trace_options, rng)).value());
  auto scenario =
      exp::ScenarioBuilder().FailRepo(sim::Seconds(10), 1).Build();
  ASSERT_TRUE(scenario.ok());
  auto policy = MakeDisseminator("distributed");
  EngineOptions options;
  options.comp_delay = 0;
  Engine engine(f.overlay, f.delays, f.traces, *policy, options, nullptr,
                &*scenario);
  const Status status = engine.Run().status();
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  EXPECT_NE(status.message().find("no live parent"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Session plumbing

TEST(SessionScenarioTest, RunSpecValidationCatchesBadScenarioAndPolicy) {
  exp::NetworkConfig network;
  network.repositories = 6;
  network.routers = 24;
  exp::WorkloadConfig workload;
  workload.items = 3;
  workload.ticks = 120;
  exp::SessionBuilder builder;
  builder.SetNetwork(network).SetWorkload(workload).SetSeed(5);
  auto session = builder.Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  exp::RunSpec spec;
  spec.policy.repair_policy = "definitely-not-a-policy";
  EXPECT_TRUE(session->Run(spec).status().IsInvalidArgument());

  spec.policy.repair_policy = "fallback";
  auto out_of_range = exp::ScenarioBuilder()
                          .FailRepo(sim::Seconds(1), 99)
                          .Build();
  ASSERT_TRUE(out_of_range.ok());
  spec.scenario = *out_of_range;
  EXPECT_TRUE(session->Run(spec).status().IsOutOfRange());
}

TEST(SessionScenarioTest, ChurnScenarioRunsThroughSessionOnBothPolicies) {
  exp::NetworkConfig network;
  network.repositories = 12;
  network.routers = 48;
  exp::WorkloadConfig workload;
  workload.items = 4;
  workload.ticks = 300;
  exp::SessionBuilder builder;
  builder.SetNetwork(network).SetWorkload(workload).SetSeed(21);
  auto session = builder.Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  exp::ChurnOptions churn;
  churn.repositories = network.repositories;
  churn.failures = 3;
  churn.horizon =
      session->world().traces().front().ticks().back().time;
  churn.seed = 21;
  auto scenario = exp::MakeChurnScenario(churn);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

  for (const char* policy : {"distributed", "centralized"}) {
    SCOPED_TRACE(policy);
    exp::RunSpec spec;
    spec.policy.policy = policy;
    spec.scenario = *scenario;
    spec.seed = 21;
    Result<exp::ExperimentResult> run = session->Run(spec);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->metrics.scenario_ops, scenario->size());
    EXPECT_LT(run->metrics.loss_percent, 100.0);
    // Determinism: the same churned spec reproduces byte-identically.
    Result<exp::ExperimentResult> again = session->Run(spec);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(run->metrics.loss_percent, again->metrics.loss_percent);
    EXPECT_EQ(run->metrics.messages, again->metrics.messages);
    EXPECT_EQ(run->metrics.repairs, again->metrics.repairs);
    EXPECT_EQ(run->metrics.dropped_jobs, again->metrics.dropped_jobs);
  }
}

}  // namespace
}  // namespace d3t::core
