// Chaos harness for the serving pipeline: scripted faults on the feed
// transport (drops, duplicates, corruption, reordering, resets, wedge
// windows) with reconnect-and-resubscribe recovery at the session
// layer. The headline invariant, every repair policy:
// any UNDER-BUDGET fault script yields metrics byte-identical to the
// fault-free run — recovery reconstructs the exact feed, so the engine
// replay cannot tell chaos happened. Over-budget scripts end in a
// precise Status naming the first unrecoverable fault, never a hang.
// A randomized property sweep generates seeded scripts and shrinks any
// failure to its shortest failing prefix before reporting.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/disseminator.h"
#include "core/engine.h"
#include "core/lela.h"
#include "core/scenario.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "net/fault_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "serve/node.h"
#include "sim/time.h"
#include "gtest/gtest.h"

namespace d3t {
namespace {

constexpr uint64_t kSeed = 41;
constexpr size_t kCoopDegree = 2;
constexpr const char* kPolicy = "distributed";

/// The chaos world: 6 repositories, 3 items, 60 ticks.
exp::SimulationSession ChaosSession() {
  exp::NetworkConfig network;
  network.repositories = 6;
  network.routers = 24;
  exp::WorkloadConfig workload;
  workload.items = 3;
  workload.ticks = 60;
  Result<exp::SimulationSession> session = exp::SessionBuilder()
                                               .SetNetwork(network)
                                               .SetWorkload(workload)
                                               .SetSeed(kSeed)
                                               .Build();
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

core::Overlay BuildChaosOverlay(const exp::World& world) {
  core::LelaOptions lela;
  lela.coop_degree = kCoopDegree;
  Rng rng = Rng(kSeed).Fork(4);
  Result<core::LelaResult> built =
      core::BuildOverlay(world.delays(), world.interests(),
                         world.workload().items, lela, rng);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value().overlay;
}

// A scenario with a real outage so repair policies have work to do.
core::Scenario FailureScenario() {
  Result<core::Scenario> scenario = exp::ScenarioBuilder()
                                        .FailRepo(sim::Seconds(10), 2)
                                        .RecoverAt(sim::Seconds(40))
                                        .Build();
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  return std::move(scenario).value();
}

// "" when identical; otherwise the first mismatched field by name.
std::string DiffEngineMetrics(const core::EngineMetrics& a,
                              const core::EngineMetrics& b) {
  if (a.loss_percent != b.loss_percent) return "loss_percent";
  if (a.pair_loss_percent != b.pair_loss_percent) return "pair_loss_percent";
  if (a.tracked_pairs != b.tracked_pairs) return "tracked_pairs";
  if (a.per_member_loss != b.per_member_loss) return "per_member_loss";
  if (a.messages != b.messages) return "messages";
  if (a.source_messages != b.source_messages) return "source_messages";
  if (a.checks != b.checks) return "checks";
  if (a.source_checks != b.source_checks) return "source_checks";
  if (a.source_updates != b.source_updates) return "source_updates";
  if (a.events != b.events) return "events";
  if (a.delivery_batches != b.delivery_batches) return "delivery_batches";
  if (a.coalesced_messages != b.coalesced_messages) {
    return "coalesced_messages";
  }
  if (a.process_wakeups != b.process_wakeups) return "process_wakeups";
  if (a.horizon != b.horizon) return "horizon";
  if (a.scenario_ops != b.scenario_ops) return "scenario_ops";
  if (a.repairs != b.repairs) return "repairs";
  if (a.orphaned_ticks != b.orphaned_ticks) return "orphaned_ticks";
  if (a.dropped_jobs != b.dropped_jobs) return "dropped_jobs";
  if (a.outage_pair_time != b.outage_pair_time) return "outage_pair_time";
  if (a.outage_out_of_sync_time != b.outage_out_of_sync_time) {
    return "outage_out_of_sync_time";
  }
  if (a.outage_loss_percent != b.outage_loss_percent) {
    return "outage_loss_percent";
  }
  return "";
}

std::string DescribeScript(const net::FaultScript& script) {
  std::string out = "{";
  for (size_t i = 0; i < script.size(); ++i) {
    const net::FaultOp& op = script.op(i);
    if (i > 0) out += ", ";
    out += net::FaultKindName(static_cast<net::FaultKind>(op.kind));
    out += "@" + std::to_string(op.at_send);
    out += "(from=" + std::to_string(op.from) +
           ",to=" + std::to_string(op.to) + ",arg=" + std::to_string(op.arg) +
           ")";
  }
  return out + "}";
}

// The shared chaos pipeline: feed the world through a fault-injecting
// transport with resubscribe recovery on, then serve. Returns "" on a
// byte-identical outcome, otherwise a description of what broke.
struct ChaosWorld {
  ChaosWorld() : session(ChaosSession()), scenario(FailureScenario()) {}

  core::EngineMetrics DirectPush(core::RepairPolicy policy,
                                 bool with_scenario) const {
    const exp::World& world = session.world();
    core::Overlay overlay = BuildChaosOverlay(world);
    std::unique_ptr<core::Disseminator> dissem =
        core::MakeDisseminator(kPolicy);
    core::EngineOptions options;
    options.repair_policy = policy;
    options.repair_delay = sim::Millis(750);
    core::Engine engine(overlay, world.delays(), world.traces(), *dissem,
                        options, /*change_timelines=*/nullptr,
                        with_scenario ? &scenario : nullptr);
    Result<core::EngineMetrics> metrics = engine.Run();
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    return std::move(metrics).value();
  }

  // Runs the publish -> chaos -> ingest -> recover -> serve pipeline.
  std::string RunServed(const net::FaultScript& script, uint64_t seed,
                        core::RepairPolicy policy, bool with_scenario) {
    const exp::World& world = session.world();
    core::Overlay overlay = BuildChaosOverlay(world);
    net::InProcTransport inner(2, 32);
    net::FaultInjectingTransport feed(inner, script, seed);
    net::InProcTransport data(overlay.member_count(), 64);
    serve::NodeOptions node_options;
    node_options.engine.repair_policy = policy;
    node_options.engine.repair_delay = sim::Millis(750);
    node_options.policy = kPolicy;
    node_options.feed_publisher = 1;
    serve::Node node(overlay, world.delays(), feed, data, node_options);
    serve::FeedPublisher publisher(world.traces(),
                                   with_scenario ? &scenario : nullptr,
                                   overlay.member_count(), kSeed, feed,
                                   /*self=*/1, {0});
    const Status driven = serve::DriveFeed(publisher, node);
    if (!driven.ok()) return "DriveFeed: " + driven.ToString();
    // A script that never fired proves nothing — guard the harness.
    if (!script.empty() && feed.metrics().faults_injected == 0) {
      return "harness bug: no scripted fault fired";
    }
    Result<serve::NodeReport> served = node.Serve();
    if (!served.ok()) return "Serve: " + served.status().ToString();
    const std::string diff =
        DiffEngineMetrics(DirectPush(policy, with_scenario), served->engine);
    if (!diff.empty()) return "push metrics diverged: " + diff;
    return "";
  }

  exp::SimulationSession session;
  core::Scenario scenario;
};

net::FaultScript MakeScript(std::vector<net::FaultOp> ops) {
  Result<net::FaultScript> script = net::FaultScript::Create(std::move(ops));
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  return *script;
}

// ---------------------------------------------------------------------------
// Under budget: byte-identity survives scripted chaos

TEST(ChaosTest, PushEngineSurvivesMixedFaultsAllRepairPolicies) {
  ChaosWorld world;
  // Drops, a duplicate, corruption, reordering and a reset, scattered
  // through the feed. from=1 targets publisher->node traffic; the
  // any-peer ops may also hit resubscribe requests — recovery must
  // absorb that too (DriveFeed re-nudges).
  const net::FaultScript script = MakeScript(
      {net::FaultOp{3, 0 /*drop*/, 1, net::kAnyPeer, 0},
       net::FaultOp{10, 1 /*duplicate*/, 1, net::kAnyPeer, 0},
       net::FaultOp{25, 2 /*corrupt*/, net::kAnyPeer, net::kAnyPeer,
                    net::kAnyArg},
       net::FaultOp{40, 3 /*delay*/, 1, net::kAnyPeer, 4},
       net::FaultOp{60, 4 /*reset*/, 1, net::kAnyPeer, 0},
       net::FaultOp{90, 0 /*drop*/, 1, net::kAnyPeer, 0}});
  for (core::RepairPolicy policy :
       {core::RepairPolicy::kFallback, core::RepairPolicy::kLela,
        core::RepairPolicy::kOnRecovery}) {
    const std::string failure =
        world.RunServed(script, /*seed=*/7, policy, /*with_scenario=*/true);
    EXPECT_EQ(failure, "")
        << "policy " << static_cast<int>(policy) << ": " << failure;
  }
}

TEST(ChaosTest, BoundedWedgeWindowHealsAndStaysByteIdentical) {
  ChaosWorld world;
  // The node goes dark for 10 sends mid-feed — everything toward it
  // (including retransmissions) vanishes — then the window closes and
  // resubscribe catches the feed back up.
  const net::FaultScript script = MakeScript(
      {net::FaultOp{20, 5 /*wedge*/, net::kAnyPeer, 0, 10}});
  const std::string failure = world.RunServed(
      script, /*seed=*/3, core::RepairPolicy::kFallback,
      /*with_scenario=*/true);
  EXPECT_EQ(failure, "") << failure;
}

// ---------------------------------------------------------------------------
// Over budget: precise degradation report, never a hang

TEST(ChaosTest, ForeverWedgeEndsInPreciseWedgeError) {
  ChaosWorld world;
  // arg 0 = wedge forever: nothing ever reaches the node again. The
  // drive loop must terminate with an error naming the stuck seq.
  const net::FaultScript script = MakeScript(
      {net::FaultOp{20, 5 /*wedge*/, net::kAnyPeer, 0, 0}});
  const std::string failure = world.RunServed(
      script, /*seed=*/5, core::RepairPolicy::kFallback,
      /*with_scenario=*/false);
  EXPECT_NE(failure.find("DriveFeed"), std::string::npos) << failure;
  EXPECT_NE(failure.find("waiting for feed seq"), std::string::npos)
      << failure;
}

TEST(ChaosTest, ResubscribeBudgetExhaustionSurfacesThroughDriveFeed) {
  const exp::SimulationSession session = ChaosSession();
  const exp::World& world = session.world();
  core::Overlay overlay = BuildChaosOverlay(world);
  net::InProcTransport inner(2, 32);
  // Op 0 drops the hello, opening a gap the moment seq 1 arrives; every
  // later op swallows one node->publisher resubscribe, forever. Each
  // recovery nudge burns budget until the node reports exhaustion.
  // (Ops execute strictly in script order, so the gap-opener must come
  // first — the from=0 drops never match publisher traffic.)
  std::vector<net::FaultOp> ops;
  ops.push_back(net::FaultOp{0, 0 /*drop*/, /*from=*/1, net::kAnyPeer, 0});
  for (uint64_t i = 0; i < 64; ++i) {
    ops.push_back(net::FaultOp{0, 0 /*drop*/, /*from=*/0, net::kAnyPeer, 0});
  }
  net::FaultInjectingTransport feed(inner, MakeScript(std::move(ops)), 1);
  net::InProcTransport data(overlay.member_count(), 64);
  serve::NodeOptions node_options;
  node_options.feed_publisher = 1;
  node_options.max_resubscribes = 4;
  serve::Node node(overlay, world.delays(), feed, data, node_options);
  serve::FeedPublisher publisher(world.traces(), nullptr,
                                 overlay.member_count(), kSeed, feed,
                                 /*self=*/1, {0});
  const Status driven = serve::DriveFeed(publisher, node);
  ASSERT_FALSE(driven.ok());
  EXPECT_TRUE(driven.IsIoError()) << driven.ToString();
  EXPECT_NE(driven.message().find("feed recovery budget exhausted"),
            std::string::npos)
      << driven.ToString();
  EXPECT_NE(driven.message().find("first unrecoverable fault"),
            std::string::npos)
      << driven.ToString();
}

// ---------------------------------------------------------------------------
// Randomized property sweep with prefix shrinking

// Seeded random script: every op recoverable (no forever-wedges), all
// kinds represented, any-peer and directional filters mixed.
std::vector<net::FaultOp> RandomOps(uint64_t seed) {
  Rng rng(seed);
  const size_t count = 1 + static_cast<size_t>(rng.NextBounded(5));
  std::vector<net::FaultOp> ops;
  uint64_t at = 0;
  for (size_t i = 0; i < count; ++i) {
    at += rng.NextBounded(60);
    net::FaultOp op;
    op.at_send = at;
    op.kind = static_cast<uint32_t>(rng.NextBounded(6));
    // from=1 (publisher) or any; never from=0-only, so scripts always
    // have feed traffic to bite on.
    op.from = rng.NextBernoulli(0.5) ? 1u : net::kAnyPeer;
    op.to = net::kAnyPeer;
    switch (static_cast<net::FaultKind>(op.kind)) {
      case net::FaultKind::kDelayFrame:
        op.arg = 1 + static_cast<uint32_t>(rng.NextBounded(6));
        break;
      case net::FaultKind::kWedgePeer:
        op.to = 0;  // wedge the node, bounded window
        op.arg = 1 + static_cast<uint32_t>(rng.NextBounded(8));
        break;
      case net::FaultKind::kCorruptByte:
        op.arg = net::kAnyArg;
        break;
      default:
        op.arg = 0;
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

TEST(ChaosTest, RandomScriptsStayByteIdenticalWithPrefixShrinking) {
  ChaosWorld world;
  constexpr uint64_t kBaseSeed = 0xC4405u;
  constexpr int kTrials = 12;
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(trial);
    const std::vector<net::FaultOp> ops = RandomOps(seed);
    // Odd trials replay the world without its outage.
    const bool with_scenario = (trial % 2) == 0;
    const core::RepairPolicy policy =
        static_cast<core::RepairPolicy>(trial % 3);
    auto attempt = [&](const std::vector<net::FaultOp>& subset) {
      return world.RunServed(MakeScript(subset), seed, policy,
                             with_scenario);
    };
    std::string failure = attempt(ops);
    if (failure.empty()) continue;
    // Shrink: shortest failing prefix of the script, so the report
    // names the minimal reproducer alongside its seed.
    size_t len = ops.size();
    std::string shrunk_failure = failure;
    for (size_t prefix = 1; prefix < ops.size(); ++prefix) {
      const std::string result = attempt(
          std::vector<net::FaultOp>(ops.begin(), ops.begin() + prefix));
      if (!result.empty()) {
        len = prefix;
        shrunk_failure = result;
        break;
      }
    }
    const net::FaultScript shrunk =
        MakeScript(std::vector<net::FaultOp>(ops.begin(), ops.begin() + len));
    ADD_FAILURE() << "chaos trial " << trial << " (seed " << seed
                  << ", scenario " << (with_scenario ? "on" : "off")
                  << ", policy " << static_cast<int>(policy)
                  << ") diverged; shortest failing prefix ("
                  << len << " of " << ops.size()
                  << " ops): " << DescribeScript(shrunk) << " — "
                  << shrunk_failure;
  }
}

}  // namespace
}  // namespace d3t
