// Live serving pipeline: a FeedPublisher streams a trace library (and
// optional scenario script) as wire frames to a Node, which ingests the
// feed and replays it through a core::Engine whose every inter-member
// push crosses the data transport. The headline pin: the full
// publish -> ingest -> serve pipeline produces metrics byte-identical
// to a direct library-call Engine run on the same world. Plus the feed
// protocol's error envelope: every malformed feed is rejected with a
// precise, sticky Status.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/disseminator.h"
#include "core/engine.h"
#include "core/lela.h"
#include "core/scenario.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "net/fault_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/registry.h"
#include "serve/node.h"
#include "sim/time.h"
#include "trace/trace.h"
#include "gtest/gtest.h"

namespace d3t {
namespace {

constexpr uint64_t kSeed = 77;
constexpr size_t kCoopDegree = 3;
constexpr const char* kPolicy = "distributed";

/// The fixture world: 10 repositories, 4 items, 120 ticks.
exp::SimulationSession SmallSession() {
  exp::NetworkConfig network;
  network.repositories = 10;
  network.routers = 40;
  exp::WorkloadConfig workload;
  workload.items = 4;
  workload.ticks = 120;
  Result<exp::SimulationSession> session = exp::SessionBuilder()
                                               .SetNetwork(network)
                                               .SetWorkload(workload)
                                               .SetSeed(kSeed)
                                               .Build();
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

// Builds the same overlay twice (identical RNG stream) so the direct
// run and the served run each own one — a scenario repairs the overlay
// in place, so they cannot share.
core::Overlay BuildFixtureOverlay(const exp::World& world) {
  core::LelaOptions lela;
  lela.coop_degree = kCoopDegree;
  Rng rng = Rng(kSeed).Fork(4);
  Result<core::LelaResult> built =
      core::BuildOverlay(world.delays(), world.interests(),
                         world.workload().items, lela, rng);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value().overlay;
}

core::EngineMetrics RunDirect(const exp::World& world,
                              const core::EngineOptions& options,
                              const core::Scenario* scenario) {
  core::Overlay overlay = BuildFixtureOverlay(world);
  std::unique_ptr<core::Disseminator> policy =
      core::MakeDisseminator(kPolicy);
  core::Engine engine(overlay, world.delays(), world.traces(), *policy,
                      options, /*change_timelines=*/nullptr, scenario);
  Result<core::EngineMetrics> metrics = engine.Run();
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return std::move(metrics).value();
}

void ExpectIdentical(const core::EngineMetrics& a,
                     const core::EngineMetrics& b) {
  EXPECT_EQ(a.loss_percent, b.loss_percent);
  EXPECT_EQ(a.pair_loss_percent, b.pair_loss_percent);
  EXPECT_EQ(a.tracked_pairs, b.tracked_pairs);
  EXPECT_EQ(a.per_member_loss, b.per_member_loss);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.source_messages, b.source_messages);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.source_checks, b.source_checks);
  EXPECT_EQ(a.source_updates, b.source_updates);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.delivery_batches, b.delivery_batches);
  EXPECT_EQ(a.coalesced_messages, b.coalesced_messages);
  EXPECT_EQ(a.process_wakeups, b.process_wakeups);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.scenario_ops, b.scenario_ops);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.orphaned_ticks, b.orphaned_ticks);
  EXPECT_EQ(a.dropped_jobs, b.dropped_jobs);
  EXPECT_EQ(a.outage_pair_time, b.outage_pair_time);
  EXPECT_EQ(a.outage_out_of_sync_time, b.outage_out_of_sync_time);
  EXPECT_EQ(a.outage_loss_percent, b.outage_loss_percent);
}

uint64_t TotalTicks(const exp::World& world) {
  uint64_t ticks = 0;
  for (const trace::Trace& trace : world.traces()) ticks += trace.size();
  return ticks;
}

// Drives the feed to completion via the library's own loop and asserts
// it succeeded (serve::DriveFeed converts deadlock into a precise
// wedge error, so a protocol bug fails here instead of hanging).
void DriveFeedOk(serve::FeedPublisher& publisher, serve::Node& node) {
  const Status driven = serve::DriveFeed(publisher, node);
  ASSERT_TRUE(driven.ok()) << driven.ToString();
  ASSERT_TRUE(publisher.done());
  ASSERT_TRUE(node.feed_complete());
}

TEST(ServeTest, PipelineIsByteIdenticalToDirectRun) {
  const exp::SimulationSession session = SmallSession();
  const exp::World& world = session.world();
  core::EngineOptions options;
  const core::EngineMetrics direct =
      RunDirect(world, options, /*scenario=*/nullptr);

  core::Overlay overlay = BuildFixtureOverlay(world);
  net::InProcTransport feed(/*peer_count=*/2, /*per_peer_capacity=*/32);
  net::InProcTransport data(overlay.member_count(), 64);
  serve::NodeOptions node_options;
  node_options.feed_self = 0;
  node_options.policy = kPolicy;
  node_options.engine = options;
  serve::Node node(overlay, world.delays(), feed, data, node_options);
  serve::FeedPublisher publisher(world.traces(), /*scenario=*/nullptr,
                                 overlay.member_count(), kSeed, feed,
                                 /*self=*/1, /*subscribers=*/{0});
  DriveFeedOk(publisher, node);

  Result<serve::NodeReport> report = node.Serve();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectIdentical(direct, report->engine);

  // Feed accounting: one hello + every tick + one shutdown.
  EXPECT_EQ(report->feed_frames, TotalTicks(world) + 2);

  // Data-side accounting: every engine message crossed the wire.
  const uint64_t update_bytes =
      net::wire::EncodedSize(net::wire::FrameType::kUpdate);
  EXPECT_EQ(report->data.frames_tx, report->engine.messages);
  EXPECT_EQ(report->data.frames_rx, report->engine.messages);
  EXPECT_EQ(report->data.bytes_tx, report->engine.messages * update_bytes);
  EXPECT_EQ(report->data.bytes_rx, report->engine.messages * update_bytes);
  EXPECT_EQ(report->data.decode_errors, 0u);
}

TEST(ServeTest, ServesOnceBecauseServingTakesTheIngestedFeed) {
  // Serve() moves the ingested ticks into the engine's trace library
  // instead of copying them, so the node serves once; a second call is
  // a precise FailedPrecondition, not a run on an empty library.
  const exp::SimulationSession session = SmallSession();
  const exp::World& world = session.world();
  const core::EngineMetrics direct =
      RunDirect(world, core::EngineOptions{}, /*scenario=*/nullptr);
  core::Overlay overlay = BuildFixtureOverlay(world);
  net::InProcTransport feed(2, 32);
  net::InProcTransport data(overlay.member_count(), 64);
  serve::NodeOptions node_options;
  node_options.policy = kPolicy;
  serve::Node node(overlay, world.delays(), feed, data, node_options);
  serve::FeedPublisher publisher(world.traces(), /*scenario=*/nullptr,
                                 overlay.member_count(), kSeed, feed,
                                 /*self=*/1, {0});
  DriveFeedOk(publisher, node);

  Result<serve::NodeReport> first = node.Serve();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ExpectIdentical(direct, first->engine);
  EXPECT_EQ(first->feed_frames, TotalTicks(world) + 2);
  EXPECT_EQ(first->data.frames_rx, first->engine.messages);

  Result<serve::NodeReport> second = node.Serve();
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsFailedPrecondition())
      << second.status().ToString();
  EXPECT_EQ(second.status().message(),
            "node already served: the first Serve() took the ingested feed");
}

TEST(ServeTest, EngineRegistryReceivesEngineAndNodeEntries) {
  // NodeOptions::engine is the registry's one home: the engine's
  // "engine.*" metrics and the node's "node.*" counters both land in it.
  const exp::SimulationSession session = SmallSession();
  const exp::World& world = session.world();
  core::Overlay overlay = BuildFixtureOverlay(world);
  net::InProcTransport feed(2, 32);
  net::InProcTransport data(overlay.member_count(), 64);
  obs::Registry registry;
  serve::NodeOptions node_options;
  node_options.engine.registry = &registry;
  serve::Node node(overlay, world.delays(), feed, data, node_options);
  serve::FeedPublisher publisher(world.traces(), /*scenario=*/nullptr,
                                 overlay.member_count(), kSeed, feed,
                                 /*self=*/1, {0});
  DriveFeedOk(publisher, node);

  Result<serve::NodeReport> report = node.Serve();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->engine.messages, 0u);
  const obs::Snapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(obs::SnapshotCounter(snapshot, "engine.messages"),
            report->engine.messages);
  EXPECT_EQ(obs::SnapshotCounter(snapshot, "node.feed_frames"),
            report->feed_frames);
}

TEST(ServeTest, ScenarioOpsTravelTheFeedAndReplayIdentically) {
  const exp::SimulationSession session = SmallSession();
  const exp::World& world = session.world();
  // Coherency renegotiation needs a (member, item) pair the member has
  // an own interest in; pick the first one the generated world holds.
  core::OverlayIndex cc_member = 0;
  core::ItemId cc_item = 0;
  for (size_t i = 0; i < world.interests().size() && cc_member == 0; ++i) {
    if (i + 1 == 3) continue;  // member 3 is down at t=30s
    for (const auto& [item, c] : world.interests()[i]) {
      cc_member = static_cast<core::OverlayIndex>(i + 1);
      cc_item = item;
      break;
    }
  }
  ASSERT_GT(cc_member, 0u);
  Result<core::Scenario> scenario = exp::ScenarioBuilder()
                                        .FailRepo(sim::Seconds(10), 3)
                                        .RecoverAt(sim::Seconds(60))
                                        .ChangeCoherency(sim::Seconds(30),
                                                         cc_member, cc_item,
                                                         0.5)
                                        .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  core::EngineOptions options;
  options.repair_delay = sim::Millis(750);
  const core::EngineMetrics direct =
      RunDirect(world, options, &*scenario);
  ASSERT_GT(direct.scenario_ops, 0u);

  core::Overlay overlay = BuildFixtureOverlay(world);
  net::InProcTransport feed(2, 32);
  net::InProcTransport data(overlay.member_count(), 64);
  serve::NodeOptions node_options;
  node_options.engine = options;
  serve::Node node(overlay, world.delays(), feed, data, node_options);
  serve::FeedPublisher publisher(world.traces(), &*scenario,
                                 overlay.member_count(), kSeed, feed,
                                 /*self=*/1, {0});
  DriveFeedOk(publisher, node);

  Result<serve::NodeReport> report = node.Serve();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectIdentical(direct, report->engine);
  // One hello + every tick + every op + one shutdown.
  EXPECT_EQ(report->feed_frames, TotalTicks(world) + scenario->size() + 2);
  EXPECT_EQ(report->engine.scenario_ops, direct.scenario_ops);
}

TEST(ServeTest, StreamFeedWithBackpressureDeliversIdentically) {
  // Same pipeline, but the feed crosses a ring far smaller than the
  // feed — Pump/Poll must interleave under real backpressure.
  const exp::SimulationSession session = SmallSession();
  const exp::World& world = session.world();
  core::EngineOptions options;
  const core::EngineMetrics direct =
      RunDirect(world, options, /*scenario=*/nullptr);

  core::Overlay overlay = BuildFixtureOverlay(world);
  net::InProcTransport feed(2, /*per_peer_capacity=*/6);
  net::InProcTransport data(overlay.member_count(), 64);
  serve::NodeOptions node_options;
  serve::Node node(overlay, world.delays(), feed, data, node_options);
  serve::FeedPublisher publisher(world.traces(), nullptr,
                                 overlay.member_count(), kSeed, feed,
                                 /*self=*/1, {0});
  DriveFeedOk(publisher, node);

  Result<serve::NodeReport> report = node.Serve();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectIdentical(direct, report->engine);
  // The tiny ring genuinely filled: stalls were counted, never grown
  // past, and no byte was corrupted in transit.
  EXPECT_GT(feed.metrics().backpressure_stalls, 0u);
  EXPECT_EQ(feed.metrics().decode_errors, 0u);
}

// The encoded bytes of `frame`: two frames are the same frame exactly
// when these match.
std::vector<uint8_t> FrameBytes(const net::wire::Frame& frame) {
  std::vector<uint8_t> bytes(net::wire::kMaxFrameSize);
  bytes.resize(net::wire::Encode(frame, bytes.data(), bytes.size()));
  return bytes;
}

TEST(ServeTest, FeedIsTheLibraryAsStoredAndRewindsAcrossItsBoundaries) {
  // Traces of unequal length, so each item boundary sits at its own
  // seq, and ticks whose times interleave across items and with the
  // ops, so a time-merged feed would order them differently.
  std::vector<trace::Trace> traces;
  traces.emplace_back("item0", std::vector<trace::Tick>{
                                   {0, 10.0}, {2000, 10.5}, {4000, 11.0}});
  traces.emplace_back("item1", std::vector<trace::Tick>{{500, 20.0}});
  traces.emplace_back("item2", std::vector<trace::Tick>{{0, 30.0},
                                                        {1000, 30.25},
                                                        {3000, 30.5},
                                                        {5000, 30.75},
                                                        {7000, 31.0}});
  core::ScenarioOp fail;
  fail.at = 1500;
  fail.kind = core::ScenarioOpKind::kRepoFail;
  fail.member = 2;
  core::ScenarioOp recover = fail;
  recover.at = 6000;
  recover.kind = core::ScenarioOpKind::kRepoRecover;
  Result<core::Scenario> scenario = core::Scenario::Create({fail, recover});
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

  net::InProcTransport feed(2, 32);
  serve::FeedPublisher publisher(traces, &*scenario, /*member_count=*/4,
                                 /*world_seed=*/77, feed, /*self=*/1, {0});
  publisher.Pump();
  ASSERT_TRUE(publisher.done()) << publisher.status().ToString();
  std::vector<net::wire::Frame> frames;
  net::wire::Frame frame;
  while (feed.Poll(0, &frame, nullptr)) frames.push_back(frame);

  // hello 0, ticks 1..9 item by item, ops 10..11, shutdown 12.
  ASSERT_EQ(frames.size(), 13u);
  for (uint32_t seq = 0; seq < frames.size(); ++seq) {
    EXPECT_EQ(net::wire::FeedSeq(frames[seq]), seq);
  }
  ASSERT_EQ(frames[0].type, net::wire::FrameType::kHello);
  EXPECT_EQ(frames[0].u.hello.node, 0u);
  EXPECT_EQ(frames[0].u.hello.member_count, 4u);
  EXPECT_EQ(frames[0].u.hello.item_count, 3u);
  EXPECT_EQ(frames[0].u.hello.world_seed, 77u);
  uint32_t seq = 1;
  for (uint32_t item = 0; item < traces.size(); ++item) {
    const std::vector<trace::Tick>& ticks = traces[item].ticks();
    for (uint32_t i = 0; i < ticks.size(); ++i, ++seq) {
      SCOPED_TRACE(seq);
      ASSERT_EQ(frames[seq].type, net::wire::FrameType::kSourceTick);
      const net::wire::SourceTickPayload& tick = frames[seq].u.source_tick;
      EXPECT_EQ(tick.item, item);
      EXPECT_EQ(tick.tick_index, i);
      EXPECT_EQ(tick.at_us, ticks[i].time);
      EXPECT_EQ(tick.value, ticks[i].value);
    }
  }
  for (size_t i = 0; i < scenario->size(); ++i, ++seq) {
    SCOPED_TRACE(seq);
    ASSERT_EQ(frames[seq].type, net::wire::FrameType::kScenarioOp);
    const core::ScenarioOp& op = scenario->op(i);
    const net::wire::ScenarioOpPayload& sent = frames[seq].u.scenario;
    EXPECT_EQ(sent.at_us, op.at);
    EXPECT_EQ(sent.kind, static_cast<uint32_t>(op.kind));
    EXPECT_EQ(sent.member, op.member);
  }
  ASSERT_EQ(frames[seq].type, net::wire::FrameType::kShutdown);
  EXPECT_EQ(frames[seq].u.shutdown.node, 0u);

  // Rewind to the first tick of item 1, the last tick of item 2, the
  // first op and the shutdown: each resend is the pinned tail.
  for (const uint32_t resume : {4u, 9u, 10u, 12u}) {
    SCOPED_TRACE(resume);
    ASSERT_TRUE(
        feed.Send(0, 1, net::wire::Frame::Resubscribe(0, resume)).ok());
    publisher.Pump();
    ASSERT_TRUE(publisher.done()) << publisher.status().ToString();
    for (uint32_t expect = resume; expect < frames.size(); ++expect) {
      ASSERT_TRUE(feed.Poll(0, &frame, nullptr)) << "seq " << expect;
      EXPECT_EQ(FrameBytes(frame), FrameBytes(frames[expect]))
          << "seq " << expect;
    }
    EXPECT_FALSE(feed.Poll(0, &frame, nullptr));
  }
  EXPECT_EQ(publisher.resubscribes_handled(), 4u);
}

// ---------------------------------------------------------------------------
// Feed protocol error envelope

struct IngestFixture {
  explicit IngestFixture(serve::NodeOptions node_options = {})
      : session(SmallSession()),
        overlay(BuildFixtureOverlay(session.world())),
        feed(2, 32),
        data(overlay.member_count(), 64),
        node(overlay, session.world().delays(), feed, data, node_options) {}

  // Feeds one frame (publisher peer 1 -> node peer 0) through PollFeed,
  // stamping the contiguous feed seq a healthy publisher would — these
  // tests target the PROTOCOL layer, not the sequence layer.
  Result<size_t> Feed(net::wire::Frame frame) {
    if (net::wire::IsFeedFrame(frame.type)) {
      net::wire::SetFeedSeq(frame, send_seq_++);
    }
    Status sent = feed.Send(1, 0, frame);
    EXPECT_TRUE(sent.ok()) << sent.ToString();
    return node.PollFeed();
  }

  // Feeds one frame with an explicit seq (sequence-layer tests).
  Result<size_t> FeedSeq(net::wire::Frame frame, uint32_t seq) {
    net::wire::SetFeedSeq(frame, seq);
    Status sent = feed.Send(1, 0, frame);
    EXPECT_TRUE(sent.ok()) << sent.ToString();
    return node.PollFeed();
  }

  net::wire::Frame Hello() const {
    return net::wire::Frame::Hello(
        0, static_cast<uint32_t>(overlay.member_count()),
        static_cast<uint32_t>(overlay.item_count()), /*world_seed=*/77);
  }

  exp::SimulationSession session;
  core::Overlay overlay;
  net::InProcTransport feed;
  net::InProcTransport data;
  serve::Node node;
  uint32_t send_seq_ = 0;
};

TEST(ServeTest, RejectsTicksBeforeHello) {
  IngestFixture fx;
  Result<size_t> polled =
      fx.Feed(net::wire::Frame::SourceTick(0, 0, 0, 1.0));
  ASSERT_FALSE(polled.ok());
  EXPECT_TRUE(polled.status().IsFailedPrecondition());

  // The error is sticky: the node refuses everything afterwards.
  Result<size_t> again = fx.node.PollFeed();
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsFailedPrecondition());
}

TEST(ServeTest, RejectsDuplicateHelloAndWorldMismatch) {
  {
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    Result<size_t> dup = fx.Feed(fx.Hello());
    ASSERT_FALSE(dup.ok());
    EXPECT_TRUE(dup.status().IsFailedPrecondition());
  }
  {
    IngestFixture fx;
    net::wire::Frame wrong = fx.Hello();
    wrong.u.hello.member_count += 1;
    Result<size_t> polled = fx.Feed(wrong);
    ASSERT_FALSE(polled.ok());
    EXPECT_TRUE(polled.status().IsInvalidArgument());
  }
  {
    // A hello addressed to another node is not this node's feed.
    IngestFixture fx;
    net::wire::Frame misaddressed = fx.Hello();
    misaddressed.u.hello.node = 5;
    Result<size_t> polled = fx.Feed(misaddressed);
    ASSERT_FALSE(polled.ok());
    EXPECT_TRUE(polled.status().IsInvalidArgument());
    EXPECT_EQ(polled.status().message(),
              "hello frame addressed to node 5, but this node is 0");
  }
  {
    // Nor is a shutdown addressed to another node: the feed stays open.
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    for (uint32_t item = 0; item < fx.overlay.item_count(); ++item) {
      ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(item, 0, 0, 1.0)).ok());
    }
    Result<size_t> polled = fx.Feed(net::wire::Frame::Shutdown(6));
    ASSERT_FALSE(polled.ok());
    EXPECT_TRUE(polled.status().IsInvalidArgument());
    EXPECT_EQ(polled.status().message(),
              "shutdown frame addressed to node 6, but this node is 0");
    EXPECT_FALSE(fx.node.feed_complete());
  }
}

TEST(ServeTest, RejectsMalformedTickSequences) {
  {
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    Result<size_t> bad = fx.Feed(net::wire::Frame::SourceTick(
        static_cast<uint32_t>(fx.overlay.item_count()), 0, 0, 1.0));
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE(bad.status().IsOutOfRange());
  }
  {
    // tick_index skips ahead — a dropped frame must not go unnoticed.
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(0, 0, 0, 1.0)).ok());
    Result<size_t> gap =
        fx.Feed(net::wire::Frame::SourceTick(0, 2, 2000, 3.0));
    ASSERT_FALSE(gap.ok());
    EXPECT_TRUE(gap.status().IsInvalidArgument());
  }
  {
    // Non-increasing timestamps.
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    ASSERT_TRUE(
        fx.Feed(net::wire::Frame::SourceTick(0, 0, 1000, 1.0)).ok());
    Result<size_t> stale =
        fx.Feed(net::wire::Frame::SourceTick(0, 1, 1000, 2.0));
    ASSERT_FALSE(stale.ok());
    EXPECT_TRUE(stale.status().IsInvalidArgument());
  }
}

TEST(ServeTest, RejectsUnknownScenarioKindsAndForeignFrames) {
  // 2 and 3 are the retired interest join and leave kinds.
  for (const uint32_t kind : {2u, 3u, 99u}) {
    SCOPED_TRACE(kind);
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    Result<size_t> bad =
        fx.Feed(net::wire::Frame::ScenarioOp(1000, kind, 1, 0, 0.5));
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE(bad.status().IsInvalidArgument());
    EXPECT_NE(bad.status().message().find("unknown scenario op kind"),
              std::string::npos)
        << bad.status().ToString();
  }
  {
    // An update frame belongs on the data transport, never the feed.
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    Result<size_t> foreign =
        fx.Feed(net::wire::Frame::Update(1, 2, 1000, 0, 1.0, 0.0));
    ASSERT_FALSE(foreign.ok());
    EXPECT_TRUE(foreign.status().IsInvalidArgument());
  }
}

TEST(ServeTest, FedNonFiniteToleranceFailsServe) {
  // Fed scenario ops are validated by core::Scenario::Create at Serve().
  // An infinite tolerance used to reach the overlay, where a Debug build
  // aborts and a Release build serves the item at c = inf.
  IngestFixture fx;
  core::OverlayIndex member = 0;
  core::ItemId item = 0;
  const std::vector<core::InterestSet>& interests =
      fx.session.world().interests();
  for (size_t i = 0; i < interests.size() && member == 0; ++i) {
    if (interests[i].empty()) continue;
    member = static_cast<core::OverlayIndex>(i + 1);
    item = interests[i].begin()->first;
  }
  ASSERT_GT(member, 0u);
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  ASSERT_TRUE(fx.Feed(net::wire::Frame::ScenarioOp(
                          1,
                          static_cast<uint32_t>(
                              core::ScenarioOpKind::kCoherencyChange),
                          member, item,
                          std::numeric_limits<double>::infinity()))
                  .ok());
  int64_t at = 0;
  for (uint32_t i = 0; i < fx.overlay.item_count(); ++i) {
    ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(i, 0, ++at, 1.0)).ok());
  }
  ASSERT_TRUE(fx.Feed(net::wire::Frame::Shutdown(0)).ok());
  Result<serve::NodeReport> report = fx.node.Serve();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument())
      << report.status().ToString();
  EXPECT_NE(report.status().message().find("tolerance"), std::string::npos)
      << report.status().ToString();
}

TEST(ServeTest, RejectsIncompleteFeeds) {
  {
    // Shutdown while an item has no ticks at all.
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(0, 0, 0, 1.0)).ok());
    Result<size_t> early = fx.Feed(net::wire::Frame::Shutdown(0));
    ASSERT_FALSE(early.ok());
    EXPECT_TRUE(early.status().IsInvalidArgument());
  }
  {
    // Serve before the shutdown frame arrived.
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    Result<serve::NodeReport> report = fx.node.Serve();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.status().IsFailedPrecondition());
  }
}

TEST(ServeTest, RejectsFramesAfterShutdown) {
  IngestFixture fx;
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  int64_t at = 0;
  for (uint32_t item = 0; item < fx.overlay.item_count(); ++item) {
    ASSERT_TRUE(
        fx.Feed(net::wire::Frame::SourceTick(item, 0, ++at, 1.0)).ok());
  }
  ASSERT_TRUE(fx.Feed(net::wire::Frame::Shutdown(0)).ok());
  ASSERT_TRUE(fx.node.feed_complete());
  Result<size_t> late =
      fx.Feed(net::wire::Frame::SourceTick(0, 1, 5000, 2.0));
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Feed sequence layer and reconnect-and-resubscribe recovery

TEST(ServeTest, StrictSeqGapNamesTheMissingRange) {
  IngestFixture fx;
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  // Frames 1 and 2 vanished in transit; seq 3 arrives next.
  Result<size_t> gap =
      fx.FeedSeq(net::wire::Frame::SourceTick(0, 0, 0, 1.0), 3);
  ASSERT_FALSE(gap.ok());
  EXPECT_TRUE(gap.status().IsInvalidArgument());
  EXPECT_NE(gap.status().message().find("missing frames [1, 3)"),
            std::string::npos)
      << gap.status().message();
}

TEST(ServeTest, StrictStaleSeqIsAPreciseError) {
  IngestFixture fx;
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  Result<size_t> stale = fx.FeedSeq(fx.Hello(), 0);  // duplicated frame
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().message().find("stale or duplicated seq 0"),
            std::string::npos)
      << stale.status().message();
}

TEST(ServeTest, ShutdownNamesMissingItemRanges) {
  // The fixture world has 4 items; feed ticks for item 0 only, so the
  // completeness error must name the contiguous hole 1-3.
  IngestFixture fx;
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(0, 0, 0, 1.0)).ok());
  Result<size_t> early = fx.Feed(net::wire::Frame::Shutdown(0));
  ASSERT_FALSE(early.ok());
  EXPECT_NE(early.status().message().find("no ticks for item(s) 1-3 of 4"),
            std::string::npos)
      << early.status().message();
}

TEST(ServeTest, ShutdownNamesScatteredMissingItems) {
  // Items 0 and 2 fed, 1 and 3 not: singletons, comma-separated.
  IngestFixture fx;
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(0, 0, 0, 1.0)).ok());
  ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(2, 0, 1, 1.0)).ok());
  Result<size_t> early = fx.Feed(net::wire::Frame::Shutdown(0));
  ASSERT_FALSE(early.ok());
  EXPECT_NE(early.status().message().find("no ticks for item(s) 1, 3 of 4"),
            std::string::npos)
      << early.status().message();
}

TEST(ServeTest, ResubscribeRecoversDroppedFeedFramesByteIdentically) {
  const exp::SimulationSession session = SmallSession();
  const exp::World& world = session.world();
  core::EngineOptions options;
  const core::EngineMetrics direct =
      RunDirect(world, options, /*scenario=*/nullptr);

  core::Overlay overlay = BuildFixtureOverlay(world);
  net::InProcTransport inner(2, 32);
  // Drop three publisher->node frames at different points of the feed;
  // filter from=1 so the node's own resubscribe requests are untouched.
  Result<net::FaultScript> script = net::FaultScript::Create(
      {net::FaultOp{5, 0, /*from=*/1, net::kAnyPeer, 0},
       net::FaultOp{40, 0, 1, net::kAnyPeer, 0},
       net::FaultOp{41, 0, 1, net::kAnyPeer, 0}});
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  net::FaultInjectingTransport feed(inner, *script, /*seed=*/9);
  net::InProcTransport data(overlay.member_count(), 64);
  serve::NodeOptions node_options;
  node_options.engine = options;
  node_options.feed_publisher = 1;
  serve::Node node(overlay, world.delays(), feed, data, node_options);
  serve::FeedPublisher publisher(world.traces(), nullptr,
                                 overlay.member_count(), kSeed, feed,
                                 /*self=*/1, {0});
  DriveFeedOk(publisher, node);

  Result<serve::NodeReport> report = node.Serve();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectIdentical(direct, report->engine);
  // Recovery genuinely ran: faults fired, the node asked, the
  // publisher rewound.
  EXPECT_EQ(feed.metrics().faults_injected, 3u);
  EXPECT_GT(report->resubscribes, 0u);
  EXPECT_EQ(report->resubscribes, publisher.resubscribes_handled());
}

TEST(ServeTest, OnePublisherFeedsEverySubscriberThroughFaults) {
  // One publisher at peer 1 serves nodes at peers 0 and 2 over one
  // endpoint. It routes each node's resubscribe by sender, so every
  // node recovers its own drops and still serves byte-identically.
  const exp::SimulationSession session = SmallSession();
  const exp::World& world = session.world();
  core::EngineOptions options;
  const core::EngineMetrics direct =
      RunDirect(world, options, /*scenario=*/nullptr);

  core::Overlay overlay0 = BuildFixtureOverlay(world);
  core::Overlay overlay2 = BuildFixtureOverlay(world);
  net::InProcTransport inner(3, 32);
  // Publisher->node drops aimed at each node; the nodes' resubscribe
  // requests (from 0 and 2) are untouched.
  Result<net::FaultScript> script = net::FaultScript::Create(
      {net::FaultOp{5, 0, /*from=*/1, /*to=*/0, 0},
       net::FaultOp{50, 0, 1, 2, 0},
       net::FaultOp{300, 0, 1, 0, 0}});
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  net::FaultInjectingTransport feed(inner, *script, /*seed=*/9);
  net::InProcTransport data0(overlay0.member_count(), 64);
  net::InProcTransport data2(overlay2.member_count(), 64);
  serve::NodeOptions node_options;
  node_options.engine = options;
  node_options.feed_publisher = 1;
  node_options.feed_self = 0;
  serve::Node node0(overlay0, world.delays(), feed, data0, node_options);
  node_options.feed_self = 2;
  serve::Node node2(overlay2, world.delays(), feed, data2, node_options);
  serve::FeedPublisher publisher(world.traces(), nullptr,
                                 overlay0.member_count(), kSeed, feed,
                                 /*self=*/1, {0, 2});

  // DriveFeed's loop over two nodes: a feed that moves no frame for 64
  // rounds is wedged, and every 8th idle round nudges recovery.
  int idle = 0;
  while (!node0.feed_complete() || !node2.feed_complete()) {
    size_t moved = publisher.Pump();
    ASSERT_TRUE(publisher.status().ok()) << publisher.status().ToString();
    for (serve::Node* node : {&node0, &node2}) {
      Result<size_t> polled = node->PollFeed();
      ASSERT_TRUE(polled.ok()) << polled.status().ToString();
      moved += *polled;
    }
    if (moved > 0) {
      idle = 0;
      continue;
    }
    ASSERT_LT(++idle, 64) << "feed wedged";
    if (idle % 8 == 0) {
      ASSERT_TRUE(node0.RequestMissing().ok());
      ASSERT_TRUE(node2.RequestMissing().ok());
    }
  }
  ASSERT_TRUE(publisher.done());

  Result<serve::NodeReport> report0 = node0.Serve();
  Result<serve::NodeReport> report2 = node2.Serve();
  ASSERT_TRUE(report0.ok()) << report0.status().ToString();
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  ExpectIdentical(direct, report0->engine);
  ExpectIdentical(direct, report2->engine);
  EXPECT_EQ(feed.metrics().faults_injected, 3u);
  EXPECT_GT(report0->resubscribes, 0u);
  EXPECT_GT(report2->resubscribes, 0u);
  EXPECT_EQ(report0->resubscribes + report2->resubscribes,
            publisher.resubscribes_handled());
}

TEST(ServeTest, ResubscribeBudgetExhaustionIsPrecise) {
  serve::NodeOptions node_options;
  node_options.feed_publisher = 1;
  node_options.max_resubscribes = 1;
  IngestFixture fx(node_options);
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  // A gap spends the single budgeted resubscribe...
  ASSERT_TRUE(
      fx.FeedSeq(net::wire::Frame::SourceTick(0, 0, 0, 1.0), 5).ok());
  // ...so the next recovery attempt is the first unrecoverable fault.
  Status nudged = fx.node.RequestMissing();
  ASSERT_FALSE(nudged.ok());
  EXPECT_TRUE(nudged.IsIoError());
  EXPECT_NE(nudged.message().find("feed recovery budget exhausted"),
            std::string::npos)
      << nudged.message();
  EXPECT_NE(nudged.message().find("still missing seq 1"), std::string::npos)
      << nudged.message();
}

TEST(ServeTest, ResubscribeOutsideReplayWindowIsPrecise) {
  // A publisher with a zero replay window cannot rewind at all: any
  // resubscribe below the high-water mark is a precise unrecoverable
  // loss, not a silent hang.
  std::vector<trace::Trace> traces;
  traces.emplace_back("item0", std::vector<trace::Tick>{{0, 1.0},
                                                        {1000, 2.0}});
  net::InProcTransport feed(2, 32);
  serve::FeedPublisherOptions pub_options;
  pub_options.replay_window = 0;
  serve::FeedPublisher publisher(traces, nullptr, /*member_count=*/4,
                                 /*world_seed=*/77, feed, /*self=*/1, {0},
                                 pub_options);
  while (!publisher.done()) {
    ASSERT_GT(publisher.Pump(), 0u) << publisher.status().ToString();
  }
  ASSERT_TRUE(feed.Send(0, 1, net::wire::Frame::Resubscribe(0, 0)).ok());
  publisher.Pump();
  ASSERT_FALSE(publisher.status().ok());
  EXPECT_TRUE(publisher.status().IsIoError());
  EXPECT_NE(publisher.status().message().find("outside the replay window"),
            std::string::npos)
      << publisher.status().message();
}

TEST(ServeTest, ResubscribeFromUnknownPeerIsRejected) {
  std::vector<trace::Trace> traces;
  traces.emplace_back("item0", std::vector<trace::Tick>{{0, 1.0}});
  net::InProcTransport feed(4, 32);
  serve::FeedPublisher publisher(traces, nullptr, 4, 77, feed, /*self=*/1,
                                 {0});
  ASSERT_TRUE(feed.Send(3, 1, net::wire::Frame::Resubscribe(3, 0)).ok());
  publisher.Pump();
  ASSERT_FALSE(publisher.status().ok());
  EXPECT_NE(publisher.status().message().find("unknown peer 3"),
            std::string::npos)
      << publisher.status().message();
}

TEST(ServeTest, ResubscribeNamingAnotherNodeIsRejected) {
  // A resubscribe rewinds the cursor of the peer that sent it, so it
  // must name that peer: node 0 cannot speak for node 2.
  std::vector<trace::Trace> traces;
  traces.emplace_back("item0", std::vector<trace::Tick>{{0, 1.0}});
  net::InProcTransport feed(3, 32);
  serve::FeedPublisher publisher(traces, nullptr, 4, 77, feed, /*self=*/1,
                                 {0, 2});
  ASSERT_TRUE(feed.Send(0, 1, net::wire::Frame::Resubscribe(2, 0)).ok());
  publisher.Pump();
  ASSERT_FALSE(publisher.status().ok());
  EXPECT_TRUE(publisher.status().IsInvalidArgument());
  EXPECT_EQ(publisher.status().message(),
            "resubscribe for node 2 arrived from peer 0");
  EXPECT_EQ(publisher.resubscribes_handled(), 0u);
}

}  // namespace
}  // namespace d3t
