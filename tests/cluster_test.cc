// serve::RunCluster: real forked processes over loopback TCP. The
// byte-identity acceptance pin — a world served across a process
// boundary ships home, as a kObsSnapshot stream, every "engine.*" entry
// the direct run publishes, bit for bit — plus
// the failure taxonomy: a SIGKILLed child is reported as exactly that,
// a publisher feeding a killed node observes a precise IoError (not a
// hang, not a silent success), and a wedged child is killed at the
// deadline with the run's wall clock still bounded.

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/disseminator.h"
#include "core/engine.h"
#include "core/lela.h"
#include "exp/session.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "serve/cluster.h"
#include "serve/node.h"
#include "gtest/gtest.h"

namespace d3t::serve {
namespace {

constexpr uint64_t kSeed = 977;

net::wire::Frame TestUpdate(uint32_t item) {
  return net::wire::Frame::Update(0, 1, /*arrival_us=*/1000 * item, item,
                                  static_cast<double>(item), 0.0);
}

// Sends every frame to the collector, honoring backpressure.
Status SendAll(ProcessContext& ctx,
               const std::vector<net::wire::Frame>& frames) {
  for (const net::wire::Frame& frame : frames) {
    for (;;) {
      Status sent = ctx.transport.Send(ctx.self, ctx.collector, frame);
      if (sent.ok()) break;
      if (!sent.IsCapacityExhausted()) return sent;
      Status waited = ctx.transport.WaitIo(10000);
      if (!waited.ok()) return waited;
    }
  }
  return Status::Ok();
}

TEST(ClusterTest, ChildrenReportFramesAndExitCleanly) {
  std::vector<ProcessBody> bodies;
  for (uint32_t node = 0; node < 2; ++node) {
    bodies.push_back([node](ProcessContext& ctx) {
      return ctx.transport.Send(ctx.self, ctx.collector,
                                net::wire::Frame::Shutdown(node, node + 1));
    });
  }
  auto report = RunCluster(bodies);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->FirstError().ok()) << report->FirstError().ToString();
  ASSERT_EQ(report->exits.size(), 2u);
  ASSERT_EQ(report->frames.size(), 2u);
  // Arrival order across children is scheduling-dependent; match each
  // frame to its child and check the pair.
  ASSERT_EQ(report->frame_sources.size(), 2u);
  for (size_t i = 0; i < report->frames.size(); ++i) {
    ASSERT_EQ(report->frames[i].type, net::wire::FrameType::kShutdown);
    EXPECT_EQ(report->frames[i].u.shutdown.node, report->frame_sources[i]);
    EXPECT_EQ(report->frames[i].u.shutdown.seq,
              report->frame_sources[i] + 1u);
  }
}

TEST(ClusterTest, BodyErrorSurfacesAsNonzeroExit) {
  std::vector<ProcessBody> bodies;
  bodies.push_back([](ProcessContext&) {
    return Status::InvalidArgument("deliberate");
  });
  auto report = RunCluster(bodies);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  Status exit0 = report->exits[0];
  ASSERT_TRUE(exit0.IsIoError()) << exit0.ToString();
  EXPECT_NE(exit0.message().find("node 0"), std::string::npos);
  EXPECT_NE(exit0.message().find("code 2"), std::string::npos);
  EXPECT_FALSE(report->FirstError().ok());
}

TEST(ClusterTest, SigkilledChildIsReportedAsKilledBySignal) {
  std::vector<ProcessBody> bodies;
  bodies.push_back([](ProcessContext&) {
    kill(getpid(), SIGKILL);
    return Status::Ok();  // unreachable
  });
  bodies.push_back([](ProcessContext& ctx) {
    return ctx.transport.Send(ctx.self, ctx.collector,
                              net::wire::Frame::Shutdown(1));
  });
  const int64_t before = net::MonotonicMillis();
  auto report = RunCluster(bodies);
  const int64_t elapsed = net::MonotonicMillis() - before;
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  Status killed = report->exits[0];
  ASSERT_TRUE(killed.IsIoError()) << killed.ToString();
  EXPECT_NE(killed.message().find("killed by signal 9"), std::string::npos)
      << killed.ToString();
  EXPECT_TRUE(report->exits[1].ok()) << report->exits[1].ToString();
  // The survivor's frame still arrived; the dead child is an error, not
  // a lost run.
  ASSERT_EQ(report->frames.size(), 1u);
  EXPECT_EQ(report->frame_sources[0], 1u);
  EXPECT_LT(elapsed, 30000);  // no hang: well under the default budget
}

// The ISSUE's robustness pin: kill a node process mid-feed and the
// publisher must observe a PRECISE IoError (reset / broken pipe) within
// the deadline — the publisher body returns Ok ONLY if it saw exactly
// that, so exits[1].ok() below proves the observation.
TEST(ClusterTest, KilledNodeMidFeedGivesPublisherPreciseIoError) {
  std::vector<ProcessBody> bodies;
  // Process 0, the doomed node: ingest a few frames, then die hard with
  // the stream still flowing.
  bodies.push_back([](ProcessContext& ctx) {
    uint64_t received = 0;
    const int64_t deadline = net::MonotonicMillis() + 20000;
    net::wire::Frame frame;
    while (received < 10 && net::MonotonicMillis() < deadline) {
      if (ctx.transport.Poll(ctx.self, &frame, nullptr)) {
        ++received;
        continue;
      }
      (void)ctx.transport.WaitIo(50);
    }
    kill(getpid(), SIGKILL);
    return Status::Ok();  // unreachable
  });
  // Process 1, the publisher: stream updates at node 0 forever; succeed
  // IFF the node's death surfaces as a precise reset within bounds.
  bodies.push_back([](ProcessContext& ctx) {
    Status connected = ctx.transport.ConnectPeer(0, ctx.ports[0]);
    if (!connected.ok()) return connected;
    const int64_t deadline = net::MonotonicMillis() + 20000;
    uint32_t item = 0;
    while (net::MonotonicMillis() < deadline) {
      Status sent = ctx.transport.Send(ctx.self, 0, TestUpdate(item++));
      if (sent.ok()) continue;
      if (sent.IsCapacityExhausted()) {
        (void)ctx.transport.WaitIo(50);
        Status pumped = ctx.transport.Pump();
        if (pumped.ok()) continue;
        sent = pumped;
      }
      const bool precise =
          sent.IsIoError() &&
          (sent.message().find("reset") != std::string::npos ||
           sent.message().find("broken pipe") != std::string::npos);
      if (precise) return Status::Ok();
      return sent.ok() ? Status::Internal("non-error escaped") : sent;
    }
    return Status::IoError("publisher never observed the node's death");
  });
  const int64_t before = net::MonotonicMillis();
  auto report = RunCluster(bodies);
  const int64_t elapsed = net::MonotonicMillis() - before;
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->exits[0].message().find("killed by signal 9"),
            std::string::npos)
      << report->exits[0].ToString();
  EXPECT_TRUE(report->exits[1].ok()) << report->exits[1].ToString();
  EXPECT_LT(elapsed, 30000);
  // A dead node is never folded into a clean aggregate.
  EXPECT_FALSE(report->FirstError().ok());
}

TEST(ClusterTest, SupervisorRestartsCrashedChildWithinBudget) {
  std::vector<ProcessBody> bodies;
  // Incarnation 0 dies hard before reporting; incarnation 1 reports.
  bodies.push_back([](ProcessContext& ctx) {
    if (ctx.incarnation == 0) {
      kill(getpid(), SIGKILL);
    }
    return ctx.transport.Send(
        ctx.self, ctx.collector,
        net::wire::Frame::Shutdown(static_cast<uint32_t>(ctx.incarnation), 1));
  });
  ClusterOptions options;
  options.max_restarts = 1;
  auto report = RunCluster(bodies, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->restarts.size(), 1u);
  EXPECT_EQ(report->restarts[0], 1);
  // The crash was absorbed: the final outcome is clean and the second
  // incarnation's frame arrived.
  EXPECT_TRUE(report->exits[0].ok()) << report->exits[0].ToString();
  ASSERT_EQ(report->frames.size(), 1u);
  EXPECT_EQ(report->frames[0].u.shutdown.node, 1u);  // incarnation 1
}

TEST(ClusterTest, SupervisorGivesUpPastTheRestartBudget) {
  std::vector<ProcessBody> bodies;
  bodies.push_back([](ProcessContext&) {
    kill(getpid(), SIGKILL);  // every incarnation dies
    return Status::Ok();      // unreachable
  });
  ClusterOptions options;
  options.max_restarts = 2;
  const int64_t before = net::MonotonicMillis();
  auto report = RunCluster(bodies, options);
  const int64_t elapsed = net::MonotonicMillis() - before;
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->restarts[0], 2);
  // Budget spent: the last crash is the reported outcome, precisely.
  Status final_exit = report->exits[0];
  ASSERT_TRUE(final_exit.IsIoError()) << final_exit.ToString();
  EXPECT_NE(final_exit.message().find("killed by signal 9"),
            std::string::npos)
      << final_exit.ToString();
  EXPECT_FALSE(report->FirstError().ok());
  EXPECT_LT(elapsed, 15000);
}

TEST(ClusterTest, WedgedChildIsKilledAtTheDeadline) {
  std::vector<ProcessBody> bodies;
  bodies.push_back([](ProcessContext&) {
    for (;;) net::SleepMillis(1000);
    return Status::Ok();  // unreachable
  });
  ClusterOptions options;
  options.timeout_ms = 1000;
  const int64_t before = net::MonotonicMillis();
  auto report = RunCluster(bodies, options);
  const int64_t elapsed = net::MonotonicMillis() - before;
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  Status wedged = report->exits[0];
  ASSERT_TRUE(wedged.IsIoError()) << wedged.ToString();
  EXPECT_NE(wedged.message().find("wedged"), std::string::npos)
      << wedged.ToString();
  EXPECT_GE(elapsed, 1000);   // the child really got its budget
  EXPECT_LT(elapsed, 15000);  // and the run stayed bounded after it
}

// ---------------------------------------------------------------------------
// The acceptance pin: a world served across a real process boundary and
// a real TCP stream reproduces the direct run's EngineMetrics byte for
// byte. The node ships its registry home as a kObsSnapshot stream; every
// "engine.*" entry the direct run publishes must be in it with the same
// bits (doubles as raw bits, the per-member loss vector as length +
// FNV-1a digest).

d3t::Result<core::Overlay> BuildWorldOverlay(const exp::World& world) {
  core::LelaOptions lela;
  lela.coop_degree = 2;
  Rng rng = Rng(kSeed).Fork(4);
  auto built =
      core::BuildOverlay(world.delays(0), world.OwnedInterests(0),
                         world.workload().items, lela, rng);
  if (!built.ok()) return built.status();
  return std::move(built).value().overlay;
}

TEST(ClusterTest, ProcessBoundaryPreservesEngineMetricsByteForByte) {
  exp::NetworkConfig network;
  network.repositories = 8;
  network.routers = 32;
  exp::WorkloadConfig workload;
  workload.items = 4;
  workload.ticks = 120;
  auto session = exp::SessionBuilder()
                     .SetNetwork(network)
                     .SetWorkload(workload)
                     .SetSeed(kSeed)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const exp::World& world = session->world();
  core::EngineOptions engine_options;

  // Direct run: one library call, no wire, no processes, publishing into
  // its own registry.
  auto direct_overlay = BuildWorldOverlay(world);
  ASSERT_TRUE(direct_overlay.ok()) << direct_overlay.status().ToString();
  std::unique_ptr<core::Disseminator> policy =
      core::MakeDisseminator("distributed");
  obs::Registry direct_registry;
  core::EngineOptions direct_options = engine_options;
  direct_options.registry = &direct_registry;
  core::Engine direct(*direct_overlay, world.delays(0), world.traces(),
                      *policy, direct_options,
                      /*change_timelines=*/nullptr, /*scenario=*/nullptr);
  auto direct_metrics = direct.Run();
  ASSERT_TRUE(direct_metrics.ok()) << direct_metrics.status().ToString();

  // Cluster run: process 0 is the node, process 1 the publisher.
  std::vector<ProcessBody> bodies;
  bodies.push_back([&world, &engine_options](ProcessContext& ctx) {
    auto overlay = BuildWorldOverlay(world);
    if (!overlay.ok()) return overlay.status();
    net::InProcTransport data(overlay->member_count(), 64);
    obs::Registry registry;
    NodeOptions options;
    options.engine = engine_options;
    options.engine.registry = &registry;
    options.feed_self = ctx.self;
    Node node(*overlay, world.delays(0), ctx.transport, data, options);
    const int64_t deadline = net::MonotonicMillis() + 30000;
    while (!node.feed_complete()) {
      if (net::MonotonicMillis() >= deadline) {
        return Status::IoError("feed did not complete in time");
      }
      auto polled = node.PollFeed();
      if (!polled.ok()) return polled.status();
      if (*polled > 0) continue;
      Status pumped = ctx.transport.Pump();
      if (!pumped.ok()) return pumped;
      (void)ctx.transport.WaitIo(100);
    }
    auto node_report = node.Serve();
    if (!node_report.ok()) return node_report.status();
    return SendAll(ctx,
                   MakeObsSnapshotFrames(ctx.self, registry.TakeSnapshot()));
  });
  bodies.push_back([&world](ProcessContext& ctx) {
    Status connected = ctx.transport.ConnectPeer(0, ctx.ports[0]);
    if (!connected.ok()) return connected;
    auto overlay = BuildWorldOverlay(world);
    if (!overlay.ok()) return overlay.status();
    FeedPublisher publisher(world.traces(), /*scenario=*/nullptr,
                            overlay->member_count(), kSeed, ctx.transport,
                            ctx.self, /*subscribers=*/{0});
    const int64_t deadline = net::MonotonicMillis() + 30000;
    while (!publisher.done()) {
      if (net::MonotonicMillis() >= deadline) {
        return Status::IoError("feed did not drain in time");
      }
      const size_t sent = publisher.Pump();
      if (!publisher.status().ok()) return publisher.status();
      Status pumped = ctx.transport.Pump();
      if (!pumped.ok()) return pumped;
      if (sent == 0) (void)ctx.transport.WaitIo(100);
    }
    return ctx.transport.CloseSend(0);
  });
  auto cluster = RunCluster(bodies);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE(cluster->FirstError().ok()) << cluster->FirstError().ToString();

  ObsAccumulator node0;
  for (size_t i = 0; i < cluster->frames.size(); ++i) {
    if (cluster->frames[i].type != net::wire::FrameType::kObsSnapshot ||
        cluster->frame_sources[i] != 0) {
      continue;
    }
    Status accepted = node0.Accept(cluster->frames[i].u.obs_snapshot);
    ASSERT_TRUE(accepted.ok()) << accepted.ToString();
  }
  ASSERT_TRUE(node0.complete()) << "node 0 never shipped its snapshot";
  const obs::Snapshot& served = node0.snapshot();
  Status identical = obs::EntriesMatch(direct_registry, served);
  EXPECT_TRUE(identical.ok()) << identical.ToString();
  // The real acceptance content, spelled out: nonzero work happened and
  // crossed the boundary unchanged.
  EXPECT_GT(direct_metrics->messages, 0u);
  EXPECT_EQ(obs::SnapshotCounter(served, "engine.messages"),
            direct_metrics->messages);
  EXPECT_EQ(obs::SnapshotCounter(served, "engine.events"),
            direct_metrics->events);

  // The check has teeth: one drifted expected entry is named.
  direct_registry.Add(direct_registry.Counter("engine.checks"), 1);
  Status drifted = obs::EntriesMatch(direct_registry, served);
  ASSERT_FALSE(drifted.ok());
  EXPECT_NE(drifted.message().find("engine.checks"), std::string::npos)
      << drifted.ToString();
}

// ---------------------------------------------------------------------------
// kObsSnapshot over a real process boundary: the child's registry
// snapshot and flight-recorder ring, chunked into wire frames and
// shipped over loopback TCP, reassemble byte-identically at the
// collector.

// Deterministic obs fixture built identically by the child (who ships
// it) and the parent (who expects it): enough metrics to span multiple
// entry chunks, a multi-bucket histogram, and a recorder ring that
// genuinely wrapped (capacity 8, 11 records) so the dropped count
// crosses the wire too.
void FillTestObs(obs::Registry& registry, obs::Recorder& recorder) {
  const obs::MetricId frames = registry.Counter("test.frames");
  const obs::MetricId loss = registry.Gauge("test.loss");
  const obs::MetricId span = registry.Histogram("test.span");
  for (int i = 0; i < 7; ++i) {
    registry.Add(registry.Counter("test.c" + std::to_string(i)),
                 static_cast<uint64_t>(i) * 3);
  }
  registry.Add(frames, 41);
  registry.Set(loss, 0.125);
  registry.Observe(span, 1);
  registry.Observe(span, 3);
  registry.Observe(span, 100);
  recorder.set_now(5);
  for (uint32_t i = 0; i < 11; ++i) {
    recorder.Record(obs::TraceEventKind::kDelivery, i,
                    static_cast<uint64_t>(i) * 10,
                    static_cast<uint64_t>(i) * 100);
  }
}

TEST(ClusterTest, ObsSnapshotRoundTripsThroughRealClusterByteForByte) {
  obs::Registry expected_registry;
  obs::Recorder expected_recorder(8);
  FillTestObs(expected_registry, expected_recorder);
  const obs::Snapshot expected = expected_registry.TakeSnapshot();

  std::vector<ProcessBody> bodies;
  bodies.push_back([](ProcessContext& ctx) {
    obs::Registry registry;
    obs::Recorder recorder(8);
    FillTestObs(registry, recorder);
    return SendAll(ctx, MakeObsSnapshotFrames(
                            ctx.self, registry.TakeSnapshot(), &recorder));
  });
  auto cluster = RunCluster(bodies);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE(cluster->FirstError().ok()) << cluster->FirstError().ToString();

  ObsAccumulator accumulator;
  size_t obs_frames = 0;
  for (size_t i = 0; i < cluster->frames.size(); ++i) {
    const net::wire::Frame& frame = cluster->frames[i];
    if (frame.type != net::wire::FrameType::kObsSnapshot) continue;
    EXPECT_EQ(cluster->frame_sources[i], 0u);
    ++obs_frames;
    Status accepted = accumulator.Accept(frame.u.obs_snapshot);
    ASSERT_TRUE(accepted.ok()) << accepted.ToString();
  }
  // Header + at least two entry chunks + at least two trace chunks: the
  // fixture was sized to force real chunking.
  EXPECT_GE(obs_frames, 5u);
  ASSERT_TRUE(accumulator.complete());

  // Byte-identical reassembly: the snapshot via the bytewise comparator,
  // every retained trace event via memcmp, and the ring's bookkeeping
  // (11 recorded, 3 dropped) intact.
  EXPECT_TRUE(obs::SnapshotsIdentical(accumulator.snapshot(), expected));
  EXPECT_EQ(accumulator.recorded(), expected_recorder.recorded());
  EXPECT_EQ(accumulator.dropped(), expected_recorder.dropped());
  EXPECT_EQ(accumulator.dropped(), 3u);
  ASSERT_EQ(accumulator.trace().size(), expected_recorder.size());
  for (size_t i = 0; i < accumulator.trace().size(); ++i) {
    EXPECT_EQ(std::memcmp(&accumulator.trace()[i], &expected_recorder.at(i),
                          sizeof(obs::TraceEvent)),
              0)
        << "trace event " << i << " drifted through the wire";
  }
}

}  // namespace
}  // namespace d3t::serve
