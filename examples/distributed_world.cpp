// Distributed mode: the live_node world as four REAL processes. Three
// repository nodes and a feed publisher each run in their own forked
// process, wired over loopback TCP by serve::RunCluster — one
// serve::FeedPublisher streams every node's feed (kHello, every source
// tick, a scripted failure/recovery, kShutdown) from one
// net::SocketTransport endpoint, each node replays its feed through a
// core::Engine, which publishes its EngineMetrics into the node's
// obs::Registry as "engine.*" entries, and ships the registry snapshot
// back to the collector as a kObsSnapshot stream. The parent runs the
// same three worlds as direct library calls, each into its own
// registry, and requires every one of those entries in the node's
// snapshot: doubles bit-for-bit, the per-member loss vector by length +
// FNV-1a digest.
//
//   $ ./build/examples/distributed_world
//   $ ./build/examples/distributed_world --chaos [--trace-out=PATH]
//
// Exit code 0 iff every node's metrics crossed two process boundaries
// and a real TCP stream and still match the direct run byte for byte.
// The CI distributed smoke job asserts exactly that.
//
// --chaos turns the run into a recovery drill: the publisher's feed
// crosses a scripted net::FaultInjectingTransport (drops, a reorder, a
// corrupted byte), node 1 SIGKILLs itself mid-feed and is restarted by
// the cluster supervisor (ClusterOptions::max_restarts), and every node
// runs with resubscribe recovery on — the restarted incarnation
// reconnects, resubscribes from seq 0 and re-ingests the whole feed.
// Exit 0 additionally requires that faults actually fired, that the
// crash actually restarted, and that the metrics are STILL byte-
// identical to the fault-free direct runs.
//
// Observability: kObsSnapshot is the one result channel. Every node
// process chunks its registry snapshot + retained flight-recorder
// trace into kObsSnapshot frames, the publisher ships its feed
// transport counters the same way, and the collector reassembles each
// stream byte-identically through a serve::ObsAccumulator. The summary
// table is rendered entirely from the reassembled snapshots;
// `--trace-out=PATH` merges the reassembled recorder rings into one
// Chrome-trace JSON (one process track per node).

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/cli.h"
#include "common/table.h"
#include "core/disseminator.h"
#include "core/engine.h"
#include "core/lela.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "net/fault_transport.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "serve/cluster.h"
#include "serve/node.h"
#include "sim/time.h"

namespace {

constexpr uint64_t kSeed = 4242;
constexpr size_t kNodes = 3;

// Same overlay construction (same RNG stream) in the direct run and the
// forked node — the two must agree on the world.
d3t::Result<d3t::core::Overlay> BuildNodeOverlay(
    const d3t::exp::World& world, size_t source) {
  d3t::core::LelaOptions lela;
  lela.coop_degree = 3;
  d3t::Rng rng = d3t::Rng(kSeed).Fork(4);
  auto built = d3t::core::BuildOverlay(world.delays(source),
                                       world.OwnedInterests(source),
                                       world.workload().items, lela, rng);
  if (!built.ok()) return built.status();
  return std::move(built).value().overlay;
}

// Chunks a registry snapshot (plus the recorder's retained trace, when
// given) into kObsSnapshot frames and sends them to the collector,
// honoring backpressure: a stall is a pause, never a drop.
d3t::Status ShipObs(d3t::serve::ProcessContext& ctx,
                    const d3t::obs::Registry& registry,
                    const d3t::obs::Recorder* recorder) {
  for (const d3t::net::wire::Frame& frame : d3t::serve::MakeObsSnapshotFrames(
           ctx.self, registry.TakeSnapshot(), recorder)) {
    for (;;) {
      d3t::Status sent = ctx.transport.Send(ctx.self, ctx.collector, frame);
      if (sent.ok()) break;
      if (!sent.IsCapacityExhausted()) return sent;
      d3t::Status waited = ctx.transport.WaitIo(10000);
      if (!waited.ok()) return waited;
    }
  }
  return d3t::Status::Ok();
}

// Body of one repository-node process: ingest the socket feed (the
// scenario script arrives on it as frames), serve the engine, report
// back. Under chaos the node runs resubscribe recovery against the
// publisher, and node 1's first incarnation SIGKILLs itself mid-feed to
// exercise the supervisor restart path.
d3t::Status RunNode(d3t::serve::ProcessContext& ctx,
                    const d3t::exp::World& world,
                    const d3t::core::EngineOptions& engine_options,
                    bool chaos) {
  auto overlay = BuildNodeOverlay(world, ctx.self);
  if (!overlay.ok()) return overlay.status();
  d3t::net::InProcTransport data(overlay->member_count(), 64);
  // The node's own observability, shipped to the collector at the end
  // as kObsSnapshot frames. The ring is kept small on purpose: 4096
  // retained events chunk into a few hundred wire frames, and the
  // recorded/dropped totals still describe the whole run.
  d3t::obs::Registry registry;
  d3t::obs::Recorder recorder(4096);
  data.set_recorder(&recorder);
  d3t::serve::NodeOptions options;
  options.engine = engine_options;
  options.engine.recorder = &recorder;
  options.engine.registry = &registry;
  options.feed_self = ctx.self;
  if (chaos) options.feed_publisher = kNodes;
  d3t::serve::Node node(*overlay, world.delays(ctx.self), ctx.transport,
                        data, options);
  if (chaos) {
    // Backchannel for kResubscribe frames (the publisher only dials
    // outward; recovery needs the reverse direction too).
    d3t::Status connected =
        ctx.transport.ConnectPeer(kNodes, ctx.ports[kNodes]);
    if (!connected.ok()) return connected;
    if (ctx.incarnation > 0) {
      // A restarted incarnation has an empty cursor and no inbound
      // frames to expose the gap — announce ourselves and ask for the
      // feed from seq 0.
      d3t::Status asked = node.RequestMissing();
      if (!asked.ok()) return asked;
    }
  }

  bool feed_started = false;
  int idle = 0;
  while (!node.feed_complete()) {
    auto polled = node.PollFeed();
    if (!polled.ok()) return polled.status();
    // The scripted crash, checked AFTER polling: one PollFeed can
    // drain an arbitrarily large buffered prefix (even the whole
    // feed), so a pre-poll check could miss the threshold entirely.
    if (chaos && ctx.self == 1 && ctx.incarnation == 0 &&
        node.feed_next_seq() >= 200) {
      kill(getpid(), SIGKILL);  // supervisor restarts us
    }
    if (*polled > 0) {
      feed_started = true;
      idle = 0;
      continue;
    }
    d3t::Status pumped = ctx.transport.Pump();
    if (!pumped.ok()) return pumped;
    if (feed_started && ctx.transport.drained()) {
      // Publisher's FIN landed on a frame boundary but before the
      // kShutdown — a vanished peer, not a completed feed.
      return d3t::Status::IoError("feed half-closed before shutdown");
    }
    if (chaos) {
      // Short waits; a wait timeout is pacing, not failure. Every few
      // idle rounds re-ask for the missing tail — the resubscribe
      // budget bounds this, so a truly dead feed ends in a precise
      // error instead of a hang.
      (void)ctx.transport.WaitIo(250);
      if (++idle % 4 == 0) {
        d3t::Status nudged = node.RequestMissing();
        if (!nudged.ok()) return nudged;
      }
    } else {
      d3t::Status waited = ctx.transport.WaitIo(20000);
      if (!waited.ok()) return waited;
    }
  }

  // Serve() publishes the engine's results into the registry; fold the
  // transports in under their conventional prefixes, then ship it all.
  auto report = node.Serve();
  if (!report.ok()) return report.status();
  d3t::net::PublishTransportMetrics(registry, "feed",
                                    ctx.transport.metrics());
  d3t::net::PublishTransportMetrics(registry, "data", report->data);
  return ShipObs(ctx, registry, &recorder);
}

// The publisher's scripted damage: two drops and a reorder against
// node 0, a corrupted byte and a drop against node 2 — all mid-feed,
// far from any shutdown frame, so every fault is recoverable. Node 1
// is left to the supervisor crash drill.
d3t::Result<d3t::net::FaultScript> ChaosScript() {
  using d3t::net::FaultOp;
  constexpr uint32_t kAny = d3t::net::kAnyPeer;
  return d3t::net::FaultScript::Create(
      {FaultOp{400, 0 /*drop*/, kAny, 0, 0},
       FaultOp{900, 3 /*delay*/, kAny, 2, 6},
       FaultOp{1500, 2 /*corrupt*/, kAny, 0, d3t::net::kAnyArg},
       FaultOp{2200, 0 /*drop*/, kAny, 2, 0},
       FaultOp{3000, 0 /*drop*/, kAny, 0, 0}});
}

// Body of the feed-publisher process: one FeedPublisher serves all
// three nodes over one socket endpoint, routing each resubscribe by the
// node that sent it. Every source's delay model covers the same
// repositories plus one source, so one kHello member count fits every
// node. Under chaos the frames cross a FaultInjectingTransport, and
// after the last frame the publisher lingers, serving resubscribes (a
// restarted node rewinds its cursor and undoes done()), until the feed
// stays quiet for a grace period.
d3t::Status RunPublisher(d3t::serve::ProcessContext& ctx,
                         const d3t::exp::World& world,
                         const d3t::core::Scenario& scenario, bool chaos) {
  for (d3t::net::PeerId node = 0; node < kNodes; ++node) {
    d3t::Status connected = ctx.transport.ConnectPeer(node, ctx.ports[node]);
    if (!connected.ok()) return connected;
  }
  d3t::net::FaultScript script;
  if (chaos) {
    auto built = ChaosScript();
    if (!built.ok()) return built.status();
    script = *built;
  }
  d3t::net::FaultInjectingTransport faulty(ctx.transport, script, kSeed);
  d3t::net::Transport& wire =
      chaos ? static_cast<d3t::net::Transport&>(faulty) : ctx.transport;
  // The replay window is unbounded — loopback buffering keeps whole
  // feeds in flight, so a restarted node legitimately rewinds all the
  // way to seq 0.
  d3t::serve::FeedPublisherOptions feed_options;
  feed_options.replay_window = UINT32_MAX;
  d3t::serve::FeedPublisher feed(world.traces(), &scenario,
                                 world.delays().member_count(), kSeed, wire,
                                 ctx.self, {0, 1, 2}, feed_options);
  uint64_t seen_resubs = 0;
  int quiet = 0;
  for (;;) {
    const size_t sent = feed.Pump();
    if (!feed.status().ok()) return feed.status();
    d3t::Status pumped = ctx.transport.Pump();
    if (!pumped.ok()) return pumped;
    if (!chaos) {
      if (feed.done()) break;
      if (sent == 0) {
        d3t::Status waited = ctx.transport.WaitIo(20000);
        if (!waited.ok()) return waited;
      }
      continue;
    }
    const uint64_t resubs = feed.resubscribes_handled();
    if (feed.done() && sent == 0 && resubs == seen_resubs) {
      // Done AND quiet. A crashed node's replacement may still be on
      // its way to resubscribing, so hold the feed open for a grace
      // period before declaring the cluster fed. (WaitIo's timeout is
      // pacing here, not failure.)
      if (++quiet >= 20) break;
      (void)ctx.transport.WaitIo(250);
      continue;
    }
    quiet = 0;
    seen_resubs = resubs;
    if (sent == 0) (void)ctx.transport.WaitIo(250);
  }
  // Report the feed side (under chaos, the fault wrapper's counters
  // merged over the socket endpoint's own) so the collector can render
  // the feed row and check that the faults fired.
  d3t::obs::Registry registry;
  d3t::net::PublishTransportMetrics(registry, "feed", wire.metrics());
  d3t::Status reported = ShipObs(ctx, registry, /*recorder=*/nullptr);
  if (!reported.ok()) return reported;
  for (d3t::net::PeerId node = 0; node < kNodes; ++node) {
    d3t::Status closed = ctx.transport.CloseSend(node);
    if (!closed.ok()) return closed;
  }
  return d3t::Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  d3t::CommandLine cli;
  cli.AddFlag("chaos", "false",
              "scripted faults + one supervised crash with recovery");
  cli.AddFlag("trace-out", "",
              "write the merged per-node Chrome-trace JSON to this path");
  if (auto parsed = cli.Parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 cli.Help(argv[0]).c_str());
    return 1;
  }
  const bool chaos = cli.GetBool("chaos");
  const std::string trace_out = cli.GetString("trace-out");
  // The live_node world: 12 repositories, three sources, six items
  // round-robin, one scripted mid-run outage.
  d3t::exp::NetworkConfig network;
  network.repositories = 12;
  network.routers = 48;
  network.source_count = 3;
  d3t::exp::WorkloadConfig workload;
  workload.items = 6;
  workload.ticks = 400;
  auto session = d3t::exp::SessionBuilder()
                     .SetNetwork(network)
                     .SetWorkload(workload)
                     .SetSeed(kSeed)
                     .Build();
  if (!session.ok()) {
    std::fprintf(stderr, "session: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  const d3t::exp::World& world = session->world();
  auto scenario = d3t::exp::ScenarioBuilder()
                      .FailRepo(d3t::sim::Seconds(60), 4)
                      .RecoverAt(d3t::sim::Seconds(180))
                      .Build();
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  d3t::core::EngineOptions engine_options;
  engine_options.repair_delay = d3t::sim::Millis(500);

  // Reference runs: the same three worlds as plain library calls, no
  // process boundary anywhere, each publishing into its own registry.
  // (ThreadPool use is scoped inside world building above, so the forks
  // below start thread-free.)
  std::vector<d3t::obs::Registry> direct(kNodes);
  for (size_t source = 0; source < kNodes; ++source) {
    auto overlay = BuildNodeOverlay(world, source);
    if (!overlay.ok()) {
      std::fprintf(stderr, "overlay: %s\n",
                   overlay.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<d3t::core::Disseminator> policy =
        d3t::core::MakeDisseminator("distributed");
    d3t::core::EngineOptions direct_options = engine_options;
    direct_options.registry = &direct[source];
    d3t::core::Engine engine(*overlay, world.delays(source), world.traces(),
                             *policy, direct_options,
                             /*change_timelines=*/nullptr, &*scenario);
    if (auto run = engine.Run(); !run.ok()) {
      std::fprintf(stderr, "direct run: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
  }

  // The cluster: processes 0..2 are repository nodes, process 3 the
  // publisher; the parent is the collector.
  std::vector<d3t::serve::ProcessBody> bodies;
  for (size_t node = 0; node < kNodes; ++node) {
    bodies.push_back([&](d3t::serve::ProcessContext& ctx) {
      d3t::Status run = RunNode(ctx, world, engine_options, chaos);
      if (!run.ok()) {
        std::fprintf(stderr, "node %u (incarnation %d): %s\n", ctx.self,
                     ctx.incarnation, run.ToString().c_str());
      }
      return run;
    });
  }
  bodies.push_back([&](d3t::serve::ProcessContext& ctx) {
    d3t::Status run = RunPublisher(ctx, world, *scenario, chaos);
    if (!run.ok()) {
      std::fprintf(stderr, "publisher: %s\n", run.ToString().c_str());
    }
    return run;
  });
  d3t::obs::Registry cluster_registry;
  d3t::serve::ClusterOptions cluster_options;
  cluster_options.timeout_ms = 120000;
  cluster_options.registry = &cluster_registry;
  if (chaos) cluster_options.max_restarts = 2;
  auto cluster = d3t::serve::RunCluster(bodies, cluster_options);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n",
                 cluster.status().ToString().c_str());
    return 1;
  }
  d3t::Status first_error = cluster->FirstError();
  if (!first_error.ok()) {
    std::fprintf(stderr, "cluster: %s\n", first_error.ToString().c_str());
    return 1;
  }

  // Reassemble what the children shipped: one kObsSnapshot chunk stream
  // per process — each node's engine results, transports and trace
  // ring, then the publisher's feed counters.
  std::vector<d3t::serve::ObsAccumulator> obs_streams(kNodes + 1);
  for (size_t i = 0; i < cluster->frames.size(); ++i) {
    const d3t::net::wire::Frame& frame = cluster->frames[i];
    const d3t::net::PeerId source = cluster->frame_sources[i];
    if (frame.type != d3t::net::wire::FrameType::kObsSnapshot) continue;
    d3t::Status accepted = obs_streams[source].Accept(frame.u.obs_snapshot);
    if (!accepted.ok()) {
      std::fprintf(stderr, "obs stream from process %u: %s\n", source,
                   accepted.ToString().c_str());
      return 1;
    }
  }
  for (size_t process = 0; process <= kNodes; ++process) {
    if (!obs_streams[process].complete()) {
      std::fprintf(stderr, "process %zu shipped an incomplete obs stream\n",
                   process);
      return 1;
    }
  }

  bool all_identical = true;
  std::vector<d3t::obs::NodeSummaryRow> rows;
  std::vector<std::string> identities(kNodes);
  for (size_t node = 0; node < kNodes; ++node) {
    d3t::Status match =
        d3t::obs::EntriesMatch(direct[node], obs_streams[node].snapshot());
    all_identical = all_identical && match.ok();
    identities[node] = match.ok() ? "yes" : match.ToString();
    rows.push_back(
        {"node" + std::to_string(node), &obs_streams[node].snapshot(),
         {d3t::TablePrinter::Int(static_cast<int64_t>(
              cluster->restarts[node])),
          identities[node]}});
  }
  const d3t::obs::Snapshot& feed = obs_streams[kNodes].snapshot();
  rows.push_back({"feed", &feed, {"-", "-"}});
  d3t::obs::NodeSummaryTable(rows, {"restarts", "identical"}).Print();

  if (!trace_out.empty()) {
    std::vector<d3t::obs::TraceStream> streams;
    for (size_t node = 0; node < kNodes; ++node) {
      streams.push_back({static_cast<uint32_t>(node),
                         "node" + std::to_string(node),
                         d3t::obs::CanonicalTrace(obs_streams[node].trace())});
    }
    if (auto written =
            d3t::obs::WriteFile(trace_out, d3t::obs::ChromeTraceJson(streams));
        !written.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_out.c_str());
  }

  // Chaos mode additionally requires the chaos to have HAPPENED: the
  // script fired, the crash restarted, and recovery still converged to
  // byte-identity.
  bool chaos_ok = true;
  if (chaos) {
    const uint64_t faults =
        d3t::obs::SnapshotCounter(feed, "feed.faults_injected");
    chaos_ok = faults > 0 && cluster->restarts[1] >= 1;
    if (!chaos_ok) {
      std::fprintf(stderr,
                   "chaos drill incomplete: faults_injected=%llu "
                   "restarts[1]=%d\n",
                   static_cast<unsigned long long>(faults),
                   cluster->restarts[1]);
    }
  }
  const uint64_t frames_collected = d3t::obs::SnapshotCounter(
      cluster_registry.TakeSnapshot(), "cluster.frames_collected");
  std::printf(
      "\n%zu processes over loopback TCP%s, %llu frames collected, "
      "byte-identical to direct runs: %s\n",
      kNodes + 1,
      chaos ? " under scripted faults + one supervised crash" : "",
      static_cast<unsigned long long>(frames_collected),
      all_identical ? "yes" : "NO");
  return all_identical && chaos_ok ? 0 : 1;
}
