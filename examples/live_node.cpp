// Live serving mode: the paper's cooperating repositories as long-lived
// nodes instead of library calls. A three-source world is served by
// three nodes; each node learns its world over a framed feed (a
// kHello handshake, every source tick as a kSourceTick frame, a
// scripted failure/recovery as kScenarioOp frames, kShutdown), then
// replays it through a core::Engine whose every inter-member push
// crosses an in-process data transport as checksummed kUpdate frames.
// A direct library-call run of the same world runs alongside; the
// point of the exercise is the last column — the wire-routed node
// reproduces the direct run's metrics byte for byte, while the
// transport counters show the traffic that crossed the wire to get
// there.
//
//   $ ./build/examples/live_node [--trace-out=PATH]
//
// `--trace-out=live_node.trace.json` additionally dumps every node's
// flight-recorder ring as one merged Chrome-trace JSON (open in
// chrome://tracing or Perfetto; one process track per node).
//
// The feed ring is deliberately tiny (12 frames), so the publisher
// genuinely stalls on backpressure and resumes — the stalls column
// counts those pauses. The feed also crosses a scripted
// net::FaultInjectingTransport (drops, a duplicate, a corrupted byte,
// a reorder, a connection reset) with resubscribe recovery on: the
// faultsInj/decodeErr/reconn columns show the damage, the identical
// column shows it cost nothing.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "core/disseminator.h"
#include "core/engine.h"
#include "core/lela.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "net/fault_transport.h"
#include "net/transport.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "serve/node.h"
#include "sim/time.h"

namespace {

constexpr uint64_t kSeed = 4242;

// The overlay a run serves: LeLA over the source's delay model and the
// interests it owns. Built identically (same RNG stream) for the direct
// run and the served node — a scenario repairs overlays in place, so
// each run owns one.
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

// Scripted chaos for one node's feed: two drops, a duplicate, a
// corrupted byte, a five-send reorder and a connection reset, all well
// inside the recovery budget (send indexes land mid-feed, far from the
// shutdown frame).
d3t::Result<d3t::net::FaultScript> ChaosScript() {
  using d3t::net::FaultOp;
  constexpr uint32_t kAny = d3t::net::kAnyPeer;
  return d3t::net::FaultScript::Create(
      {FaultOp{40, 0 /*drop*/, 1, kAny, 0},
       FaultOp{120, 1 /*duplicate*/, 1, kAny, 0},
       FaultOp{300, 2 /*corrupt*/, 1, kAny, d3t::net::kAnyArg},
       FaultOp{500, 3 /*delay*/, 1, kAny, 5},
       FaultOp{700, 4 /*reset*/, 1, kAny, 0},
       FaultOp{900, 0 /*drop*/, 1, kAny, 0}});
}

}  // namespace

int main(int argc, char** argv) {
  d3t::CommandLine cli;
  cli.AddFlag("trace-out", "",
              "write the merged per-node Chrome-trace JSON to this path");
  if (auto parsed = cli.Parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 cli.Help(argv[0]).c_str());
    return 1;
  }
  const std::string trace_out = cli.GetString("trace-out");

  // A 12-repository, three-source world: each source owns a third of
  // the six items (round-robin), and each node serves one source's
  // dissemination graph.
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

  // One mid-run outage, scripted over the feed of every node: member 4
  // (repository 3) fails at t=60s and recovers at t=180s.
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

  // Per-node observability: each node gets its own registry/recorder
  // pair; the summary table below is driven entirely by the snapshots,
  // and --trace-out merges the recorder rings into one Chrome trace.
  std::vector<d3t::obs::Snapshot> snapshots(world.source_count());
  std::vector<std::vector<std::string>> extras(world.source_count());
  std::vector<d3t::obs::TraceStream> streams;
  bool all_identical = true;
  for (size_t source = 0; source < world.source_count(); ++source) {
    // Reference: the same world as one library call, no wire anywhere,
    // publishing into its own registry.
    auto direct_overlay = BuildNodeOverlay(world, source);
    auto node_overlay = BuildNodeOverlay(world, source);
    if (!direct_overlay.ok() || !node_overlay.ok()) {
      std::fprintf(stderr, "overlay: %s\n",
                   direct_overlay.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<d3t::core::Disseminator> policy =
        d3t::core::MakeDisseminator("distributed");
    d3t::obs::Registry direct_registry;
    d3t::core::EngineOptions direct_options = engine_options;
    direct_options.registry = &direct_registry;
    d3t::core::Engine direct(*direct_overlay, world.delays(source),
                             world.traces(), *policy, direct_options,
                             /*change_timelines=*/nullptr, &*scenario);
    if (auto run = direct.Run(); !run.ok()) {
      std::fprintf(stderr, "direct run: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }

    // The served node: feed over a tiny frame bus (publisher is peer 1,
    // the node peer 0) crossed by the chaos wrapper, data over a
    // per-member frame bus.
    d3t::net::InProcTransport feed_bus(2, /*per_peer_capacity=*/12);
    auto script = ChaosScript();
    if (!script.ok()) {
      std::fprintf(stderr, "script: %s\n", script.status().ToString().c_str());
      return 1;
    }
    d3t::net::FaultInjectingTransport feed(feed_bus, *script,
                                           kSeed + source);
    d3t::net::InProcTransport data(node_overlay->member_count(), 64);
    d3t::obs::Registry registry;
    d3t::obs::Recorder recorder;
    feed.set_recorder(&recorder);
    data.set_recorder(&recorder);
    d3t::serve::NodeOptions options;
    options.engine = engine_options;
    options.engine.recorder = &recorder;
    options.engine.registry = &registry;
    options.feed_publisher = 1;
    d3t::serve::Node node(*node_overlay, world.delays(source), feed, data,
                          options);
    d3t::serve::FeedPublisher publisher(
        world.traces(), &*scenario, node_overlay->member_count(), kSeed,
        feed, /*self=*/1, /*subscribers=*/{0});
    if (auto driven = d3t::serve::DriveFeed(publisher, node); !driven.ok()) {
      std::fprintf(stderr, "feed: %s\n", driven.ToString().c_str());
      return 1;
    }
    auto report = node.Serve();
    if (!report.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }

    // Transport counters join the registry under their conventional
    // prefixes, then the node's whole story is one snapshot.
    d3t::net::PublishTransportMetrics(registry, "feed", feed.metrics());
    d3t::net::PublishTransportMetrics(registry, "data", report->data);
    snapshots[source] = registry.TakeSnapshot();

    const bool identical =
        d3t::obs::EntriesMatch(direct_registry, snapshots[source]).ok();
    all_identical = all_identical && identical;
    extras[source] = {
        d3t::TablePrinter::Int(static_cast<int64_t>(report->data.frames_tx)),
        d3t::TablePrinter::Num(
            static_cast<double>(report->data.bytes_tx) / 1024.0, 1),
        d3t::TablePrinter::Int(static_cast<int64_t>(report->feed_frames)),
        d3t::TablePrinter::Int(static_cast<int64_t>(report->resubscribes)),
        identical ? "yes" : "NO"};
    streams.push_back({static_cast<uint32_t>(source),
                       "node" + std::to_string(source),
                       d3t::obs::CanonicalTrace(recorder)});
  }

  std::vector<d3t::obs::NodeSummaryRow> rows;
  for (size_t source = 0; source < world.source_count(); ++source) {
    rows.push_back({"node" + std::to_string(source), &snapshots[source],
                    extras[source]});
  }
  d3t::obs::NodeSummaryTable(
      rows, {"dataTx", "dataKB", "feedFrames", "resub", "identical"})
      .Print();
  if (!trace_out.empty()) {
    if (auto written =
            d3t::obs::WriteFile(trace_out, d3t::obs::ChromeTraceJson(streams));
        !written.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_out.c_str());
  }
  std::printf("\nwire-routed nodes byte-identical to direct runs: %s\n",
              all_identical ? "yes" : "NO");
  return all_identical ? 0 : 1;
}
