// Quickstart for the d3t library: build a small network of cooperating
// repositories, disseminate a synthetic stock trace through it with the
// distributed (Eq. 3 + Eq. 7) algorithm, and report fidelity.
//
//   $ ./build/examples/quickstart [--trace-out=PATH]
//
// Walkthrough:
//   1. generate a physical topology (routers + repositories + source);
//   2. route it and extract overlay pair delays;
//   3. declare each repository's data needs (items + coherency c);
//   4. build the dissemination graph with LeLA;
//   5. run the discrete-event simulation and print the metrics;
//   6. do it again the short way: the SimulationSession API wraps steps
//      1-5 and amortizes 1-3 across many runs.

#include <cstdio>

#include "common/cli.h"
#include "core/engine.h"
#include "core/lela.h"
#include "exp/session.h"
#include "net/delay_model.h"
#include "net/topology_generator.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "trace/synthetic.h"

int main(int argc, char** argv) {
  d3t::CommandLine cli;
  cli.AddFlag("trace-out", "",
              "write the run's Chrome-trace JSON to this path");
  if (d3t::Status status = cli.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 cli.Help(argv[0]).c_str());
    return 2;
  }
  const std::string trace_out = cli.GetString("trace-out");

  d3t::Rng rng(2002);  // VLDB 2002

  // 1. Physical network: 1 source + 8 repositories + 40 routers.
  d3t::net::TopologyGeneratorOptions topo_options;
  topo_options.router_count = 40;
  topo_options.repository_count = 8;
  auto topo = d3t::net::GenerateTopology(topo_options, rng);
  if (!topo.ok()) {
    std::fprintf(stderr, "topology: %s\n", topo.status().ToString().c_str());
    return 1;
  }

  // 2. Overlay member-to-member delays, routed on the member core (one
  // model per source; this network has one).
  auto routed = d3t::net::OverlayDelayModel::FromTopologyAllSources(*topo);
  if (!routed.ok()) {
    std::fprintf(stderr, "routing: %s\n", routed.status().ToString().c_str());
    return 1;
  }
  const d3t::net::OverlayDelayModel& delays = routed->front();

  // 3. Data needs: two items (think MSFT and ORCL). Even repositories
  // are day traders (tight tolerances); odd ones are casual observers.
  std::vector<d3t::core::InterestSet> interests;
  for (int i = 0; i < 8; ++i) {
    const bool trader = i % 2 == 0;
    d3t::core::InterestSet needs;
    needs[0] = trader ? 0.01 : 0.25;  // dollars of tolerated deviation
    if (i % 3 != 0) needs[1] = trader ? 0.05 : 0.50;
    interests.push_back(std::move(needs));
  }

  // 4. Build the dissemination graph with LeLA.
  d3t::core::LelaOptions lela;
  lela.coop_degree = 3;  // each member serves at most 3 dependents
  auto built = d3t::core::BuildOverlay(delays, interests, /*item_count=*/2,
                                       lela, rng);
  if (!built.ok()) {
    std::fprintf(stderr, "lela: %s\n", built.status().ToString().c_str());
    return 1;
  }
  auto shape = built->overlay.ComputeShape();
  std::printf("overlay built: diameter %u, avg depth %.2f, levels %zu\n",
              shape.diameter, shape.avg_depth, built->info.levels);

  // 5. Traces + simulation.
  std::vector<d3t::trace::Trace> traces;
  for (auto preset : {d3t::trace::Table1Presets()[0],    // MSFT
                      d3t::trace::Table1Presets()[5]}) {  // ORCL
    d3t::trace::SyntheticTraceOptions trace_options;
    trace_options.name = preset.name;
    trace_options.min_price = preset.min_price;
    trace_options.max_price = preset.max_price;
    trace_options.tick_count = 2000;  // ~33 simulated minutes
    auto trace = d3t::trace::GenerateSyntheticTrace(trace_options, rng);
    if (!trace.ok()) {
      std::fprintf(stderr, "trace: %s\n",
                   trace.status().ToString().c_str());
      return 1;
    }
    traces.push_back(std::move(trace).value());
  }

  d3t::core::DistributedDisseminator policy;
  d3t::core::EngineOptions engine_options;  // 12.5 ms per dependent
  // An optional flight recorder: every tick, delivery and processed job
  // lands in the ring, stamped with logical sim time.
  d3t::obs::Recorder recorder;
  if (!trace_out.empty()) engine_options.recorder = &recorder;
  d3t::core::Engine engine(built->overlay, delays, traces, policy,
                           engine_options);
  auto metrics = engine.Run();
  if (!metrics.ok()) {
    std::fprintf(stderr, "engine: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }
  if (!trace_out.empty()) {
    if (d3t::Status written =
            d3t::obs::WriteChromeTrace(recorder, trace_out, 0, "quickstart");
        !written.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_out.c_str());
  }

  std::printf("simulated %.0f seconds of market data\n",
              d3t::sim::ToSeconds(metrics->horizon));
  std::printf("updates at source: %llu, messages pushed: %llu\n",
              static_cast<unsigned long long>(metrics->source_updates),
              static_cast<unsigned long long>(metrics->messages));
  std::printf("system loss of fidelity: %.3f%%\n", metrics->loss_percent);
  for (size_t m = 1; m < metrics->per_member_loss.size(); ++m) {
    if (metrics->per_member_loss[m] < 0) continue;
    std::printf("  repository %zu (%s): loss %.3f%%\n", m,
                m % 2 == 1 ? "trader " : "casual ",
                metrics->per_member_loss[m]);
  }

  // 6. The session API does steps 1-5 in two calls — and because the
  // World (topology + delays + workload) is built once and shared, a
  // whole cooperation-degree sweep costs little more than one run.
  d3t::exp::NetworkConfig network;
  network.routers = 40;
  network.repositories = 8;
  d3t::exp::WorkloadConfig workload;
  workload.items = 2;
  workload.ticks = 2000;
  auto session = d3t::exp::SessionBuilder()
                     .SetNetwork(network)
                     .SetWorkload(workload)
                     .SetSeed(2002)
                     .SetInterests(interests)  // reuse the needs from step 3
                     .Build();
  if (!session.ok()) {
    std::fprintf(stderr, "session: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  d3t::exp::RunSpec spec;
  spec.seed = 2002;
  const std::vector<size_t> degrees = {1, 3, 8};
  auto sweep = session->RunSweep(
      spec, degrees, [](d3t::exp::RunSpec& s, size_t degree) {
        s.overlay.coop_degree = degree;
      });
  std::printf("\ncooperation-degree sweep on one shared World:\n");
  for (size_t i = 0; i < degrees.size(); ++i) {
    if (!sweep[i].ok()) {
      std::fprintf(stderr, "sweep: %s\n",
                   sweep[i].status().ToString().c_str());
      return 1;
    }
    std::printf("  degree %zu: loss %.3f%%, %llu messages\n", degrees[i],
                sweep[i]->metrics.loss_percent,
                static_cast<unsigned long long>(sweep[i]->metrics.messages));
  }
  return 0;
}
