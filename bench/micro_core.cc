// Google-benchmark microbenchmarks for the hot paths of the library:
// filtering predicates, routing, LeLA construction, trace generation and
// an end-to-end engine run. Event-kernel throughput lives in
// event_kernel.cc.

#include <benchmark/benchmark.h>

#include <memory>

#include "core/coherency.h"
#include "core/engine.h"
#include "core/lela.h"
#include "core/pull.h"
#include "net/delay_model.h"
#include "net/routing.h"
#include "net/topology_generator.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "sim/time.h"
#include "trace/synthetic.h"

namespace d3t {
namespace {

void BM_ForwardingPredicate(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> values(4096);
  for (auto& v : values) v = rng.NextDoubleInRange(10.0, 11.0);
  size_t i = 0;
  for (auto _ : state) {
    const double v = values[i++ & 4095];
    benchmark::DoNotOptimize(
        core::ShouldForwardDistributed(v, 10.5, 0.05, 0.01));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardingPredicate);

void BM_FloydWarshall(benchmark::State& state) {
  Rng rng(3);
  net::TopologyGeneratorOptions options;
  options.router_count = static_cast<size_t>(state.range(0));
  options.repository_count = 20;
  Result<net::Topology> topo = net::GenerateTopology(options, rng);
  for (auto _ : state) {
    auto routing = net::RoutingTables::FloydWarshall(*topo);
    benchmark::DoNotOptimize(routing);
  }
}
BENCHMARK(BM_FloydWarshall)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

// Routing topologies: Args are {routers, repositories}. The last shape
// is the large_world workload's (6,000 routers, 1,000 repositories),
// routed on one thread so host parallelism cannot blur the number.
net::Topology RoutingTopology(const benchmark::State& state) {
  Rng rng(4);
  net::TopologyGeneratorOptions options;
  options.router_count = static_cast<size_t>(state.range(0));
  options.repository_count = static_cast<size_t>(state.range(1));
  return net::GenerateTopology(options, rng).value();
}

void RoutingShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({100, 20})->Args({300, 20})->Args({2000, 20})
      ->Args({6000, 1000})->Unit(benchmark::kMillisecond);
}

void BM_DijkstraRows(benchmark::State& state) {
  const net::Topology topo = RoutingTopology(state);
  std::vector<net::NodeId> rows;
  rows.push_back(topo.SourceNode());
  for (net::NodeId repo : topo.RepositoryNodes()) rows.push_back(repo);
  for (auto _ : state) {
    auto routing = net::RoutingTables::DijkstraRows(topo, rows);
    benchmark::DoNotOptimize(routing);
  }
}
BENCHMARK(BM_DijkstraRows)->Apply(RoutingShapes);

// The production routing path on BM_DijkstraRows's topologies: build the
// member core, then one Dijkstra row per member on it, packed into the
// member x member model.
void BM_MemberCoreRouting(benchmark::State& state) {
  const net::Topology topo = RoutingTopology(state);
  for (auto _ : state) {
    auto models = net::OverlayDelayModel::FromTopologyAllSources(topo, 1);
    benchmark::DoNotOptimize(models);
  }
}
BENCHMARK(BM_MemberCoreRouting)->Apply(RoutingShapes);

void BM_LelaBuild(benchmark::State& state) {
  const size_t repos = static_cast<size_t>(state.range(0));
  Rng rng(5);
  core::InterestOptions workload;
  workload.repository_count = repos;
  workload.item_count = 50;
  auto interests = core::GenerateInterests(workload, rng);
  auto delays =
      net::OverlayDelayModel::Uniform(repos + 1, sim::Millis(20));
  core::LelaOptions options;
  options.coop_degree = 5;
  for (auto _ : state) {
    Rng build_rng(6);
    auto built =
        core::BuildOverlay(delays, interests, 50, options, build_rng);
    benchmark::DoNotOptimize(built);
  }
}
BENCHMARK(BM_LelaBuild)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
  trace::SyntheticTraceOptions options;
  options.tick_count = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(7);
    auto trace = trace::GenerateSyntheticTrace(options, rng);
    benchmark::DoNotOptimize(trace);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(10000);

void BM_PullEngineEndToEnd(benchmark::State& state) {
  Rng rng(9);
  const size_t repos = 20, items = 5;
  core::InterestOptions workload;
  workload.repository_count = repos;
  workload.item_count = items;
  auto interests = core::GenerateInterests(workload, rng);
  auto delays =
      net::OverlayDelayModel::Uniform(repos + 1, sim::Millis(20));
  std::vector<trace::Trace> traces;
  for (size_t i = 0; i < items; ++i) {
    trace::SyntheticTraceOptions trace_options;
    trace_options.tick_count = 500;
    traces.push_back(
        std::move(trace::GenerateSyntheticTrace(trace_options, rng))
            .value());
  }
  core::PullOptions options;
  options.comp_delay = sim::Millis(1);
  for (auto _ : state) {
    core::PullEngine engine(delays, interests, traces, options);
    auto metrics = engine.Run();
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK(BM_PullEngineEndToEnd)->Unit(benchmark::kMillisecond);

/// Fixture for BM_EngineRunDense: a production-scale d3g (hundreds of
/// repositories, high fan-out, most repositories interested in most
/// items), so the per-update edge state is far larger than a cache-
/// resident table — the regime the dense EdgeId layout is built for.
struct EngineRunFixture {
  EngineRunFixture() : delays(net::OverlayDelayModel::Uniform(1, 0)) {
    Rng rng(12);
    const size_t repos = 600, items = 30;
    core::InterestOptions workload;
    workload.repository_count = repos;
    workload.item_count = items;
    workload.item_probability = 0.9;
    // Mostly loose tolerances: the typical update is checked against
    // every dependent edge but forwarded along few of them, so the run
    // is dominated by the filtering inner loop rather than by message
    // delivery (the paper's T sweep, low-T end).
    workload.stringent_fraction = 0.1;
    auto interests = core::GenerateInterests(workload, rng);
    delays = net::OverlayDelayModel::Uniform(repos + 1, sim::Millis(20));
    core::LelaOptions lela;
    lela.coop_degree = 12;
    auto built = core::BuildOverlay(delays, interests, items, lela, rng);
    overlay = std::make_unique<core::Overlay>(std::move(built->overlay));
    for (size_t i = 0; i < items; ++i) {
      trace::SyntheticTraceOptions trace_options;
      trace_options.tick_count = 200;
      traces.push_back(
          std::move(trace::GenerateSyntheticTrace(trace_options, rng))
              .value());
    }
  }

  net::OverlayDelayModel delays;
  std::unique_ptr<core::Overlay> overlay;
  std::vector<trace::Trace> traces;
};

void BM_EngineRunDense(benchmark::State& state) {
  static EngineRunFixture fixture;
  core::DistributedDisseminator policy;
  uint64_t checks = 0;
  for (auto _ : state) {
    core::Engine engine(*fixture.overlay, fixture.delays, fixture.traces,
                        policy, core::EngineOptions{});
    auto metrics = engine.Run();
    benchmark::DoNotOptimize(metrics);
    checks = metrics->checks;
  }
  // Throughput in dependent-edge checks (the per-update inner loop).
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(checks));
}
BENCHMARK(BM_EngineRunDense)->Unit(benchmark::kMillisecond);

void BM_EngineEndToEnd(benchmark::State& state) {
  Rng rng(8);
  const size_t repos = 30, items = 10;
  core::InterestOptions workload;
  workload.repository_count = repos;
  workload.item_count = items;
  auto interests = core::GenerateInterests(workload, rng);
  auto delays =
      net::OverlayDelayModel::Uniform(repos + 1, sim::Millis(20));
  core::LelaOptions lela;
  lela.coop_degree = 5;
  auto built = core::BuildOverlay(delays, interests, items, lela, rng);
  std::vector<trace::Trace> traces;
  for (size_t i = 0; i < items; ++i) {
    trace::SyntheticTraceOptions trace_options;
    trace_options.tick_count = 500;
    traces.push_back(
        std::move(trace::GenerateSyntheticTrace(trace_options, rng))
            .value());
  }
  for (auto _ : state) {
    core::DistributedDisseminator policy;
    core::Engine engine(built->overlay, delays, traces, policy,
                        core::EngineOptions{});
    auto metrics = engine.Run();
    benchmark::DoNotOptimize(metrics);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items * 500));
}
BENCHMARK(BM_EngineEndToEnd)->Unit(benchmark::kMillisecond);

void BM_RecorderOverhead(benchmark::State& state) {
  // BM_EngineEndToEnd with a flight recorder and metrics registry
  // attached — the acceptance gate for the obs layer is that this stays
  // within a few percent of the bare run (the hot path is a handful of
  // stores into a preallocated ring).
  Rng rng(8);
  const size_t repos = 30, items = 10;
  core::InterestOptions workload;
  workload.repository_count = repos;
  workload.item_count = items;
  auto interests = core::GenerateInterests(workload, rng);
  auto delays =
      net::OverlayDelayModel::Uniform(repos + 1, sim::Millis(20));
  core::LelaOptions lela;
  lela.coop_degree = 5;
  auto built = core::BuildOverlay(delays, interests, items, lela, rng);
  std::vector<trace::Trace> traces;
  for (size_t i = 0; i < items; ++i) {
    trace::SyntheticTraceOptions trace_options;
    trace_options.tick_count = 500;
    traces.push_back(
        std::move(trace::GenerateSyntheticTrace(trace_options, rng))
            .value());
  }
  obs::Recorder recorder(1 << 16);
  obs::Registry registry;
  uint64_t recorded = 0;
  for (auto _ : state) {
    recorder.Clear();
    core::DistributedDisseminator policy;
    core::EngineOptions options;
    options.recorder = &recorder;
    options.registry = &registry;
    core::Engine engine(built->overlay, delays, traces, policy, options);
    auto metrics = engine.Run();
    benchmark::DoNotOptimize(metrics);
    recorded = recorder.recorded();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items * 500));
  state.counters["recorded"] = static_cast<double>(recorded);
}
BENCHMARK(BM_RecorderOverhead)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace d3t

BENCHMARK_MAIN();
