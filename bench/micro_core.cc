// Google-benchmark microbenchmarks for the hot paths of the library:
// event queue throughput, filtering predicates, routing, LeLA
// construction, trace generation and an end-to-end engine run.

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>

#include "core/coherency.h"
#include "core/engine.h"
#include "core/lela.h"
#include "core/pull.h"
#include "net/delay_model.h"
#include "net/routing.h"
#include "net/topology_generator.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace d3t {
namespace {

/// The pre-refactor (seed) data layout, kept here as the hash-map
/// baseline for BM_EngineRun*. It reproduces every hash-map operation
/// the seed stack performed per processed update:
///  * per dependent-edge check: a `try_emplace` on last-sent state keyed
///    by a packed (node, item, child) 64-bit key (seed
///    DistributedDisseminator::ShouldPush);
///  * per job: a (member, item) -> tracker find (seed
///    Engine::ProcessNext resolved its fidelity tracker by hashing);
///  * per simulation event (one per job plus one per pushed message): an
///    event-id insert + erase (the seed EventQueue maintained an
///    id -> slot map on every Schedule/RunNext).
/// The refactored library indexes flat vectors by the overlay-assigned
/// dense EdgeId/TrackerId and dropped the event-id map entirely.
class HashMapDistributedDisseminator : public core::Disseminator {
 public:
  std::string name() const override { return "distributed-hashmap"; }

  void Initialize(const core::Overlay& overlay,
                  const std::vector<double>& initial_values) override {
    overlay_ = &overlay;
    initial_values_ = initial_values;
    last_sent_.clear();
    tracker_index_.clear();
    event_ids_.clear();
    next_event_id_ = 0;
    size_t trackers = 0;
    for (core::OverlayIndex m = 1; m < overlay.member_count(); ++m) {
      for (core::ItemId item = 0; item < overlay.item_count(); ++item) {
        if (!overlay.Holds(m, item)) continue;
        if (!overlay.Serving(m, item).own_interest) continue;
        tracker_index_[PackTrackerKey(m, item)] = trackers++;
      }
    }
  }

  core::BeginDecision BeginUpdate(sim::SimTime, core::OverlayIndex node,
                                  core::ItemId item, double, double) override {
    auto it = tracker_index_.find(PackTrackerKey(node, item));
    benchmark::DoNotOptimize(it);
    PayEventIdCost();  // the event that delivered this job
    return core::BeginDecision{};
  }

  bool ShouldPush(sim::SimTime, core::OverlayIndex node, core::ItemId item,
                  const core::ItemEdge& edge, double value,
                  double /*tag*/) override {
    const core::Coherency parent_c =
        node == core::kSourceOverlayIndex
            ? 0.0
            : overlay_->Serving(node, item).c_serve;
    auto it = last_sent_
                  .try_emplace(PackEdgeKey(node, item, edge.child),
                               initial_values_[item])
                  .first;
    if (core::ShouldForwardDistributed(value, it->second, edge.c,
                                       parent_c)) {
      it->second = value;
      PayEventIdCost();  // the delivery event this push schedules
      return true;
    }
    return false;
  }

 private:
  static uint64_t PackEdgeKey(core::OverlayIndex node, core::ItemId item,
                              core::OverlayIndex child) {
    return (static_cast<uint64_t>(node) << 44) |
           (static_cast<uint64_t>(item) << 20) |
           static_cast<uint64_t>(child);
  }
  static uint64_t PackTrackerKey(core::OverlayIndex m, core::ItemId item) {
    return (static_cast<uint64_t>(m) << 32) | item;
  }

  /// One Schedule-time insert + one RunNext-time erase, against a map
  /// held at a realistic pending-event population.
  void PayEventIdCost() {
    event_ids_.emplace(next_event_id_, next_event_id_);
    ++next_event_id_;
    if (next_event_id_ > kPendingEvents) {
      event_ids_.erase(next_event_id_ - kPendingEvents);
    }
  }

  static constexpr uint64_t kPendingEvents = 256;

  const core::Overlay* overlay_ = nullptr;
  std::vector<double> initial_values_;
  std::unordered_map<uint64_t, double> last_sent_;
  std::unordered_map<uint64_t, size_t> tracker_index_;
  std::unordered_map<uint64_t, uint64_t> event_ids_;
  uint64_t next_event_id_ = 0;
};

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (size_t i = 0; i < batch; ++i) {
      queue.Schedule(static_cast<sim::SimTime>(rng.NextBounded(1 << 20)),
                     [](sim::SimTime) {});
    }
    while (!queue.empty()) queue.RunNext();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

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

void BM_DijkstraRows(benchmark::State& state) {
  Rng rng(4);
  net::TopologyGeneratorOptions options;
  options.router_count = static_cast<size_t>(state.range(0));
  options.repository_count = 20;
  Result<net::Topology> topo = net::GenerateTopology(options, rng);
  std::vector<net::NodeId> rows;
  rows.push_back(topo->SourceNode());
  for (net::NodeId repo : topo->RepositoryNodes()) rows.push_back(repo);
  for (auto _ : state) {
    auto routing = net::RoutingTables::DijkstraRows(*topo, rows);
    benchmark::DoNotOptimize(routing);
  }
}
BENCHMARK(BM_DijkstraRows)->Arg(100)->Arg(300)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// The production routing path on BM_DijkstraRows's topologies: build the
// member core, then one Dijkstra row per member on it, packed into the
// member x member model.
void BM_MemberCoreRouting(benchmark::State& state) {
  Rng rng(4);
  net::TopologyGeneratorOptions options;
  options.router_count = static_cast<size_t>(state.range(0));
  options.repository_count = 20;
  Result<net::Topology> topo = net::GenerateTopology(options, rng);
  for (auto _ : state) {
    auto models = net::OverlayDelayModel::FromTopologyAllSources(*topo, 1);
    benchmark::DoNotOptimize(models);
  }
}
BENCHMARK(BM_MemberCoreRouting)->Arg(100)->Arg(300)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

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

void BM_OverlayRemoveMember(benchmark::State& state) {
  Rng rng(10);
  core::InterestOptions workload;
  workload.repository_count = 100;
  workload.item_count = 30;
  auto interests = core::GenerateInterests(workload, rng);
  auto delays =
      net::OverlayDelayModel::Uniform(101, sim::Millis(20));
  core::LelaOptions lela;
  lela.coop_degree = 5;
  for (auto _ : state) {
    state.PauseTiming();
    Rng build_rng(11);
    auto built =
        core::BuildOverlay(delays, interests, 30, lela, build_rng);
    state.ResumeTiming();
    for (core::OverlayIndex m = 2; m <= 100; m += 2) {
      benchmark::DoNotOptimize(built->overlay.RemoveMember(m));
    }
  }
}
BENCHMARK(BM_OverlayRemoveMember)->Unit(benchmark::kMillisecond);

/// Shared fixture for the dense-vs-hash engine-run comparison: a
/// production-scale d3g (hundreds of repositories, high fan-out, most
/// repositories interested in most items) so the per-update edge state
/// no longer fits a cache-resident hash map — the regime the dense
/// EdgeId layout is built for.
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

void RunEngineBenchmark(benchmark::State& state,
                        core::Disseminator& policy) {
  static EngineRunFixture fixture;
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

void BM_EngineRunDense(benchmark::State& state) {
  core::DistributedDisseminator policy;
  RunEngineBenchmark(state, policy);
}
BENCHMARK(BM_EngineRunDense)->Unit(benchmark::kMillisecond);

void BM_EngineRunHashBaseline(benchmark::State& state) {
  HashMapDistributedDisseminator policy;
  RunEngineBenchmark(state, policy);
}
BENCHMARK(BM_EngineRunHashBaseline)->Unit(benchmark::kMillisecond);

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
