// Microbenchmarks for the SimulationSession API:
//  * BM_SessionSweep vs BM_SweepRebuildBaseline — a 4-point policy sweep
//    on one shared World vs a freshly built World per point (both
//    serial, so the gap is pure substrate reuse); BM_SessionSweepPooled
//    adds the worker pool on top;
//  * BM_TimelineCachedSweep — a seed sweep whose runs bind the World-
//    cached change timelines, on long mostly-flat traces;
//  * BM_MultiSourceSerial vs BM_MultiSourceParallel — the sharded
//    multi-source run (world build included) on 1 worker thread vs the
//    worker pool.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exp/multi_source.h"
#include "exp/session.h"
#include "trace/trace.h"

namespace d3t {
namespace {

const std::vector<std::string>& SweepPolicies() {
  static const std::vector<std::string> policies = {
      "distributed", "centralized", "eq3-only", "all-updates"};
  return policies;
}

constexpr uint64_t kSeed = 42;

/// The benchmark world: 40 repositories, 16 items, 800 ticks.
exp::SessionBuilder BenchWorld(size_t source_count = 1) {
  exp::NetworkConfig network;
  network.repositories = 40;
  network.routers = 160;
  network.source_count = source_count;
  exp::WorkloadConfig workload;
  workload.items = 16;
  workload.ticks = 800;
  exp::SessionBuilder builder;
  builder.SetNetwork(network).SetWorkload(workload).SetSeed(kSeed);
  return builder;
}

exp::RunSpec BenchSpec() {
  exp::RunSpec spec;
  spec.overlay.coop_degree = 4;
  spec.seed = kSeed;
  return spec;
}

/// 4-point policy sweep, one shared World (built once, outside the
/// timed region — the point of the session API). `worker_threads = 1`
/// isolates pure world reuse against the serial rebuild baseline;
/// the Pooled variant additionally fans the points across the pool.
void SweepOnSharedWorld(benchmark::State& state, size_t worker_threads) {
  Result<exp::SimulationSession> session =
      BenchWorld().SetWorkerThreads(worker_threads).Build();
  if (!session.ok()) {
    state.SkipWithError(session.status().ToString().c_str());
    return;
  }
  const exp::RunSpec base = BenchSpec();
  for (auto _ : state) {
    auto results = session->RunSweep(
        base, SweepPolicies(),
        [](exp::RunSpec& spec, const std::string& policy) {
          spec.policy.policy = policy;
        });
    for (const auto& result : results) {
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(result->metrics.messages);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(SweepPolicies().size()));
}

void BM_SessionSweep(benchmark::State& state) {
  SweepOnSharedWorld(state, /*worker_threads=*/1);
}
BENCHMARK(BM_SessionSweep)->Unit(benchmark::kMillisecond);

void BM_SessionSweepPooled(benchmark::State& state) {
  SweepOnSharedWorld(state, /*worker_threads=*/0);  // one per hw thread
}
BENCHMARK(BM_SessionSweepPooled)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same 4 points, each on a freshly built World: every point
/// rebuilds topology, routing, traces and interests from scratch.
void BM_SweepRebuildBaseline(benchmark::State& state) {
  const exp::SessionBuilder world = BenchWorld();
  for (auto _ : state) {
    for (const std::string& policy : SweepPolicies()) {
      Result<exp::SimulationSession> session = world.Build();
      if (!session.ok()) {
        state.SkipWithError(session.status().ToString().c_str());
        return;
      }
      exp::RunSpec spec = BenchSpec();
      spec.policy.policy = policy;
      Result<exp::ExperimentResult> result = session->Run(spec);
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(result->metrics.messages);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(SweepPolicies().size()));
}
BENCHMARK(BM_SweepRebuildBaseline)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// World-cached change timelines
//
// The fidelity trackers bind to per-item compacted change timelines.
// The session builds them once at SessionBuilder::Build and every run
// borrows a const view, so a sweep never re-traces the library. The
// workload below is where a per-run trace pass would dominate: long,
// mostly-flat traces (many value-repeating polls, few genuine changes).

exp::SimulationSession BuildTimelineSweepSessionOrDie() {
  constexpr size_t kItems = 8;
  constexpr size_t kTicks = 60000;
  exp::NetworkConfig network;
  network.repositories = 10;
  network.routers = 40;
  exp::WorkloadConfig workload;
  workload.items = kItems;
  workload.ticks = kTicks;
  // One tick per simulated second; the value steps only every 1500th
  // poll, so the compacted timeline is ~40 entries per 60k-tick trace.
  std::vector<trace::Trace> traces;
  traces.reserve(kItems);
  for (size_t i = 0; i < kItems; ++i) {
    std::vector<trace::Tick> ticks;
    ticks.reserve(kTicks);
    double value = 25.0 + static_cast<double>(i);
    for (size_t k = 0; k < kTicks; ++k) {
      if (k > 0 && k % 1500 == 0) value += 0.05;
      ticks.push_back({sim::Seconds(static_cast<double>(k)), value});
    }
    traces.emplace_back("flat" + std::to_string(i), std::move(ticks));
  }
  exp::SessionBuilder builder;
  builder.SetNetwork(network)
      .SetWorkload(workload)
      .SetSeed(42)
      .SetWorkerThreads(1)
      .SetTraces(std::move(traces));
  Result<exp::SimulationSession> session = std::move(builder).Build();
  if (!session.ok()) {
    std::fprintf(stderr, "timeline sweep session build failed: %s\n",
                 session.status().ToString().c_str());
    std::abort();
  }
  return std::move(session).value();
}

void BM_TimelineCachedSweep(benchmark::State& state) {
  static exp::SimulationSession* session =
      new exp::SimulationSession(BuildTimelineSweepSessionOrDie());
  exp::RunSpec base;
  base.overlay.coop_degree = 4;
  const std::vector<uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  for (auto _ : state) {
    auto results = session->RunSweep(
        base, seeds,
        [](exp::RunSpec& spec, uint64_t seed) { spec.seed = seed; });
    for (const auto& result : results) {
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(result->metrics.loss_percent);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(seeds.size()));
}

BENCHMARK(BM_TimelineCachedSweep)->Unit(benchmark::kMillisecond);

void RunMultiSourceOrSkip(benchmark::State& state, size_t worker_threads) {
  constexpr size_t kSources = 4;
  const exp::SessionBuilder world =
      BenchWorld(kSources).SetWorkerThreads(worker_threads);
  for (auto _ : state) {
    Result<exp::SimulationSession> session = world.Build();
    if (!session.ok()) {
      state.SkipWithError(session.status().ToString().c_str());
      return;
    }
    Result<exp::MultiSourceResult> result =
        exp::RunMultiSource(*session, BenchSpec());
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->messages);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSources));
}

void BM_MultiSourceSerial(benchmark::State& state) {
  RunMultiSourceOrSkip(state, /*worker_threads=*/1);
}
BENCHMARK(BM_MultiSourceSerial)->Unit(benchmark::kMillisecond);

void BM_MultiSourceParallel(benchmark::State& state) {
  RunMultiSourceOrSkip(state, /*worker_threads=*/0);  // one per hw thread
}
BENCHMARK(BM_MultiSourceParallel)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Forces a 4-thread pool even where DefaultThreadCount() == 1, so the
/// pooled code path (and its scheduling overhead) is always measured.
void BM_MultiSourcePool4(benchmark::State& state) {
  RunMultiSourceOrSkip(state, /*worker_threads=*/4);
}
BENCHMARK(BM_MultiSourcePool4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace d3t

BENCHMARK_MAIN();
