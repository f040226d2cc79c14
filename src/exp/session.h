#ifndef D3T_EXP_SESSION_H_
#define D3T_EXP_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/engine.h"
#include "core/interest.h"
#include "core/scenario.h"
#include "exp/config.h"
#include "net/delay_model.h"
#include "net/transport.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "trace/trace.h"

namespace d3t::exp {

/// Everything a run reports.
struct ExperimentResult {
  core::EngineMetrics metrics;
  core::OverlayShape shape;
  /// Degree actually enforced (after controlled cooperation).
  size_t effective_degree = 0;
  /// Mean repository-to-repository delay of the (possibly rescaled)
  /// delay model, in ms, and the mean physical hop count.
  double mean_pair_delay_ms = 0.0;
  double mean_pair_hops = 0.0;
  /// Wire-transport counters of the run (all zero unless
  /// PolicyConfig::route_through_wire was set; then frames_tx equals
  /// the engine's message count — every push crossed the wire).
  net::TransportMetrics wire;
};

/// One run against a prebuilt World: which source roots the overlay, how
/// LeLA shapes it, which policy disseminates, and the RNG stream that
/// breaks LeLA's random choices. Cheap to copy and mutate — sweeps are
/// vectors of these.
struct RunSpec {
  OverlayConfig overlay;
  PolicyConfig policy;
  /// Scripted mid-run dynamics (repository failures/recoveries and
  /// coherency renegotiation), applied to this run's overlay through
  /// the typed event kernel. Empty (the default) is the static-world
  /// baseline and reproduces scenario-free metrics byte-identically.
  /// Build one with exp::ScenarioBuilder or exp::MakeChurnScenario
  /// (exp/scenario.h).
  core::Scenario scenario;
  /// Explicit per-run RNG seed. Runs of a sweep may share it (vary one
  /// knob, hold the randomness fixed); sharded multi-source runs must
  /// not (see PerSourceSeed).
  uint64_t seed = 42;
  /// Which of the world's sources roots this run's dissemination graph.
  /// In a multi-source world the run serves only the items owned by that
  /// source (round-robin partition).
  size_t source_index = 0;
  /// Free-form tag echoed back by reports; unused by the runner.
  std::string label;
  /// Optional observability taps, forwarded into EngineOptions (both
  /// may be null; must outlive the run). NOTE: a RunSpec carrying these
  /// is bound to one run — RunAll executes specs concurrently, and the
  /// obs objects are single-threaded, so sweep specs must either leave
  /// them null or give every spec its own recorder/registry pair.
  obs::Recorder* recorder = nullptr;
  obs::Registry* registry = nullptr;
};

/// Immutable, sweep-invariant substrate: the routed topology's delay
/// model(s), the trace library and the interest sets. Built once by
/// SessionBuilder and shared (read-only) by every run of a session —
/// including runs executing concurrently on worker threads.
class World {
 public:
  const NetworkConfig& network() const { return network_; }
  const WorkloadConfig& workload() const { return workload_; }
  uint64_t seed() const { return seed_; }
  size_t source_count() const { return delays_.size(); }

  /// Delay model rooted at source `source_index` (all models share the
  /// repository set; member 0 is the chosen source).
  const net::OverlayDelayModel& delays(size_t source_index = 0) const {
    return delays_[source_index];
  }
  /// Off-diagonal pair-delay stats and mean pair hops of
  /// delays(source_index), computed once at Build. World-invariant, so
  /// runs do not rescan the O(member^2) matrix per sweep point; a run
  /// that rescales the delay model recomputes delay stats from its
  /// scaled copy (hops are never rescaled).
  const StreamingStats& pair_delay_stats(size_t source_index = 0) const {
    return pair_stats_[source_index].delay;
  }
  double mean_pair_hops(size_t source_index = 0) const {
    return pair_stats_[source_index].mean_hops;
  }
  const std::vector<trace::Trace>& traces() const { return traces_; }
  /// Per-item compacted change timelines of traces(), built exactly once
  /// at SessionBuilder::Build. Every run's engine binds its lazy
  /// fidelity trackers to these views, so a sweep never re-traces the
  /// library per run.
  const core::ChangeTimelines& change_timelines() const {
    return change_timelines_;
  }
  const std::vector<core::InterestSet>& interests() const {
    return interests_;
  }

  /// Interests restricted to the items owned by `source_index`
  /// (round-robin partition). Equals interests() for single-source
  /// worlds.
  std::vector<core::InterestSet> OwnedInterests(size_t source_index) const;
  /// Number of items owned by `source_index`.
  size_t OwnedItemCount(size_t source_index) const;

  /// Process-wide count of World builds — a test/diagnostic hook for
  /// asserting that sweeps share one World instead of rebuilding the
  /// substrate per point.
  static uint64_t BuildCount();

 private:
  friend class SessionBuilder;
  World() = default;

  NetworkConfig network_;
  WorkloadConfig workload_;
  uint64_t seed_ = 0;
  std::vector<net::OverlayDelayModel> delays_;
  std::vector<net::OverlayDelayModel::PairStats> pair_stats_;
  std::vector<trace::Trace> traces_;
  core::ChangeTimelines change_timelines_;
  std::vector<core::InterestSet> interests_;
};

/// Executes RunSpecs against a shared World. Copying a session is cheap
/// (the World is shared and immutable). Run() is const and thread-safe;
/// RunAll() fans independent specs out over a worker pool and still
/// returns results in spec order, so aggregation is deterministic no
/// matter how the pool schedules them.
class SimulationSession {
 public:
  const World& world() const { return *world_; }

  /// Worker threads RunAll may use (1 forces serial in-place execution).
  size_t worker_threads() const { return worker_threads_; }

  /// Executes one run. Validates the spec (policy name, source index)
  /// before any expensive work.
  Result<ExperimentResult> Run(const RunSpec& spec) const;

  /// Executes every spec against the shared World — on the worker pool
  /// when more than one spec and more than one worker thread are
  /// available. results[i] always corresponds to specs[i].
  std::vector<Result<ExperimentResult>> RunAll(
      const std::vector<RunSpec>& specs) const;

  /// Sweep helper: copies `base` once per value, lets `apply(spec,
  /// value)` set the swept knob, and RunAll()s the points against the
  /// one shared World. Fig. 5/7/11-style curves are a single call:
  ///
  ///   auto curve = session.RunSweep(base, policies,
  ///       [](RunSpec& s, const std::string& p) { s.policy.policy = p; });
  template <typename T, typename Apply>
  std::vector<Result<ExperimentResult>> RunSweep(const RunSpec& base,
                                                 const std::vector<T>& values,
                                                 Apply&& apply) const {
    std::vector<RunSpec> specs;
    specs.reserve(values.size());
    for (const T& value : values) {
      RunSpec spec = base;
      apply(spec, value);
      specs.push_back(std::move(spec));
    }
    return RunAll(specs);
  }

 private:
  friend class SessionBuilder;
  SimulationSession(std::shared_ptr<const World> world,
                    size_t worker_threads)
      : world_(std::move(world)), worker_threads_(worker_threads) {}

  std::shared_ptr<const World> world_;
  size_t worker_threads_ = 0;
};

/// Stage one of the session API: collects the world-building inputs
/// (network, workload, seed) and builds the immutable World exactly
/// once. Custom workloads can override the generated interests and/or
/// traces (e.g. client-derived needs, replayed sensor logs).
class SessionBuilder {
 public:
  SessionBuilder& SetNetwork(const NetworkConfig& network) {
    network_ = network;
    return *this;
  }
  SessionBuilder& SetWorkload(const WorkloadConfig& workload) {
    workload_ = workload;
    return *this;
  }
  SessionBuilder& SetSeed(uint64_t seed) {
    seed_ = seed;
    return *this;
  }
  /// Worker threads for RunAll (0 = one per hardware thread; 1 = serial).
  SessionBuilder& SetWorkerThreads(size_t worker_threads) {
    worker_threads_ = worker_threads;
    return *this;
  }
  /// Replaces the generated interest sets (must have one entry per
  /// repository).
  SessionBuilder& SetInterests(std::vector<core::InterestSet> interests) {
    interests_override_ = std::move(interests);
    has_interests_ = true;
    return *this;
  }
  /// Replaces the generated trace library (must have one non-empty trace
  /// per item).
  SessionBuilder& SetTraces(std::vector<trace::Trace> traces) {
    traces_override_ = std::move(traces);
    has_traces_ = true;
    return *this;
  }

  /// Builds the World (topology → routing → delay models, traces,
  /// interests) and wraps it in a session. The expensive call: everything
  /// after it is per-run work. The rvalue overload moves any SetTraces /
  /// SetInterests overrides into the World instead of copying them —
  /// use `std::move(builder).Build()` for large replayed workloads.
  Result<SimulationSession> Build() const&;
  Result<SimulationSession> Build() &&;

 private:
  Result<SimulationSession> BuildInternal(
      std::vector<core::InterestSet> interests,
      std::vector<trace::Trace> traces) const;

  NetworkConfig network_;
  WorkloadConfig workload_;
  uint64_t seed_ = 42;
  size_t worker_threads_ = 0;
  std::vector<core::InterestSet> interests_override_;
  std::vector<trace::Trace> traces_override_;
  bool has_interests_ = false;
  bool has_traces_ = false;
};

/// Submission order RunAll uses when fanning specs out to the worker
/// pool: indices of `specs` sorted longest-estimated-run-first (ticks x
/// cooperation-degree heuristic), ties broken by original index.
/// Results always come back in spec order regardless; exposed so the
/// scheduling policy itself is testable.
std::vector<size_t> LongestFirstOrder(const std::vector<RunSpec>& specs,
                                      const WorkloadConfig& workload);

/// OK iff `name` is a policy core::MakeDisseminator knows; the error
/// lists the known policy names.
Status ValidatePolicyName(const std::string& name);

/// Deterministic per-source run seed: decorrelates the RNG streams of
/// sharded multi-source runs that share one base seed.
uint64_t PerSourceSeed(uint64_t base_seed, size_t source_index);

}  // namespace d3t::exp

#endif  // D3T_EXP_SESSION_H_
