#include "exp/session.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <optional>

#include "common/thread_pool.h"
#include "core/coop_degree.h"
#include "core/disseminator.h"
#include "core/lela.h"
#include "net/routing.h"
#include "net/topology_generator.h"
#include "trace/synthetic.h"

namespace d3t::exp {
namespace {

std::atomic<uint64_t> g_world_build_count{0};

/// Largest millisecond magnitude a RunSpec may carry: sim::Millis casts
/// ms * 1000 to an int64 microsecond count, which holds ~9.22e15 ms, and
/// a larger (or non-finite) value makes that cast undefined.
constexpr double kMaxMillis = 9e15;

/// InvalidArgument naming `field` unless `value` is finite and within
/// [0, kMaxMillis], or [-kMaxMillis, kMaxMillis] with `allow_negative`.
Status CheckRange(const char* field, double value, bool allow_negative) {
  const double min = allow_negative ? -kMaxMillis : 0.0;
  if (std::isfinite(value) && value >= min && value <= kMaxMillis) {
    return Status::Ok();
  }
  return Status::InvalidArgument(
      std::string(field) + " must be finite and in " +
      (allow_negative ? "[-9e15, 9e15]" : "[0, 9e15]") + ", got " +
      std::to_string(value));
}

Status ValidateRunSpec(const World& world, const RunSpec& spec) {
  D3T_RETURN_IF_ERROR(ValidatePolicyName(spec.policy.policy));
  if (spec.source_index >= world.source_count()) {
    return Status::InvalidArgument(
        "source_index " + std::to_string(spec.source_index) +
        " out of range: the world has " +
        std::to_string(world.source_count()) + " source(s)");
  }
  D3T_RETURN_IF_ERROR(
      core::ParseRepairPolicy(spec.policy.repair_policy).status());
  const PolicyConfig& policy = spec.policy;
  D3T_RETURN_IF_ERROR(CheckRange("comp_delay_ms", policy.comp_delay_ms,
                                 /*allow_negative=*/false));
  // A negative comm_delay_mean_ms is meaningful: it zeroes every delay.
  D3T_RETURN_IF_ERROR(CheckRange("comm_delay_mean_ms",
                                 policy.comm_delay_mean_ms,
                                 /*allow_negative=*/true));
  D3T_RETURN_IF_ERROR(CheckRange("repair_delay_ms", policy.repair_delay_ms,
                                 /*allow_negative=*/false));
  // One policy-internal check costs factor x comp_delay_ms, which the
  // engine converts to microseconds like the delays above.
  D3T_RETURN_IF_ERROR(CheckRange("tag_check_cost_factor",
                                 policy.tag_check_cost_factor,
                                 /*allow_negative=*/false));
  if (policy.tag_check_cost_factor * policy.comp_delay_ms > kMaxMillis) {
    return Status::InvalidArgument(
        "tag_check_cost_factor x comp_delay_ms must be <= 9e15 ms");
  }
  if (spec.overlay.coop_degree == 0) {
    return Status::InvalidArgument("coop_degree must be >= 1, got 0");
  }
  if (!std::isfinite(spec.overlay.coop_f)) {
    return Status::InvalidArgument("coop_f must be finite, got " +
                                   std::to_string(spec.overlay.coop_f));
  }
  if (!(std::isfinite(spec.overlay.p_window) && spec.overlay.p_window >= 0)) {
    return Status::InvalidArgument("p_window must be finite and >= 0, got " +
                                   std::to_string(spec.overlay.p_window));
  }
  // Member 0 is the source; repositories are members 1..N.
  D3T_RETURN_IF_ERROR(spec.scenario.ValidateAgainst(
      world.network().repositories + 1, world.workload().items));
  return Status::Ok();
}

}  // namespace

Status ValidatePolicyName(const std::string& name) {
  const std::vector<std::string>& known = core::KnownPolicyNames();
  if (std::find(known.begin(), known.end(), name) != known.end()) {
    return Status::Ok();
  }
  std::string message = "unknown policy '" + name + "'; known policies:";
  for (const std::string& policy : known) message += " " + policy;
  return Status::InvalidArgument(message);
}

uint64_t PerSourceSeed(uint64_t base_seed, size_t source_index) {
  // golden-ratio-unrelated odd constant so PerSourceSeed(s, i) never
  // collides with the Fork() stream family derived from the same seed.
  uint64_t state =
      base_seed ^
      (0xd1b54a32d192ed03ULL * (static_cast<uint64_t>(source_index) + 1));
  return SplitMix64(state);
}

uint64_t World::BuildCount() {
  return g_world_build_count.load(std::memory_order_relaxed);
}

std::vector<core::InterestSet> World::OwnedInterests(
    size_t source_index) const {
  if (source_count() == 1) return interests_;
  std::vector<core::InterestSet> owned(interests_.size());
  for (size_t i = 0; i < interests_.size(); ++i) {
    for (const auto& [item, c] : interests_[i]) {
      if (item % source_count() == source_index) owned[i].emplace(item, c);
    }
  }
  return owned;
}

size_t World::OwnedItemCount(size_t source_index) const {
  const size_t sources = source_count();
  size_t count = 0;
  for (size_t item = 0; item < workload_.items; ++item) {
    if (item % sources == source_index) ++count;
  }
  return count;
}

Result<SimulationSession> SessionBuilder::Build() const& {
  return BuildInternal(interests_override_, traces_override_);
}

Result<SimulationSession> SessionBuilder::Build() && {
  return BuildInternal(std::move(interests_override_),
                       std::move(traces_override_));
}

Result<SimulationSession> SessionBuilder::BuildInternal(
    std::vector<core::InterestSet> interests,
    std::vector<trace::Trace> traces) const {
  if (network_.repositories == 0 || workload_.items == 0 ||
      workload_.ticks < 2) {
    return Status::InvalidArgument(
        "need >=1 repository, >=1 item and >=2 ticks");
  }
  if (network_.source_count == 0) {
    return Status::InvalidArgument("need at least one source");
  }
  if (has_interests_ && interests.size() != network_.repositories) {
    return Status::InvalidArgument(
        "interest override must cover every repository");
  }
  if (has_traces_) {
    if (traces.size() != workload_.items) {
      return Status::InvalidArgument(
          "trace override must supply one trace per item");
    }
    for (const trace::Trace& trace : traces) {
      if (trace.empty()) {
        return Status::InvalidArgument("trace override contains an empty "
                                       "trace");
      }
    }
  }

  // Stream assignment is part of the public contract: the golden
  // metrics pin these exact forks.
  Rng master(seed_);
  Rng topo_rng = master.Fork(1);
  Rng trace_rng = master.Fork(2);
  Rng interest_rng = master.Fork(3);

  net::TopologyGeneratorOptions topo_options;
  topo_options.router_count = network_.routers;
  topo_options.repository_count = network_.repositories;
  topo_options.source_count = network_.source_count;
  topo_options.link_delay_min_ms = network_.link_delay_min_ms;
  topo_options.link_delay_mean_ms = network_.link_delay_mean_ms;
  Result<net::Topology> topo = net::GenerateTopology(topo_options, topo_rng);
  if (!topo.ok()) return topo.status();

  auto world = std::shared_ptr<World>(new World());
  world->network_ = network_;
  world->workload_ = workload_;
  world->seed_ = seed_;

  if (network_.source_count == 1 && network_.use_floyd_warshall) {
    // The paper's algorithm: full Floyd-Warshall APSP, byte-identical to
    // the default below at O(V^3).
    Result<net::RoutingTables> routing =
        net::RoutingTables::FloydWarshall(*topo);
    if (!routing.ok()) return routing.status();
    Result<net::OverlayDelayModel> delays =
        net::OverlayDelayModel::FromRouting(*topo, *routing);
    if (!delays.ok()) return delays.status();
    world->delays_.push_back(std::move(delays).value());
  } else {
    // Default: stream one Dijkstra row per member, searched on the
    // topology's member core, straight into the compressed
    // member-indexed model(s) — no routing table over physical nodes is
    // ever materialized, which is what keeps 10k-repository worlds
    // memory-bounded. Rows are independent, so the build fans out over
    // the session's worker budget.
    const size_t build_threads = worker_threads_ == 0
                                     ? ThreadPool::DefaultThreadCount()
                                     : worker_threads_;
    Result<std::vector<net::OverlayDelayModel>> delays =
        net::OverlayDelayModel::FromTopologyAllSources(*topo, build_threads);
    if (!delays.ok()) return delays.status();
    world->delays_ = std::move(delays).value();
  }

  if (has_traces_) {
    world->traces_ = std::move(traces);
  } else {
    world->traces_ =
        trace::BuildTraceLibrary(workload_.items, workload_.ticks, trace_rng);
    if (world->traces_.size() != workload_.items) {
      return Status::Internal("trace library generation failed");
    }
  }

  // Pair statistics of each delay model are World-invariant; computing
  // them here, in one fused pass per model, spares every run its own
  // O(member^2) matrix scans.
  for (const net::OverlayDelayModel& delays : world->delays_) {
    world->pair_stats_.push_back(delays.ComputePairStats());
  }

  // Compacted per-item change timelines are trace-invariant, so one copy
  // built here serves every run of the session (the engines' lazy
  // trackers bind read-only views).
  world->change_timelines_ = core::BuildChangeTimelines(world->traces_);

  if (has_interests_) {
    world->interests_ = std::move(interests);
  } else {
    core::InterestOptions interest_options;
    interest_options.repository_count = network_.repositories;
    interest_options.item_count = workload_.items;
    interest_options.item_probability = workload_.item_probability;
    interest_options.stringent_fraction = workload_.stringent_fraction;
    world->interests_ =
        core::GenerateInterests(interest_options, interest_rng);
  }

  g_world_build_count.fetch_add(1, std::memory_order_relaxed);
  return SimulationSession(std::move(world), worker_threads_);
}

Result<ExperimentResult> SimulationSession::Run(const RunSpec& spec) const {
  const World& world = *world_;
  D3T_RETURN_IF_ERROR(ValidateRunSpec(world, spec));

  // Communication-delay scaling (Figs. 5 and 7b sweep the mean delay).
  // The world's model is only copied when a rescale actually asks for
  // one — at 10k repositories the member matrix is ~600 MiB, so an
  // unconditional per-run copy would double peak RSS and burn a large
  // memcpy per sweep point.
  const net::OverlayDelayModel* delays_ptr = &world.delays(spec.source_index);
  std::optional<net::OverlayDelayModel> scaled;
  if (spec.policy.comm_delay_mean_ms != 0.0) {
    // A negative mean forces all-zero delays.
    Result<net::OverlayDelayModel> rescaled = delays_ptr->ScaledToMeanDelay(
        std::max<sim::SimTime>(0, sim::Millis(spec.policy.comm_delay_mean_ms)));
    if (!rescaled.ok()) return rescaled.status();
    scaled = std::move(rescaled).value();
    delays_ptr = &*scaled;
  }
  const net::OverlayDelayModel& delays = *delays_ptr;

  // Pair stats come from the World's cache unless this run rescaled the
  // delay model (hops are never rescaled, so their cache always holds).
  const StreamingStats pair_delay_stats =
      scaled.has_value() ? delays.PairDelayStats()
                         : world.pair_delay_stats(spec.source_index);

  ExperimentResult result;
  result.mean_pair_delay_ms = pair_delay_stats.mean() / 1000.0;
  result.mean_pair_hops = world.mean_pair_hops(spec.source_index);

  // Effective cooperation degree.
  size_t degree = spec.overlay.coop_degree;
  if (spec.overlay.controlled_cooperation) {
    core::CoopDegreeInputs inputs;
    inputs.avg_comm_delay =
        static_cast<sim::SimTime>(pair_delay_stats.mean());
    inputs.avg_comp_delay = sim::Millis(spec.policy.comp_delay_ms);
    inputs.f = spec.overlay.coop_f;
    inputs.max_resources = world.network().repositories;
    degree = std::min(degree, core::ComputeCooperationDegree(inputs));
  }
  result.effective_degree = degree;

  // Multi-source worlds restrict this run to the items its source owns;
  // single-source runs borrow the world's interests without copying.
  const std::vector<core::InterestSet>* interests = &world.interests();
  std::vector<core::InterestSet> owned;
  if (world.source_count() > 1) {
    owned = world.OwnedInterests(spec.source_index);
    interests = &owned;
  }

  core::LelaOptions lela_options;
  lela_options.coop_degree = degree;
  lela_options.p_window = spec.overlay.p_window;
  lela_options.preference = spec.overlay.preference;
  lela_options.insertion_order = spec.overlay.insertion_order;
  Rng lela_rng = Rng(spec.seed).Fork(4);
  Result<core::LelaResult> built =
      core::BuildOverlay(delays, *interests, world.workload().items,
                         lela_options, lela_rng);
  if (!built.ok()) return built.status();
  // Defense in depth: never simulate on a malformed overlay.
  D3T_RETURN_IF_ERROR(built->overlay.Validate(degree));
  result.shape = built->overlay.ComputeShape();

  std::unique_ptr<core::Disseminator> policy =
      core::MakeDisseminator(spec.policy.policy);
  if (policy == nullptr) {
    // Unreachable unless KnownPolicyNames() and the factory diverge.
    return Status::Internal("policy '" + spec.policy.policy +
                            "' is listed as known but has no factory");
  }

  core::EngineOptions engine_options;
  engine_options.comp_delay = sim::Millis(spec.policy.comp_delay_ms);
  engine_options.tag_check_cost_factor = spec.policy.tag_check_cost_factor;
  engine_options.coalesce_deliveries = spec.policy.coalesce_deliveries;
  engine_options.drain_process_spans = spec.policy.drain_process_spans;
  // Already validated by ValidateRunSpec above.
  engine_options.repair_policy =
      *core::ParseRepairPolicy(spec.policy.repair_policy);
  engine_options.repair_delay = sim::Millis(spec.policy.repair_delay_ms);
  engine_options.recorder = spec.recorder;
  engine_options.registry = spec.registry;
  const core::Scenario* scenario =
      spec.scenario.empty() ? nullptr : &spec.scenario;
  // Wire mode: a per-run in-process bus whose rings the engine's
  // send-then-drain discipline keeps at depth <= 1, so a small fixed
  // capacity suffices for any world size.
  std::optional<net::InProcTransport> wire_bus;
  if (spec.policy.route_through_wire) {
    wire_bus.emplace(built->overlay.member_count(), 64);
    engine_options.wire_transport = &*wire_bus;
  }
  core::Engine engine(built->overlay, delays, world.traces(), *policy,
                      engine_options, &world.change_timelines(), scenario);
  Result<core::EngineMetrics> metrics = engine.Run();
  if (!metrics.ok()) return metrics.status();
  result.metrics = std::move(metrics).value();
  if (wire_bus.has_value()) result.wire = wire_bus->metrics();
  return result;
}

std::vector<size_t> LongestFirstOrder(const std::vector<RunSpec>& specs,
                                      const WorkloadConfig& workload) {
  std::vector<size_t> order(specs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  // Engine cost scales with the tick count and (through fan-out and
  // message volume) with the cooperation degree; ticks x degree is a
  // cheap proxy that keeps a degree-100 point from tail-blocking a
  // sweep whose degree-1 points were submitted ahead of it.
  auto cost = [&](const RunSpec& spec) {
    return static_cast<uint64_t>(workload.ticks) *
           static_cast<uint64_t>(std::max<size_t>(1, spec.overlay.coop_degree));
  };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return cost(specs[a]) > cost(specs[b]);
  });
  return order;
}

std::vector<Result<ExperimentResult>> SimulationSession::RunAll(
    const std::vector<RunSpec>& specs) const {
  std::vector<Result<ExperimentResult>> results(
      specs.size(), Result<ExperimentResult>(Status::Internal("not run")));
  size_t threads = worker_threads_ == 0 ? ThreadPool::DefaultThreadCount()
                                        : worker_threads_;
  threads = std::min(threads, specs.size());
  if (threads <= 1) {
    for (size_t i = 0; i < specs.size(); ++i) results[i] = Run(specs[i]);
    return results;
  }
  ThreadPool pool(threads);
  // Longest-estimated-first submission so uneven sweeps don't leave the
  // pool idle behind one late-submitted expensive point; results[i]
  // still corresponds to specs[i] no matter the execution order.
  for (size_t i : LongestFirstOrder(specs, world_->workload())) {
    pool.Submit([this, &specs, &results, i] { results[i] = Run(specs[i]); });
  }
  pool.Wait();
  return results;
}

}  // namespace d3t::exp
