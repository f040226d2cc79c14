#include "pipeline.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/random.h"
#include "core/coop_degree.h"
#include "core/disseminator.h"
#include "exp/scenario.h"
#include "net/routing.h"
#include "net/topology_generator.h"
#include "net/transport.h"
#include "trace/synthetic.h"

namespace d3t::e2e {
namespace {

// No progress on the feed for this long is a wedge, not a slow run.
constexpr double kFeedStallSeconds = 60.0;

WorldView ViewOf(const exp::World& world) {
  WorldView view;
  view.delays = &world.delays();
  view.mean_pair_delay_us = world.pair_delay_stats().mean();
  view.traces = &world.traces();
  view.timelines = &world.change_timelines();
  view.interests = &world.interests();
  view.items = world.workload().items;
  view.repositories = world.network().repositories;
  return view;
}

WorldView ViewOf(const ComposedWorld& world, const Workload& w) {
  WorldView view;
  view.delays = &world.delays.front();
  view.mean_pair_delay_us = world.pair_delay_stats.mean();
  view.traces = &world.traces;
  view.timelines = &world.timelines;
  view.interests = &world.interests;
  view.items = w.workload.items;
  view.repositories = w.network.repositories;
  return view;
}

// SessionBuilder::Build, one span per stage, with the same RNG forks.
Result<std::unique_ptr<ComposedWorld>> ComposeWorld(const Workload& w,
                                                    uint64_t seed,
                                                    Ledger& ledger) {
  auto world = std::make_unique<ComposedWorld>();
  Rng master(seed);
  Rng topo_rng = master.Fork(1);
  Rng trace_rng = master.Fork(2);
  Rng interest_rng = master.Fork(3);

  net::TopologyGeneratorOptions topo_options;
  topo_options.router_count = w.network.routers;
  topo_options.repository_count = w.network.repositories;
  topo_options.source_count = w.network.source_count;
  topo_options.link_delay_min_ms = w.network.link_delay_min_ms;
  topo_options.link_delay_mean_ms = w.network.link_delay_mean_ms;
  std::optional<net::Topology> topo;
  {
    Ledger::Scope span(ledger, "net.topology");
    Result<net::Topology> generated =
        net::GenerateTopology(topo_options, topo_rng);
    if (!generated.ok()) return generated.status();
    topo.emplace(std::move(generated).value());
  }
  const double heap_before_routing = HeapInUseMib();
  {
    Ledger::Scope span(ledger, "net.routing");
    if (w.network.use_floyd_warshall) {
      Result<net::RoutingTables> routing =
          net::RoutingTables::FloydWarshall(*topo);
      if (!routing.ok()) return routing.status();
      Result<net::OverlayDelayModel> delays =
          net::OverlayDelayModel::FromRouting(*topo, *routing);
      if (!delays.ok()) return delays.status();
      world->delays.push_back(std::move(delays).value());
      world->routed_rows = routing->node_count();
    } else {
      Result<std::vector<net::OverlayDelayModel>> delays =
          net::OverlayDelayModel::FromTopologyAllSources(*topo,
                                                         BuildThreads());
      if (!delays.ok()) return delays.status();
      world->delays = std::move(delays).value();
      world->routed_rows = world->delays.front().member_count();
    }
  }
  world->routing_heap_mib = HeapInUseMib() - heap_before_routing;
  {
    Ledger::Scope span(ledger, "trace.library");
    world->traces = trace::BuildTraceLibrary(w.workload.items,
                                             w.workload.ticks, trace_rng);
  }
  {
    Ledger::Scope span(ledger, "net.pair_stats");
    world->pair_delay_stats = world->delays.front().PairDelayStats();
    world->mean_pair_hops = world->delays.front().MeanPairHops();
  }
  {
    Ledger::Scope span(ledger, "core.timelines");
    world->timelines = core::BuildChangeTimelines(world->traces);
  }
  {
    Ledger::Scope span(ledger, "core.interests");
    core::InterestOptions options;
    options.repository_count = w.network.repositories;
    options.item_count = w.workload.items;
    options.item_probability = w.workload.item_probability;
    options.stringent_fraction = w.workload.stringent_fraction;
    world->interests = core::GenerateInterests(options, interest_rng);
  }
  return world;
}

core::EngineOptions EngineOptionsFor(const exp::PolicyConfig& policy) {
  core::EngineOptions options;
  options.comp_delay = sim::Millis(policy.comp_delay_ms);
  options.tag_check_cost_factor = policy.tag_check_cost_factor;
  options.coalesce_deliveries = policy.coalesce_deliveries;
  options.drain_process_spans = policy.drain_process_spans;
  options.repair_policy = *core::ParseRepairPolicy(policy.repair_policy);
  options.repair_delay = sim::Millis(policy.repair_delay_ms);
  return options;
}

// Byte equality: "identical" means identical bits, so -0.0 != 0.0.
template <typename T>
bool SameBytes(const T& a, const T& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}
template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename T>
void FlipLowBit(T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  bytes[0] ^= 1;
  std::memcpy(&value, bytes, sizeof(T));
}
template <typename T>
void FlipLowBit(std::vector<T>& values) {
  if (values.empty()) {
    values.push_back(T{});
  } else {
    FlipLowBit(values.back());
  }
}

// Every field of the metrics structs, in declaration order. The byte
// comparison sees only the fields listed here; the static_asserts below
// fail the build when a field is added to a struct and not to its list.
#define D3T_E2E_ENGINE_FIELDS(X)                                      \
  X(loss_percent) X(pair_loss_percent) X(tracked_pairs)               \
  X(per_member_loss) X(messages) X(source_messages) X(checks)         \
  X(source_checks) X(source_updates) X(events) X(delivery_batches)    \
  X(coalesced_messages) X(process_wakeups) X(scenario_ops) X(repairs) \
  X(orphaned_ticks) X(dropped_jobs) X(outage_pair_time)               \
  X(outage_out_of_sync_time) X(outage_loss_percent) X(horizon)

#define D3T_E2E_PULL_FIELDS(X)                                          \
  X(loss_percent) X(per_member_loss) X(polls) X(wire_messages)         \
  X(changed_polls) X(scenario_ops) X(suppressed_polls)                 \
  X(outage_pair_time) X(outage_out_of_sync_time) X(outage_loss_percent) \
  X(horizon) X(source_utilization)

// Every field is 8-byte aligned, so the struct has no padding and its
// size is the sum of the listed fields' sizes.
#define D3T_E2E_ENGINE_SIZE(field) +sizeof(core::EngineMetrics::field)
#define D3T_E2E_PULL_SIZE(field) +sizeof(core::PullMetrics::field)
static_assert(sizeof(core::EngineMetrics) ==
                  0 D3T_E2E_ENGINE_FIELDS(D3T_E2E_ENGINE_SIZE),
              "EngineMetrics changed: update D3T_E2E_ENGINE_FIELDS");
static_assert(sizeof(core::PullMetrics) ==
                  0 D3T_E2E_PULL_FIELDS(D3T_E2E_PULL_SIZE),
              "PullMetrics changed: update D3T_E2E_PULL_FIELDS");
#undef D3T_E2E_ENGINE_SIZE
#undef D3T_E2E_PULL_SIZE

// One world at `seed`: the public session (or its composition), the
// churn script and, for serving, the node's overlay and feed link.
Result<Setup> BuildSetup(const Workload& w, uint64_t seed, bool composed,
                         Ledger& ledger) {
  Setup setup;
  setup.seed = seed;
  if (composed) {
    Result<std::unique_ptr<ComposedWorld>> world =
        ComposeWorld(w, seed, ledger);
    if (!world.ok()) return world.status();
    setup.composed = std::move(world).value();
    setup.view = ViewOf(*setup.composed, w);
  } else {
    Result<exp::SimulationSession> session =
        exp::SessionBuilder()
            .SetNetwork(w.network)
            .SetWorkload(w.workload)
            .SetSeed(seed)
            .SetWorkerThreads(BuildThreads())
            .Build();
    if (!session.ok()) return session.status();
    setup.session.emplace(std::move(session).value());
    setup.view = ViewOf(setup.session->world());
  }
  if (w.churn_failures > 0) {
    Ledger::Scope span(ledger, "exp.churn_script");
    exp::ChurnOptions churn;
    churn.repositories = w.network.repositories;
    churn.failures = w.churn_failures;
    churn.horizon = setup.view.traces->front().ticks().back().time;
    churn.min_outage_fraction = w.churn_outage.first;
    churn.max_outage_fraction = w.churn_outage.second;
    churn.seed = seed;
    Result<core::Scenario> scenario = exp::MakeChurnScenario(churn);
    if (!scenario.ok()) return scenario.status();
    setup.scenario = std::move(scenario).value();
  }
  if (w.serve) {
    Result<core::Overlay> overlay =
        BuildRunOverlay(setup.view, SpecFor(w, w.runs.front(), setup), ledger);
    if (!overlay.ok()) return overlay.status();
    setup.overlay =
        std::make_unique<core::Overlay>(std::move(overlay).value());
    Result<std::unique_ptr<FeedLink>> link = ConnectFeed(ledger);
    if (!link.ok()) return link.status();
    setup.feed = std::move(link).value();
  }
  return setup;
}

}  // namespace

size_t BuildThreads() {
  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  return std::min<size_t>(4, hardware);
}

exp::RunSpec SpecFor(const Workload& w, const exp::PolicyConfig& policy,
                     const Setup& setup) {
  exp::RunSpec spec;
  spec.overlay = w.overlay;
  spec.policy = policy;
  spec.scenario = setup.scenario;
  spec.seed = setup.seed;
  spec.label = "world " + std::to_string(setup.seed) + " " + policy.policy +
               "/" + policy.repair_policy;
  return spec;
}

Result<std::vector<Setup>> BuildWorlds(const Workload& w, uint64_t seed,
                                       bool composed, Ledger& ledger) {
  Ledger::Scope root(ledger, "exp.setup");
  std::vector<Setup> worlds;
  for (size_t i = 0; i < w.worlds; ++i) {
    Result<Setup> setup = BuildSetup(w, seed * w.worlds + i, composed, ledger);
    if (!setup.ok()) return setup.status();
    worlds.push_back(std::move(setup).value());
  }
  return worlds;
}

Result<core::Overlay> BuildRunOverlay(const WorldView& view,
                                      const exp::RunSpec& spec,
                                      Ledger& ledger, uint64_t* lela_edges) {
  // Effective cooperation degree, as Session::Run derives it.
  size_t degree = std::max<size_t>(1, spec.overlay.coop_degree);
  if (spec.overlay.controlled_cooperation) {
    core::CoopDegreeInputs inputs;
    inputs.avg_comm_delay = static_cast<sim::SimTime>(view.mean_pair_delay_us);
    inputs.avg_comp_delay = sim::Millis(spec.policy.comp_delay_ms);
    inputs.f = spec.overlay.coop_f;
    inputs.max_resources = view.repositories;
    degree = std::min(degree, core::ComputeCooperationDegree(inputs));
  }
  core::LelaOptions options;
  options.coop_degree = degree;
  options.p_window = spec.overlay.p_window;
  options.preference = spec.overlay.preference;
  options.insertion_order = spec.overlay.insertion_order;
  Rng rng = Rng(spec.seed).Fork(4);
  std::optional<core::LelaResult> built;
  {
    Ledger::Scope span(ledger, "core.lela");
    Result<core::LelaResult> result = core::BuildOverlay(
        *view.delays, *view.interests, view.items, options, rng);
    if (!result.ok()) return result.status();
    built.emplace(std::move(result).value());
  }
  {
    Ledger::Scope span(ledger, "core.validate");
    D3T_RETURN_IF_ERROR(built->overlay.Validate(degree));
  }
  {
    Ledger::Scope span(ledger, "core.shape");
    (void)built->overlay.ComputeShape();
  }
  if (lela_edges != nullptr) {
    *lela_edges = built->info.demand_edges + built->info.augmented_edges;
  }
  return std::move(built->overlay);
}

Op ComposedRun(const WorldView& view, const exp::RunSpec& spec,
               Ledger& ledger, obs::Recorder* recorder,
               obs::Registry* registry) {
  Op op;
  op.label = spec.label;
  const Clock::time_point start = Clock::now();
  op.status = spec.scenario.ValidateAgainst(view.repositories + 1,
                                            view.items);
  if (!op.status.ok()) return op;
  Result<core::Overlay> overlay =
      BuildRunOverlay(view, spec, ledger, &op.lela_edges);
  if (!overlay.ok()) {
    op.status = overlay.status();
    return op;
  }
  std::unique_ptr<core::Disseminator> policy =
      core::MakeDisseminator(spec.policy.policy);
  if (policy == nullptr) {
    op.status = Status::InvalidArgument("unknown policy " + spec.policy.policy);
    return op;
  }
  core::EngineOptions options = EngineOptionsFor(spec.policy);
  options.recorder = recorder;
  options.registry = registry;
  const core::Scenario* scenario =
      spec.scenario.empty() ? nullptr : &spec.scenario;
  std::optional<core::Engine> engine;
  const double heap_before_engine = HeapInUseMib();
  Clock::time_point t = Clock::now();
  {
    Ledger::Scope span(ledger, "core.engine_ctor");
    engine.emplace(*overlay, *view.delays, *view.traces, *policy, options,
                   view.timelines, scenario);
  }
  op.ctor_s = SecondsSince(t);
  t = Clock::now();
  Result<core::EngineMetrics> metrics = Status::Internal("not run");
  {
    Ledger::Scope span(ledger, "core.engine_loop");
    metrics = engine->Run();
  }
  op.loop_s = SecondsSince(t);
  op.engine_heap_mib = HeapInUseMib() - heap_before_engine;
  engine.reset();
  if (!metrics.ok()) {
    op.status = metrics.status();
  } else {
    op.engine = std::move(metrics).value();
  }
  op.seconds = SecondsSince(start);
  op.engine_seconds = op.seconds;
  return op;
}

Op RunPull(const WorldView& view, Ledger& ledger) {
  Op op;
  op.label = "pull";
  op.is_pull = true;
  const Clock::time_point start = Clock::now();
  Result<core::PullMetrics> metrics = Status::Internal("not run");
  {
    Ledger::Scope span(ledger, "core.pull_loop");
    core::PullEngine engine(*view.delays, *view.interests, *view.traces,
                            core::PullOptions{}, view.timelines);
    metrics = engine.Run();
  }
  op.seconds = SecondsSince(start);
  if (!metrics.ok()) {
    op.status = metrics.status();
  } else {
    op.pull = std::move(metrics).value();
  }
  return op;
}

Result<std::unique_ptr<FeedLink>> ConnectFeed(Ledger& ledger) {
  Ledger::Scope span(ledger, "net.socket_connect");
  auto link = std::make_unique<FeedLink>();
  D3T_RETURN_IF_ERROR(link->node.Listen());
  D3T_RETURN_IF_ERROR(link->publisher.ConnectPeer(0, link->node.port()));
  return link;
}

Result<ServeResult> ServeFeed(const WorldView& view, core::Overlay& overlay,
                              const exp::RunSpec& spec, FeedLink& link,
                              Ledger& ledger) {
  const core::Scenario* scenario =
      spec.scenario.empty() ? nullptr : &spec.scenario;
  net::InProcTransport data(overlay.member_count(), 64);
  serve::NodeOptions options;
  options.feed_self = 0;
  options.policy = spec.policy.policy;
  options.engine = EngineOptionsFor(spec.policy);
  serve::Node node(overlay, *view.delays, link.node, data, options);
  serve::FeedPublisher publisher(*view.traces, scenario,
                                 overlay.member_count(), spec.seed,
                                 link.publisher, /*self=*/1,
                                 /*subscribers=*/{0});
  // The link outlives units; report this feed's share of its counters.
  const net::TransportMetrics tx_before = link.publisher.metrics();
  const uint64_t rx_errors_before = link.node.metrics().decode_errors;

  ServeResult result;
  Clock::time_point start = Clock::now();
  {
    Ledger::Scope feed_span(ledger, "serve.feed");
    Clock::time_point last_progress = start;
    while (!node.feed_complete()) {
      size_t sent = 0;
      {
        Ledger::Scope span(ledger, "serve.publisher_pump");
        sent = publisher.Pump();
      }
      D3T_RETURN_IF_ERROR(publisher.status());
      {
        Ledger::Scope span(ledger, "net.socket_pump");
        D3T_RETURN_IF_ERROR(link.publisher.Pump());
        D3T_RETURN_IF_ERROR(link.node.Pump());
      }
      Result<size_t> polled = size_t{0};
      {
        Ledger::Scope span(ledger, "serve.node_poll_feed");
        polled = node.PollFeed();
      }
      if (!polled.ok()) return polled.status();
      ++result.rounds;
      if (sent + *polled > 0) {
        last_progress = Clock::now();
      } else if (!node.feed_complete()) {
        if (SecondsSince(last_progress) > kFeedStallSeconds) {
          return Status::IoError("feed stalled at seq " +
                                 std::to_string(node.feed_next_seq()));
        }
        (void)link.node.WaitIo(10);  // a timeout here is just a quiet wait
      }
    }
  }
  result.feed_s = SecondsSince(start);
  start = Clock::now();
  Result<serve::NodeReport> report = Status::Internal("not served");
  {
    Ledger::Scope span(ledger, "serve.node_serve");
    report = node.Serve();
  }
  result.serve_s = SecondsSince(start);
  if (!report.ok()) return report.status();
  result.report = std::move(report).value();
  result.socket_bytes = link.publisher.metrics().bytes_tx - tx_before.bytes_tx;
  result.socket_stalls = link.publisher.metrics().backpressure_stalls -
                         tx_before.backpressure_stalls;
  result.socket_decode_errors =
      link.node.metrics().decode_errors - rx_errors_before;
  return result;
}

Unit RunUnit(const Workload& w, std::vector<Setup>& worlds, Ledger& ledger,
             HostReference* reference) {
  Unit unit;
  double before = reference != nullptr ? reference->Time() : 0.0;
  double reference_s = 0.0;
  // Scales the operation just pushed by the kernel's times around it.
  auto stamp = [&] {
    if (reference == nullptr) return;
    const Clock::time_point t = Clock::now();
    const double after = reference->Time();
    Op& op = unit.ops.back();
    op.scaled_seconds = HostReference::Scale(op.seconds, before, after);
    op.scaled_engine_seconds =
        HostReference::Scale(op.engine_seconds, before, after);
    before = after;
    reference_s += SecondsSince(t);
  };
  const Clock::time_point start = Clock::now();
  Ledger::Scope root(ledger, "exp.unit");
  for (Setup& setup : worlds) {
    if (w.serve) {
      const exp::RunSpec spec = SpecFor(w, w.runs.front(), setup);
      Op op;
      op.label = spec.label + " served";
      const Clock::time_point t = Clock::now();
      Result<ServeResult> served =
          ServeFeed(setup.view, *setup.overlay, spec, *setup.feed, ledger);
      op.seconds = SecondsSince(t);
      if (!served.ok()) {
        op.status = served.status();
      } else {
        op.engine = served->report.engine;
        op.engine_seconds = served->serve_s;
        op.serve = std::move(served).value();
      }
      unit.ops.push_back(std::move(op));
      stamp();
    } else {
      for (const exp::PolicyConfig& policy : w.runs) {
        const exp::RunSpec spec = SpecFor(w, policy, setup);
        Ledger::Scope span(ledger, "exp.run");
        Op op;
        if (setup.session.has_value()) {
          op.label = spec.label;
          const Clock::time_point t = Clock::now();
          Result<exp::ExperimentResult> result = setup.session->Run(spec);
          op.seconds = SecondsSince(t);
          op.engine_seconds = op.seconds;
          if (!result.ok()) {
            op.status = result.status();
          } else {
            op.engine = std::move(result->metrics);
          }
        } else {
          op = ComposedRun(setup.view, spec, ledger);
        }
        unit.ops.push_back(std::move(op));
        stamp();
      }
    }
    if (w.pull) {
      Ledger::Scope span(ledger, "exp.run");
      Op op = RunPull(setup.view, ledger);
      op.label = "world " + std::to_string(setup.seed) + " " + op.label;
      unit.ops.push_back(std::move(op));
      stamp();
    }
  }
  for (const Op& op : unit.ops) {
    if (!op.is_pull && op.status.ok()) unit.events += op.engine.events;
  }
  unit.seconds = SecondsSince(start) - reference_s;
  return unit;
}

std::string FirstDifference(const core::EngineMetrics& a,
                            const core::EngineMetrics& b) {
#define D3T_E2E_COMPARE(field) \
  if (!SameBytes(a.field, b.field)) return #field;
  D3T_E2E_ENGINE_FIELDS(D3T_E2E_COMPARE)
  return "";
}

std::string FirstDifference(const core::PullMetrics& a,
                            const core::PullMetrics& b) {
  D3T_E2E_PULL_FIELDS(D3T_E2E_COMPARE)
  return "";
#undef D3T_E2E_COMPARE
}

std::string FirstDifference(const Op& a, const Op& b) {
  if (a.is_pull != b.is_pull) return "operation kind";
  return a.is_pull ? FirstDifference(a.pull, b.pull)
                   : FirstDifference(a.engine, b.engine);
}

const std::vector<std::string>& EngineFieldNames() {
#define D3T_E2E_NAME(field) #field,
  static const std::vector<std::string> names = {
      D3T_E2E_ENGINE_FIELDS(D3T_E2E_NAME)};
#undef D3T_E2E_NAME
  return names;
}

void PerturbField(core::EngineMetrics& m, const std::string& field) {
#define D3T_E2E_PERTURB(name) \
  if (field == #name) FlipLowBit(m.name);
  D3T_E2E_ENGINE_FIELDS(D3T_E2E_PERTURB)
#undef D3T_E2E_PERTURB
}

}  // namespace d3t::e2e
