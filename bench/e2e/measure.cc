#include "measure.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "net/wire.h"
#include "obs/recorder.h"
#include "obs/registry.h"

namespace d3t::e2e {
namespace {

// Ledger run id of the per-layer probes (outside every repetition).
constexpr int kProbeRun = -1;
constexpr size_t kMaxErrors = 8;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void Fail(Outcome& out, std::string why) {
  ++out.failed;
  if (out.errors.size() < kMaxErrors) out.errors.push_back(std::move(why));
}

// Counts one operation: it adds 1 to `attempted`, and 1 to `failed` on a
// non-OK Status, on any decode error, or when its metrics differ from
// `reference` (when given). Every operation goes through here once.
void AccountOp(Outcome& out, const Op& op, const Op* reference,
               const std::string& against) {
  ++out.attempted;
  if (!op.status.ok()) {
    Fail(out, op.label + ": " + op.status.ToString());
    return;
  }
  if (op.serve.has_value() && op.serve->report.data.decode_errors +
                                      op.serve->socket_decode_errors >
                                  0) {
    Fail(out, op.label + ": wire decode errors");
    return;
  }
  if (reference == nullptr) return;
  const std::string diff = FirstDifference(op, *reference);
  if (!diff.empty()) {
    Fail(out, op.label + ": metrics differ from " + against + " in " + diff);
  }
}

// Counts every operation of `unit`, each against the operation at the
// same index of `reference` (when given).
void AccountUnit(Outcome& out, const Unit& unit, const Unit* reference,
                 const std::string& against) {
  for (size_t i = 0; i < unit.ops.size(); ++i) {
    const Op* ref = reference != nullptr && i < reference->ops.size()
                        ? &reference->ops[i]
                        : nullptr;
    AccountOp(out, unit.ops[i], ref, against);
  }
}

void SetQuality(Outcome& out, const Unit& unit) {
  double loss = 0.0;
  uint64_t messages = 0;
  for (const Op& op : unit.ops) {
    loss += op.is_pull ? op.pull.loss_percent : op.engine.loss_percent;
    messages += op.is_pull ? op.pull.wire_messages : op.engine.messages;
  }
  out.loss_pct = unit.ops.empty() ? 0.0 : loss / unit.ops.size();
  out.messages = messages;
}

exp::PolicyConfig Policy(const char* name, const char* repair = "fallback",
                         double repair_delay_ms = 0.0) {
  exp::PolicyConfig policy;
  policy.policy = name;
  policy.repair_policy = repair;
  policy.repair_delay_ms = repair_delay_ms;
  return policy;
}

// Serving's reference: the served policy as one Session::Run per world,
// in the order of the unit's serve operations.
Unit DirectRuns(const Workload& w, const std::vector<Setup>& worlds) {
  Unit unit;
  for (const Setup& setup : worlds) {
    const exp::RunSpec spec = SpecFor(w, w.runs.front(), setup);
    Op op;
    op.label = spec.label + " direct";
    Result<exp::ExperimentResult> result = setup.session->Run(spec);
    if (!result.ok()) {
      op.status = result.status();
    } else {
      op.engine = std::move(result->metrics);
    }
    unit.ops.push_back(std::move(op));
  }
  return unit;
}

// The traced pass's per-repetition results.
struct Rep {
  Unit unit;
  /// Serving only: the composed direct Engine runs the feeds are checked
  /// against, one per world.
  Unit direct;
};

// One probe of each layer the workload's unit does not reach, on the
// unit's first world.
struct Probe {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::optional<Op> pull;
  std::optional<ServeResult> serve;
  double recorder_overhead_pct = 0.0;
  uint64_t recorded_events = 0;
};

// Encodes every feed frame of the world's traces, then decodes and
// checks them all.
Status CodecProbe(const WorldView& view, Ledger& ledger, Probe& probe) {
  std::vector<net::wire::Frame> frames;
  for (uint32_t item = 0; item < view.traces->size(); ++item) {
    const std::vector<trace::Tick>& ticks = (*view.traces)[item].ticks();
    for (uint32_t i = 0; i < ticks.size(); ++i) {
      frames.push_back(net::wire::Frame::SourceTick(
          item, i, ticks[i].time, ticks[i].value,
          static_cast<uint32_t>(frames.size() + 1)));
    }
  }
  std::vector<uint8_t> bytes(frames.size() * net::wire::kMaxFrameSize);
  size_t used = 0;
  Clock::time_point t = Clock::now();
  {
    Ledger::Scope span(ledger, "net.wire_encode");
    for (const net::wire::Frame& frame : frames) {
      const size_t n = net::wire::Encode(frame, bytes.data() + used,
                                         bytes.size() - used);
      if (n == 0) return Status::Internal("feed frame did not encode");
      used += n;
    }
  }
  probe.encode_ns = SecondsSince(t) * 1e9 / frames.size();
  t = Clock::now();
  {
    Ledger::Scope span(ledger, "net.wire_decode");
    size_t at = 0;
    for (const net::wire::Frame& frame : frames) {
      size_t consumed = 0;
      Result<net::wire::Frame> decoded =
          net::wire::Decode(bytes.data() + at, used - at, &consumed);
      if (!decoded.ok()) return decoded.status();
      if (decoded->type != frame.type ||
          std::memcmp(&decoded->u.source_tick, &frame.u.source_tick,
                      sizeof(frame.u.source_tick)) != 0) {
        return Status::Internal("feed frame did not round-trip");
      }
      at += consumed;
    }
  }
  probe.decode_ns = SecondsSince(t) * 1e9 / frames.size();
  return Status::Ok();
}

Probe RunProbes(const Workload& w, const Setup& setup, const Rep& rep0,
                Ledger& ledger, Outcome& out) {
  Probe probe;
  const exp::RunSpec spec = SpecFor(w, w.runs.front(), setup);
  {
    Ledger::Scope root(ledger, "exp.probe");
    ++out.attempted;
    const Status codec = CodecProbe(setup.view, ledger, probe);
    if (!codec.ok()) Fail(out, "wire codec: " + codec.ToString());
  }
  if (!w.pull) {
    Ledger::Scope root(ledger, "exp.probe");
    probe.pull = RunPull(setup.view, ledger);
    AccountOp(out, *probe.pull, nullptr, "");
  }
  if (!w.serve) {
    Ledger::Scope root(ledger, "exp.probe");
    Op op;
    op.label = "serve probe";
    Result<core::Overlay> overlay = BuildRunOverlay(setup.view, spec, ledger);
    Result<std::unique_ptr<FeedLink>> link =
        overlay.ok() ? ConnectFeed(ledger)
                     : Result<std::unique_ptr<FeedLink>>(overlay.status());
    if (!link.ok()) {
      op.status = link.status();
    } else {
      Result<ServeResult> served =
          ServeFeed(setup.view, *overlay, spec, **link, ledger);
      if (!served.ok()) {
        op.status = served.status();
      } else {
        op.engine = served->report.engine;
        op.serve = std::move(served).value();
        probe.serve = op.serve;
      }
    }
    AccountOp(out, op, &rep0.unit.ops.front(), "the direct run");
  }
  {
    // Recorder and registry attached vs not, alternated twice, keeping
    // the faster of each: timing noise only ever adds time.
    Ledger::Scope root(ledger, "exp.probe");
    double plain_s = 0.0, recorded_s = 0.0;
    for (int i = 0; i < 2; ++i) {
      const Op plain = ComposedRun(setup.view, spec, ledger);
      obs::Recorder recorder;
      obs::Registry registry;
      const Op recorded =
          ComposedRun(setup.view, spec, ledger, &recorder, &registry);
      AccountOp(out, plain, nullptr, "");
      AccountOp(out, recorded, &plain, "the unrecorded run");
      plain_s = i == 0 ? plain.loop_s : std::min(plain_s, plain.loop_s);
      recorded_s =
          i == 0 ? recorded.loop_s : std::min(recorded_s, recorded.loop_s);
      probe.recorded_events = recorder.recorded();
    }
    probe.recorder_overhead_pct = Ratio(recorded_s - plain_s, plain_s) * 100.0;
  }
  return probe;
}

// What a repetition's served feeds (or the serve probe) added up to.
struct ServeTotals {
  uint64_t rounds = 0;
  uint64_t socket_bytes = 0;
  uint64_t socket_stalls = 0;
  uint64_t decode_errors = 0;
  uint64_t feed_frames = 0;
  uint64_t data_frames = 0;
  double feed_s = 0.0;
  double serve_s = 0.0;

  void Add(const ServeResult& r) {
    rounds += r.rounds;
    socket_bytes += r.socket_bytes;
    socket_stalls += r.socket_stalls;
    decode_errors += r.report.data.decode_errors + r.socket_decode_errors;
    feed_frames += r.report.feed_frames;
    data_frames += r.report.data.frames_tx;
    feed_s += r.feed_s;
    serve_s += r.serve_s;
  }
};

// Every per-layer metric of repetition `run`. Stages the repetition
// did not reach are read from the probes.
std::map<std::string, double> LayerSample(const Workload& w,
                                          const Ledger& ledger, int run,
                                          const Rep& rep, const Rep& rep0,
                                          const std::vector<Setup>& worlds,
                                          const Probe& probe,
                                          double untraced_s,
                                          const Outcome& quality) {
  const std::map<std::string, double> self = ledger.SelfSeconds(run);
  const std::map<std::string, double> probe_self =
      ledger.SelfSeconds(kProbeRun);
  auto stage = [&](const char* name) {
    auto it = self.find(name);
    if (it != self.end()) return it->second;
    it = probe_self.find(name);
    return it != probe_self.end() ? it->second : 0.0;
  };
  std::map<std::string, double> m;

  double routed_rows = 0.0, routing_heap_mib = 0.0;
  for (const Setup& setup : worlds) {
    routed_rows += static_cast<double>(setup.composed->routed_rows);
    routing_heap_mib += setup.composed->routing_heap_mib;
  }
  m["net.topology_s"] = stage("net.topology");
  m["net.routing_s"] = stage("net.routing");
  m["net.routing_rows_per_s"] = Ratio(routed_rows, stage("net.routing"));
  m["net.routing_heap_mib"] = routing_heap_mib;
  m["net.pair_stats_s"] = stage("net.pair_stats");
  m["net.wire_encode_ns"] = probe.encode_ns;
  m["net.wire_decode_ns"] = probe.decode_ns;

  ServeTotals served;
  for (const Op& op : rep.unit.ops) {
    if (op.serve.has_value()) served.Add(*op.serve);
  }
  if (!w.serve && probe.serve.has_value()) served.Add(*probe.serve);
  m["net.socket_pump_s"] = stage("net.socket_pump");
  m["net.socket_bytes"] = static_cast<double>(served.socket_bytes);
  m["net.socket_stalls"] = static_cast<double>(served.socket_stalls);
  m["net.data_frames"] = static_cast<double>(served.data_frames);
  m["net.decode_errors"] = static_cast<double>(served.decode_errors);

  m["trace.library_s"] = stage("trace.library");
  m["core.timelines_s"] = stage("core.timelines");
  m["core.interests_s"] = stage("core.interests");
  m["core.lela_s"] = stage("core.lela");
  m["core.validate_s"] = stage("core.validate");

  // Push runs of the repetition (serving: its composed direct runs).
  std::vector<const Op*> push;
  for (const Op& op : rep.direct.ops) push.push_back(&op);
  for (const Op& op : rep.unit.ops) {
    if (!op.is_pull && !op.serve.has_value()) push.push_back(&op);
  }
  double edges = 0, events = 0, messages = 0, checks = 0, coalesced = 0,
         wakeups = 0, scenario_ops = 0, repairs = 0, dropped = 0,
         orphaned = 0, outage_loss = 0, engine_heap = 0;
  for (const Op* op : push) {
    const core::EngineMetrics& e = op->engine;
    edges += static_cast<double>(op->lela_edges);
    events += static_cast<double>(e.events);
    messages += static_cast<double>(e.messages);
    checks += static_cast<double>(e.checks);
    coalesced += static_cast<double>(e.coalesced_messages);
    wakeups += static_cast<double>(e.process_wakeups);
    scenario_ops += static_cast<double>(e.scenario_ops);
    repairs += static_cast<double>(e.repairs);
    dropped += static_cast<double>(e.dropped_jobs);
    orphaned += static_cast<double>(e.orphaned_ticks);
    outage_loss += e.outage_loss_percent;
    engine_heap = std::max(engine_heap, op->engine_heap_mib);
  }
  m["core.lela_edges"] = edges;
  m["core.engine_ctor_s"] = stage("core.engine_ctor");
  m["core.engine_loop_s"] = stage("core.engine_loop");
  m["core.engine_ns_per_event"] =
      Ratio(stage("core.engine_loop") * 1e9, events);
  m["core.engine_events"] = events;
  m["core.engine_messages"] = messages;
  m["core.engine_checks"] = checks;
  m["core.engine_push_ratio"] = Ratio(messages, checks);
  m["core.engine_coalesce_ratio"] = Ratio(coalesced, messages);
  m["core.engine_process_wakeups"] = wakeups;
  m["core.engine_heap_mib"] = engine_heap;

  double polls = 0.0, changed_polls = 0.0;
  for (const Op& op : rep.unit.ops) {
    if (!op.is_pull) continue;
    polls += static_cast<double>(op.pull.polls);
    changed_polls += static_cast<double>(op.pull.changed_polls);
  }
  if (!w.pull && probe.pull.has_value()) {
    polls = static_cast<double>(probe.pull->pull.polls);
    changed_polls = static_cast<double>(probe.pull->pull.changed_polls);
  }
  m["core.pull_loop_s"] = stage("core.pull_loop");
  m["core.pull_polls"] = polls;
  m["core.pull_changed_ratio"] = Ratio(changed_polls, polls);

  m["core.scenario_ops"] = scenario_ops;
  m["core.scenario_repairs"] = repairs;
  m["core.scenario_dropped_jobs"] = dropped;
  m["core.scenario_orphaned_ticks"] = orphaned;
  m["core.scenario_outage_loss_pct"] =
      push.empty() ? 0.0 : outage_loss / push.size();

  m["exp.loss_pct"] = quality.loss_pct;
  m["exp.messages"] = static_cast<double>(quality.messages);
  const double build_self = stage("exp.setup");
  const double run_self = stage("exp.unit") + stage("exp.run");
  const double roots = ledger.RootSeconds(run, "exp.setup") +
                       ledger.RootSeconds(run, "exp.unit");
  m["exp.build_self_s"] = build_self;
  m["exp.run_self_s"] = run_self;
  m["exp.attributed_frac"] =
      roots > 0.0 ? 1.0 - (build_self + run_self) / roots : 0.0;
  m["exp.trace_overhead_pct"] = Ratio(roots - untraced_s, untraced_s) * 100.0;

  m["serve.publisher_pump_s"] = stage("serve.publisher_pump");
  m["serve.node_poll_feed_s"] = stage("serve.node_poll_feed");
  m["serve.feed_rounds"] = static_cast<double>(served.rounds);
  m["serve.node_serve_s"] = stage("serve.node_serve");
  // The engine work the served feeds replayed, run directly.
  double direct_s = 0.0;
  if (w.serve) {
    for (const Op& op : rep.direct.ops) direct_s += op.ctor_s + op.loop_s;
  } else {
    direct_s = rep0.unit.ops.front().ctor_s + rep0.unit.ops.front().loop_s;
  }
  m["serve.wire_tax_pct"] = Ratio(served.serve_s - direct_s, direct_s) * 100.0;
  m["serve.feed_frames_per_s"] =
      Ratio(static_cast<double>(served.feed_frames), served.feed_s);
  m["serve.data_frames_per_s"] =
      Ratio(static_cast<double>(served.data_frames), served.serve_s);

  m["obs.recorder_overhead_pct"] = probe.recorder_overhead_pct;
  m["obs.recorded_events"] = static_cast<double>(probe.recorded_events);
  return m;
}

}  // namespace

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"run_s", "s", "lower"},
      {"events_per_s", "1/s", "higher"},
      {"setup_heap_mib", "MiB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"net.topology_s", "s", "lower"},
      {"net.routing_s", "s", "lower"},
      {"net.routing_rows_per_s", "1/s", "higher"},
      {"net.routing_heap_mib", "MiB", "lower"},
      {"net.pair_stats_s", "s", "lower"},
      {"net.wire_encode_ns", "ns", "lower"},
      {"net.wire_decode_ns", "ns", "lower"},
      {"net.socket_pump_s", "s", "lower"},
      {"net.socket_bytes", "bytes", "lower"},
      {"net.socket_stalls", "count", "lower"},
      {"net.data_frames", "count", "lower"},
      {"net.decode_errors", "count", "lower"},
      {"trace.library_s", "s", "lower"},
      {"core.timelines_s", "s", "lower"},
      {"core.interests_s", "s", "lower"},
      {"core.lela_s", "s", "lower"},
      {"core.lela_edges", "count", "lower"},
      {"core.validate_s", "s", "lower"},
      {"core.engine_ctor_s", "s", "lower"},
      {"core.engine_loop_s", "s", "lower"},
      {"core.engine_ns_per_event", "ns", "lower"},
      {"core.engine_events", "count", "lower"},
      {"core.engine_messages", "count", "lower"},
      {"core.engine_checks", "count", "lower"},
      {"core.engine_push_ratio", "ratio", "lower"},
      {"core.engine_coalesce_ratio", "ratio", "higher"},
      {"core.engine_process_wakeups", "count", "lower"},
      {"core.engine_heap_mib", "MiB", "lower"},
      {"core.pull_loop_s", "s", "lower"},
      {"core.pull_polls", "count", "lower"},
      {"core.pull_changed_ratio", "ratio", "higher"},
      {"core.scenario_ops", "count", "lower"},
      {"core.scenario_repairs", "count", "lower"},
      {"core.scenario_dropped_jobs", "count", "lower"},
      {"core.scenario_orphaned_ticks", "count", "lower"},
      {"core.scenario_outage_loss_pct", "%", "lower"},
      {"exp.loss_pct", "%", "lower"},
      {"exp.messages", "count", "lower"},
      {"exp.build_self_s", "s", "lower"},
      {"exp.run_self_s", "s", "lower"},
      {"exp.attributed_frac", "ratio", "higher"},
      {"exp.trace_overhead_pct", "%", "lower"},
      {"serve.publisher_pump_s", "s", "lower"},
      {"serve.node_poll_feed_s", "s", "lower"},
      {"serve.feed_rounds", "count", "lower"},
      {"serve.node_serve_s", "s", "lower"},
      {"serve.wire_tax_pct", "%", "lower"},
      {"serve.feed_frames_per_s", "1/s", "higher"},
      {"serve.data_frames_per_s", "1/s", "higher"},
      {"obs.recorder_overhead_pct", "%", "lower"},
      {"obs.recorded_events", "count", "lower"},
  };
  return defs;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_sweep", "large_world", "churn_repair", "serve_feed"};
  return names;
}

Result<Workload> MakeWorkload(const std::string& name, bool smoke) {
  // Defaults are the paper's §6.1 base case: 100 repositories, 600
  // routers, Floyd-Warshall routing, 100 items, T = 0.5, degree 5.
  Workload w;
  w.name = name;
  if (name == "paper_sweep") {
    // Two worlds of 1,000 ticks rather than one of 2,000: the same work,
    // averaged over two worlds, so it varies less from seed to seed.
    w.workload.ticks = 1000;
    w.worlds = 2;
    w.runs = {Policy("distributed"), Policy("centralized"),
              Policy("eq3-only"), Policy("temporal")};
    w.pull = true;
  } else if (name == "large_world") {
    w.network.repositories = 1000;
    w.network.routers = 6000;
    w.network.use_floyd_warshall = false;
    w.workload.ticks = 500;
    w.overlay.controlled_cooperation = true;
    w.overlay.coop_degree = w.network.repositories;  // Eq. (2) decides
    // Eq. (2) rounds sqrt(mean delay / comp delay) * f / 14, and the mean
    // delay moves a little with the seed. At the default f = 50 that came
    // to 6.30-7.01 over seeds 1-40, so some seeds rounded to 6 and made
    // 20-35% more events than those rounding to 7. f = 45 puts seeds
    // 1-40 at 5.67-6.31, all degree 6.
    w.overlay.coop_f = 45.0;
    w.runs = {Policy("distributed")};
  } else if (name == "churn_repair") {
    w.network.repositories = 500;
    w.network.routers = 3000;
    w.network.use_floyd_warshall = false;
    w.workload.ticks = 500;
    w.overlay.controlled_cooperation = true;
    w.overlay.coop_degree = w.network.repositories;
    w.overlay.coop_f = 47.0;  // degree 6 on seeds 1-40 (5.64-6.39), as above
    w.runs = {Policy("distributed", "fallback", 500.0),
              Policy("distributed", "lela", 500.0),
              Policy("distributed", "on-recovery", 500.0)};
    // Few, short outages: each failure of a repository with a large
    // subtree swings the run's work, so more episodes make a world's
    // work less uniform across seeds. Over 30-40 seeds the events of a
    // one-world unit of 2,000 ticks varied by a coefficient of 4.4%
    // with 10 failures, 5.2% with 25 and 7.0% with 50; two worlds of
    // 500 ticks with 25 failures each bring a unit to 3.7% for half the
    // work.
    w.worlds = 2;
    w.churn_failures = 25;
    w.churn_outage = {0.02, 0.06};
  } else if (name == "serve_feed") {
    w.workload.ticks = 1000;
    w.worlds = 2;
    w.runs = {Policy("distributed")};
    w.serve = true;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  if (smoke) {
    w.network.repositories = 8;
    w.network.routers = 48;
    w.workload.items = 4;
    w.workload.ticks = 120;
    if (w.overlay.controlled_cooperation) w.overlay.coop_degree = 8;
    w.churn_failures = std::min<size_t>(w.churn_failures, 4);
  }
  return w;
}

Outcome MeasureUntraced(const Workload& w, uint64_t seed, double seconds) {
  Outcome out;
  Ledger off(false);
  // Warm-up: the process's first build and unit, untimed. Every later
  // unit must repeat the warm-up's metrics; a served warm-up must first
  // reproduce the direct runs.
  Result<std::vector<Setup>> built = BuildWorlds(w, seed, false, off);
  if (!built.ok()) {
    ++out.attempted;
    Fail(out, "setup: " + built.status().ToString());
    return out;
  }
  std::vector<Setup> worlds = std::move(built).value();
  // The heap the built worlds hold. The peak during runs is left to the
  // per-layer core.engine_heap_mib: engine queues grow by doubling, so
  // it jumps between seeds and could not carry a bound.
  const double setup_heap_mib = HeapInUseMib();
  const Unit warm = RunUnit(w, worlds, off);
  if (w.serve) {
    const Unit direct = DirectRuns(w, worlds);
    AccountUnit(out, direct, nullptr, "");
    AccountUnit(out, warm, &direct, "the direct run");
  } else {
    AccountUnit(out, warm, nullptr, "");
  }
  SetQuality(out, warm);

  // Each timed iteration builds the worlds afresh and runs one unit on
  // them, so set-up samples are spread over the run like the units. The
  // reference kernel is timed before and after each build and after
  // every operation, and each timing is scaled by the passes around it.
  HostReference reference;
  std::vector<double> setup_s, setup_wall_s, unit_s, unit_wall_s, unit_rate;
  std::vector<std::vector<double>> op_s(warm.ops.size());
  std::vector<std::vector<double>> op_engine_s(warm.ops.size());
  const Clock::time_point start = Clock::now();
  while (setup_s.empty() || SecondsSince(start) < seconds) {
    worlds.clear();  // torn down outside the timing
    const double before = reference.Time();
    const Clock::time_point t = Clock::now();
    built = BuildWorlds(w, seed, false, off);
    const double elapsed = SecondsSince(t);
    const double after = reference.Time();
    if (!built.ok()) {
      ++out.attempted;
      Fail(out, "setup: " + built.status().ToString());
      break;
    }
    setup_s.push_back(HostReference::Scale(elapsed, before, after));
    setup_wall_s.push_back(elapsed);
    worlds = std::move(built).value();
    const Unit unit = RunUnit(w, worlds, off, &reference);
    AccountUnit(out, unit, &warm, "the warm-up unit");
    double scaled_s = 0.0, engine_s = 0.0;
    for (size_t i = 0; i < unit.ops.size() && i < op_s.size(); ++i) {
      op_s[i].push_back(unit.ops[i].scaled_seconds);
      op_engine_s[i].push_back(unit.ops[i].scaled_engine_seconds);
      scaled_s += unit.ops[i].scaled_seconds;
      engine_s += unit.ops[i].scaled_engine_seconds;
    }
    unit_s.push_back(scaled_s);
    unit_wall_s.push_back(unit.seconds);
    unit_rate.push_back(Ratio(static_cast<double>(unit.events), engine_s));
  }
  // Each timing is a median of scaled samples: of the builds for
  // setup_s, and of every operation's own samples for a unit, whose
  // operations then add up to run_s and the engine time.
  double run_s = 0.0, engine_s = 0.0;
  for (size_t i = 0; i < op_s.size(); ++i) {
    run_s += Median(op_s[i]);
    engine_s += Median(op_engine_s[i]);
  }
  out.metrics["setup_s"] = Median(setup_s);
  out.metrics["run_s"] = run_s;
  out.metrics["events_per_s"] = Ratio(static_cast<double>(warm.events), engine_s);
  out.metrics["setup_heap_mib"] = setup_heap_mib;
  out.samples["setup_s"] = setup_s;
  out.samples["setup_wall_s"] = setup_wall_s;
  out.samples["run_s"] = unit_s;
  out.samples["run_wall_s"] = unit_wall_s;
  out.samples["events_per_s"] = unit_rate;
  out.samples["setup_heap_mib"] = {setup_heap_mib};
  return out;
}

Outcome MeasureTraced(const Workload& w, uint64_t seed, double seconds,
                      Ledger& ledger, const std::string& perturb_field) {
  Outcome out;
  const Clock::time_point start = Clock::now();
  std::vector<Rep> reps;
  auto traced_unit = [&](std::vector<Setup>& worlds) {
    Rep rep;
    rep.unit = RunUnit(w, worlds, ledger);
    if (w.serve) {
      Ledger::Scope root(ledger, "exp.direct");
      for (const Setup& setup : worlds) {
        Op op = ComposedRun(setup.view, SpecFor(w, w.runs.front(), setup),
                            ledger);
        op.label += " direct";
        rep.direct.ops.push_back(std::move(op));
      }
    }
    return rep;
  };

  ledger.set_run(0);
  Result<std::vector<Setup>> worlds0 = BuildWorlds(w, seed, true, ledger);
  if (!worlds0.ok()) {
    ++out.attempted;
    Fail(out, "traced setup: " + worlds0.status().ToString());
    return out;
  }
  reps.push_back(traced_unit(*worlds0));

  // The untraced reference in this process: what the public API
  // returns for the same worlds and runs. A served reference must
  // reproduce Session::Run's direct runs.
  Unit reference, ref_direct;
  double untraced_s = 0.0;
  {
    Ledger off(false);
    const Clock::time_point t = Clock::now();
    Result<std::vector<Setup>> ref_worlds = BuildWorlds(w, seed, false, off);
    if (!ref_worlds.ok()) {
      ++out.attempted;
      Fail(out, "untraced setup: " + ref_worlds.status().ToString());
      return out;
    }
    reference = RunUnit(w, *ref_worlds, off);
    untraced_s = SecondsSince(t);
    if (w.serve) ref_direct = DirectRuns(w, *ref_worlds);
  }
  if (w.serve) {
    AccountUnit(out, ref_direct, nullptr, "");
    AccountUnit(out, reference, &ref_direct, "Session::Run");
  } else {
    AccountUnit(out, reference, nullptr, "");
  }
  SetQuality(out, reference);
  if (!perturb_field.empty()) {
    for (Op& op : reference.ops) PerturbField(op.engine, perturb_field);
    for (Op& op : ref_direct.ops) PerturbField(op.engine, perturb_field);
  }
  // The composition must reproduce the untraced metrics byte for byte.
  AccountUnit(out, reps[0].unit, &reference, "the untraced run");
  if (w.serve) AccountUnit(out, reps[0].direct, &ref_direct, "Session::Run");

  ledger.set_run(kProbeRun);
  const Probe probe = RunProbes(w, worlds0->front(), reps[0], ledger, out);

  for (int r = 1; SecondsSince(start) < seconds; ++r) {
    ledger.set_run(r);
    Result<std::vector<Setup>> worlds = BuildWorlds(w, seed, true, ledger);
    if (!worlds.ok()) {
      ++out.attempted;
      Fail(out, "traced setup: " + worlds.status().ToString());
      break;
    }
    reps.push_back(traced_unit(*worlds));
    AccountUnit(out, reps.back().unit, &reps[0].unit, "repetition 0");
    if (w.serve) {
      AccountUnit(out, reps.back().direct, &reps[0].direct, "repetition 0");
    }
  }

  std::map<std::string, std::vector<double>> values;
  for (size_t r = 0; r < reps.size(); ++r) {
    for (const auto& [name, value] :
         LayerSample(w, ledger, static_cast<int>(r), reps[r], reps[0],
                     *worlds0, probe, untraced_s, out)) {
      values[name].push_back(value);
    }
  }
  for (const auto& [name, series] : values) {
    out.metrics[name] = Median(series);
  }
  out.samples = std::move(values);
  return out;
}

}  // namespace d3t::e2e
