// Determinism guarantees of the simulation stack: identical seed and
// configuration must produce byte-identical metrics, run after run and
// release after release. The golden values below were captured on the
// hash-map-based engine before the dense edge/tracker refactor; the
// refactor must reproduce them exactly.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pull.h"
#include "exp/multi_source.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "gtest/gtest.h"

namespace d3t::exp {
namespace {

// Golden metrics captured from the seed (hash-map) engine; see
// GoldenMetricsOnFixedScenario.
constexpr uint64_t kGoldenMessages = 2349;
constexpr uint64_t kGoldenSourceMessages = 1017;
constexpr uint64_t kGoldenChecks = 9285;
constexpr uint64_t kGoldenSourceChecks = 6600;
constexpr uint64_t kGoldenSourceUpdates = 1746;
constexpr uint64_t kGoldenEvents = 11236;
constexpr uint64_t kGoldenTrackedPairs = 95;
constexpr double kGoldenLossPercent = 0.20547304454526444;
constexpr double kGoldenPairLossPercent = 0.20577034288346088;

constexpr uint64_t kGoldenSeed = 1234;

NetworkConfig GoldenNetwork() {
  NetworkConfig network;
  network.repositories = 25;
  network.routers = 100;
  return network;
}

/// The golden fixture's world; callers may override any setter before
/// Build().
SessionBuilder GoldenWorld() {
  WorkloadConfig workload;
  workload.items = 8;
  workload.ticks = 600;
  SessionBuilder builder;
  builder.SetNetwork(GoldenNetwork()).SetWorkload(workload).SetSeed(
      kGoldenSeed);
  return builder;
}

/// The golden fixture's run, seeded like its world.
RunSpec GoldenSpec(const char* policy = "distributed") {
  RunSpec spec;
  spec.overlay.coop_degree = 4;
  spec.policy.policy = policy;
  spec.seed = kGoldenSeed;
  return spec;
}

void ExpectIdenticalMetrics(const core::EngineMetrics& a,
                            const core::EngineMetrics& b) {
  // Exact equality on purpose: the engine is a deterministic discrete-
  // event simulation, so even the floating-point aggregates must match
  // bit for bit.
  EXPECT_EQ(a.loss_percent, b.loss_percent);
  EXPECT_EQ(a.pair_loss_percent, b.pair_loss_percent);
  EXPECT_EQ(a.tracked_pairs, b.tracked_pairs);
  EXPECT_EQ(a.per_member_loss, b.per_member_loss);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.source_messages, b.source_messages);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.source_checks, b.source_checks);
  EXPECT_EQ(a.source_updates, b.source_updates);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.horizon, b.horizon);
}

TEST(DeterminismTest, RepeatedRunsAreByteIdentical) {
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<ExperimentResult> first = session->Run(GoldenSpec());
  Result<ExperimentResult> second = session->Run(GoldenSpec());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectIdenticalMetrics(first->metrics, second->metrics);
}

TEST(DeterminismTest, AllPoliciesAreRunToRunDeterministic) {
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    Result<ExperimentResult> first = session->Run(GoldenSpec(policy));
    Result<ExperimentResult> second = session->Run(GoldenSpec(policy));
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    SCOPED_TRACE(policy);
    ExpectIdenticalMetrics(first->metrics, second->metrics);
  }
}

void ExpectIdenticalMultiSourceResults(const MultiSourceResult& a,
                                       const MultiSourceResult& b) {
  // Byte-identical on purpose: the worker pool only changes *where* the
  // independent per-source engines run, never what they compute or the
  // (source-ordered) aggregation.
  EXPECT_EQ(a.loss_percent, b.loss_percent);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.max_source_checks, b.max_source_checks);
  ASSERT_EQ(a.per_source.size(), b.per_source.size());
  for (size_t s = 0; s < a.per_source.size(); ++s) {
    SCOPED_TRACE("source " + std::to_string(s));
    EXPECT_EQ(a.per_source[s].items, b.per_source[s].items);
    EXPECT_EQ(a.per_source[s].messages, b.per_source[s].messages);
    EXPECT_EQ(a.per_source[s].source_checks, b.per_source[s].source_checks);
    EXPECT_EQ(a.per_source[s].pair_loss_percent,
              b.per_source[s].pair_loss_percent);
    EXPECT_EQ(a.per_source[s].tracked_pairs, b.per_source[s].tracked_pairs);
  }
}

TEST(DeterminismTest, MultiSourceParallelIsByteIdenticalToSerial) {
  NetworkConfig network = GoldenNetwork();
  network.source_count = 4;
  Result<SimulationSession> serial_session =
      GoldenWorld().SetNetwork(network).SetWorkerThreads(1).Build();
  ASSERT_TRUE(serial_session.ok()) << serial_session.status().ToString();
  // Forced serial reference run.
  Result<MultiSourceResult> serial =
      RunMultiSource(*serial_session, GoldenSpec());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Result<SimulationSession> pooled_session =
      GoldenWorld().SetNetwork(network).SetWorkerThreads(4).Build();
  ASSERT_TRUE(pooled_session.ok()) << pooled_session.status().ToString();
  // Sharded across the pool.
  Result<MultiSourceResult> parallel =
      RunMultiSource(*pooled_session, GoldenSpec());
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectIdenticalMultiSourceResults(*serial, *parallel);
  // And the pool itself is deterministic run to run.
  Result<MultiSourceResult> again =
      RunMultiSource(*pooled_session, GoldenSpec());
  ASSERT_TRUE(again.ok());
  ExpectIdenticalMultiSourceResults(*parallel, *again);
}

TEST(DeterminismTest, BatchedDispatchIsByteIdenticalToPerMessageDispatch) {
  // The event-kernel redesign coalesces same-(node, arrival) deliveries
  // into one batched POD event. Dispatch granularity is a pure kernel
  // concern: every metric — including the logical event count — must be
  // byte-identical to the one-event-per-message baseline, for every
  // policy, on the golden fixture.
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    SCOPED_TRACE(policy);
    const RunSpec batched = GoldenSpec(policy);
    RunSpec per_message = batched;
    per_message.policy.coalesce_deliveries = false;
    Result<ExperimentResult> a = session->Run(batched);
    Result<ExperimentResult> b = session->Run(per_message);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalMetrics(a->metrics, b->metrics);
    // Per-message dispatch fires exactly one delivery event per message
    // delivered and can never coalesce.
    EXPECT_EQ(b->metrics.coalesced_messages, 0u);
    EXPECT_EQ(a->metrics.delivery_batches + a->metrics.coalesced_messages,
              b->metrics.delivery_batches);
  }
}

TEST(DeterminismTest, SpanDrainingIsByteIdenticalToPerJobProcessing) {
  // Span-draining ProcessNext consumes a node's whole pending backlog in
  // one busy-server pass. Each drained job starts exactly when its own
  // NodeProcess event would have fired, so processing granularity is a
  // pure kernel concern: every metric — including the logical event
  // count — must be byte-identical to one-event-per-job processing, for
  // every policy, on the golden fixture. Only the physical wakeup count
  // may (and should) drop.
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    SCOPED_TRACE(policy);
    const RunSpec drained = GoldenSpec(policy);
    RunSpec per_job = drained;
    per_job.policy.drain_process_spans = false;
    Result<ExperimentResult> a = session->Run(drained);
    Result<ExperimentResult> b = session->Run(per_job);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalMetrics(a->metrics, b->metrics);
    // Per-job processing fires exactly one NodeProcess event per job;
    // draining can only merge wakeups, never add them.
    EXPECT_LE(a->metrics.process_wakeups, b->metrics.process_wakeups);
    EXPECT_GT(a->metrics.process_wakeups, 0u);
  }
}

TEST(DeterminismTest, DispatchAndProcessingModesAreByteIdenticalInAllCombos) {
  // The two kernel toggles (delivery coalescing, span draining) must be
  // independent: all four combinations yield the same metrics.
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const RunSpec base = GoldenSpec();
  Result<ExperimentResult> reference = session->Run(base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (bool coalesce : {true, false}) {
    for (bool drain : {true, false}) {
      SCOPED_TRACE(std::string("coalesce=") + (coalesce ? "on" : "off") +
                   " drain=" + (drain ? "on" : "off"));
      RunSpec spec = base;
      spec.policy.coalesce_deliveries = coalesce;
      spec.policy.drain_process_spans = drain;
      Result<ExperimentResult> run = session->Run(spec);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExpectIdenticalMetrics(reference->metrics, run->metrics);
    }
  }
}

TEST(DeterminismTest, KernelTogglesAgreeWhenBacklogOutlivesTheHorizon) {
  // Twice the golden items at 8x its computational delay: nodes still
  // hold a backlog when the horizon ends. Per-job processing never
  // starts a job past the horizon (its NodeProcess event lies beyond
  // RunUntil), so a drained span must stop there too — else draining
  // counts extra checks, pushes and events. All four coalesce x drain
  // combos and the wire route must match the per-message, per-job
  // reference, whose counts are pinned.
  WorkloadConfig workload;
  workload.items = 16;
  workload.ticks = 600;
  Result<SimulationSession> session =
      GoldenWorld().SetWorkload(workload).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  struct Pin {
    const char* policy;
    uint64_t messages;
    uint64_t events;
  };
  for (const Pin& pin : {Pin{"distributed", 2877, 16844},
                         Pin{"centralized", 7457, 27790}}) {
    SCOPED_TRACE(pin.policy);
    RunSpec base = GoldenSpec(pin.policy);
    base.policy.comp_delay_ms = 100.0;
    RunSpec per_job = base;
    per_job.policy.coalesce_deliveries = false;
    per_job.policy.drain_process_spans = false;
    Result<ExperimentResult> reference = session->Run(per_job);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(reference->metrics.messages, pin.messages);
    EXPECT_EQ(reference->metrics.events, pin.events);
    for (bool coalesce : {true, false}) {
      for (bool drain : {true, false}) {
        SCOPED_TRACE(std::string("coalesce=") + (coalesce ? "on" : "off") +
                     " drain=" + (drain ? "on" : "off"));
        RunSpec spec = base;
        spec.policy.coalesce_deliveries = coalesce;
        spec.policy.drain_process_spans = drain;
        Result<ExperimentResult> run = session->Run(spec);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ExpectIdenticalMetrics(reference->metrics, run->metrics);
      }
    }
    RunSpec framed = base;
    framed.policy.route_through_wire = true;
    Result<ExperimentResult> wired = session->Run(framed);
    ASSERT_TRUE(wired.ok()) << wired.status().ToString();
    ExpectIdenticalMetrics(reference->metrics, wired->metrics);
  }
}

TEST(DeterminismTest, EmptyScenarioIsByteIdenticalToNoScenario) {
  // The Scenario subsystem's safety invariant: attaching an *empty*
  // scenario to a run must reproduce the scenario-free metrics byte for
  // byte, for every policy — that is what makes the dynamics API a
  // redesign of the run path rather than a fork of it. (Repair knobs
  // are inert without scenario ops; set them anyway to prove it.)
  Result<core::Scenario> empty = exp::ScenarioBuilder().Build();
  ASSERT_TRUE(empty.ok());
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (const char* policy : {"distributed", "centralized", "eq3-only",
                             "all-updates", "temporal"}) {
    SCOPED_TRACE(policy);
    const RunSpec baseline = GoldenSpec(policy);
    RunSpec scripted = baseline;
    scripted.scenario = *empty;
    scripted.policy.repair_policy = "lela";
    scripted.policy.repair_delay_ms = 250.0;
    Result<ExperimentResult> a = session->Run(baseline);
    Result<ExperimentResult> b = session->Run(scripted);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalMetrics(a->metrics, b->metrics);
    EXPECT_EQ(b->metrics.scenario_ops, 0u);
    EXPECT_EQ(b->metrics.repairs, 0u);
    EXPECT_EQ(b->metrics.dropped_jobs, 0u);
    EXPECT_EQ(b->metrics.outage_pair_time, 0);
  }
}

TEST(DeterminismTest, KernelTogglesStayByteIdenticalUnderScenario) {
  // Dispatch coalescing and span draining are pure kernel concerns even
  // when a Scenario mutates the world mid-run: a drained span stops at
  // the next pending scenario event, so a failure landing inside a busy
  // span sees the same backlog (and drops the same jobs) in both
  // processing modes. All four combos must agree on the golden fixture
  // with a failure + recovery + renegotiation script attached.
  // Fail/recover ops only: they are valid against any generated world
  // (interest ops would need a pair the workload RNG happened to deal).
  Result<core::Scenario> scenario = exp::ScenarioBuilder()
                                        .FailRepo(sim::Seconds(30), 3)
                                        .RecoverAt(sim::Seconds(200))
                                        .FailRepo(sim::Seconds(90), 11)
                                        .RecoverAt(sim::Seconds(260))
                                        .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    SCOPED_TRACE(policy);
    RunSpec base = GoldenSpec(policy);
    base.scenario = *scenario;
    base.policy.repair_delay_ms = 750.0;
    Result<ExperimentResult> reference = session->Run(base);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(reference->metrics.scenario_ops, 4u);
    for (bool coalesce : {true, false}) {
      for (bool drain : {true, false}) {
        SCOPED_TRACE(std::string("coalesce=") + (coalesce ? "on" : "off") +
                     " drain=" + (drain ? "on" : "off"));
        RunSpec spec = base;
        spec.policy.coalesce_deliveries = coalesce;
        spec.policy.drain_process_spans = drain;
        Result<ExperimentResult> run = session->Run(spec);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ExpectIdenticalMetrics(reference->metrics, run->metrics);
        EXPECT_EQ(reference->metrics.repairs, run->metrics.repairs);
        EXPECT_EQ(reference->metrics.dropped_jobs,
                  run->metrics.dropped_jobs);
        EXPECT_EQ(reference->metrics.orphaned_ticks,
                  run->metrics.orphaned_ticks);
        EXPECT_EQ(reference->metrics.outage_out_of_sync_time,
                  run->metrics.outage_out_of_sync_time);
      }
    }
  }
}

TEST(DeterminismTest, WireTransportIsByteIdenticalToDirect) {
  // The serving subsystem's headline invariant: a run whose every
  // inter-node push is serialized through the wire format over an
  // InProcTransport reproduces the direct in-process metrics byte for
  // byte — the simulator is the fake transport and the same engine
  // code serves both. Scenario-bearing on purpose: repair-path pushes
  // must cross the wire too.
  Result<core::Scenario> scenario = exp::ScenarioBuilder()
                                        .FailRepo(sim::Seconds(30), 3)
                                        .RecoverAt(sim::Seconds(200))
                                        .FailRepo(sim::Seconds(90), 11)
                                        .RecoverAt(sim::Seconds(260))
                                        .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    SCOPED_TRACE(policy);
    RunSpec direct = GoldenSpec(policy);
    direct.scenario = *scenario;
    direct.policy.repair_delay_ms = 750.0;
    RunSpec framed = direct;
    framed.policy.route_through_wire = true;
    Result<ExperimentResult> a = session->Run(direct);
    Result<ExperimentResult> b = session->Run(framed);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalMetrics(a->metrics, b->metrics);
    EXPECT_EQ(a->metrics.scenario_ops, b->metrics.scenario_ops);
    EXPECT_EQ(a->metrics.repairs, b->metrics.repairs);
    EXPECT_EQ(a->metrics.dropped_jobs, b->metrics.dropped_jobs);
    EXPECT_EQ(a->metrics.outage_out_of_sync_time,
              b->metrics.outage_out_of_sync_time);
    // Every message crossed the wire exactly once; the direct run
    // reports all-zero transport counters.
    EXPECT_EQ(b->wire.frames_tx, b->metrics.messages);
    EXPECT_EQ(b->wire.frames_rx, b->metrics.messages);
    EXPECT_EQ(b->wire.decode_errors, 0u);
    EXPECT_GT(b->wire.bytes_tx, 0u);
    EXPECT_EQ(b->wire.bytes_tx, b->wire.bytes_rx);
    EXPECT_EQ(a->wire.frames_tx, 0u);
  }
}

TEST(DeterminismTest, RecorderAttachmentLeavesMetricsByteIdentical) {
  // The flight recorder is a pure tap: attaching it (and a metrics
  // registry) to a run must not perturb a single metric bit — for every
  // policy on the golden fixture. The registry must in turn carry every
  // EngineMetrics field it was derived from: doubles bit for bit, the
  // per-member loss vector by length and FNV-1a digest.
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    SCOPED_TRACE(policy);
    const RunSpec plain = GoldenSpec(policy);
    obs::Recorder recorder(1 << 17);
    obs::Registry registry;
    RunSpec observed = plain;
    observed.recorder = &recorder;
    observed.registry = &registry;
    Result<ExperimentResult> a = session->Run(plain);
    Result<ExperimentResult> b = session->Run(observed);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalMetrics(a->metrics, b->metrics);
    EXPECT_GT(recorder.recorded(), 0u);
    const obs::Snapshot snapshot = registry.TakeSnapshot();
    // Raw value bits under `name`; a missing entry fails (a 0 default
    // would pass for the many fields that are 0 on this fixture).
    auto published = [&snapshot](const char* name) -> uint64_t {
      const obs::SnapshotEntry* entry =
          obs::FindEntry(snapshot, obs::HashMetricName(name));
      EXPECT_NE(entry, nullptr) << name << " was not published";
      return entry != nullptr ? entry->value : ~uint64_t{0};
    };
    const core::EngineMetrics& m = b->metrics;
    EXPECT_EQ(published("engine.loss_percent"),
              obs::DoubleBits(m.loss_percent));
    EXPECT_EQ(published("engine.pair_loss_percent"),
              obs::DoubleBits(m.pair_loss_percent));
    EXPECT_EQ(published("engine.tracked_pairs"), m.tracked_pairs);
    EXPECT_EQ(published("engine.per_member_loss_len"),
              m.per_member_loss.size());
    EXPECT_EQ(published("engine.per_member_loss_digest"),
              obs::HashBytes(m.per_member_loss.data(),
                             m.per_member_loss.size() * sizeof(double)));
    EXPECT_EQ(published("engine.messages"), m.messages);
    EXPECT_EQ(published("engine.source_messages"), m.source_messages);
    EXPECT_EQ(published("engine.checks"), m.checks);
    EXPECT_EQ(published("engine.source_checks"), m.source_checks);
    EXPECT_EQ(published("engine.source_updates"), m.source_updates);
    EXPECT_EQ(published("engine.events"), m.events);
    EXPECT_EQ(published("engine.delivery_batches"), m.delivery_batches);
    EXPECT_EQ(published("engine.coalesced_messages"), m.coalesced_messages);
    EXPECT_EQ(published("engine.process_wakeups"), m.process_wakeups);
    EXPECT_EQ(published("engine.scenario_ops"), m.scenario_ops);
    EXPECT_EQ(published("engine.repairs"), m.repairs);
    EXPECT_EQ(published("engine.orphaned_ticks"), m.orphaned_ticks);
    EXPECT_EQ(published("engine.dropped_jobs"), m.dropped_jobs);
    EXPECT_EQ(published("engine.outage_pair_time"),
              static_cast<uint64_t>(m.outage_pair_time));
    EXPECT_EQ(published("engine.outage_out_of_sync_time"),
              static_cast<uint64_t>(m.outage_out_of_sync_time));
    EXPECT_EQ(published("engine.outage_loss_percent"),
              obs::DoubleBits(m.outage_loss_percent));
    EXPECT_EQ(published("engine.horizon"),
              static_cast<uint64_t>(m.horizon));
  }
}

TEST(DeterminismTest, TraceDumpIsByteIdenticalAcrossReruns) {
  // The canonical trace dump is itself a determinism artifact: two runs
  // of the golden fixture must produce byte-identical dumps. The pin is
  // only meaningful if the ring never wrapped — assert that too.
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::string dumps[2];
  for (std::string& dump : dumps) {
    obs::Recorder recorder(1 << 17);
    RunSpec spec = GoldenSpec();
    spec.recorder = &recorder;
    Result<ExperimentResult> run = session->Run(spec);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(recorder.dropped(), 0u) << "ring wrapped; pin is not valid";
    ASSERT_GT(recorder.recorded(), 0u);
    dump = obs::DumpTrace(recorder);
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

/// FNV-1a digest of `recorder`'s records in recording order.
uint64_t RecordingOrderDigest(const obs::Recorder& recorder) {
  std::vector<obs::TraceEvent> records;
  records.reserve(recorder.size());
  for (size_t i = 0; i < recorder.size(); ++i) {
    records.push_back(recorder.at(i));
  }
  return obs::HashBytes(records.data(),
                        records.size() * sizeof(obs::TraceEvent));
}

TEST(DeterminismTest, GoldenRecordingOrderIsPinned) {
  // The golden metrics and the sorted DumpTrace cannot see the order in
  // which events run within one instant; the raw recording order can.
  // Pins the push engine (distributed, centralized) and the adaptive
  // pull engine on the golden world, so a kernel that reorders ties
  // fails here even when every metric holds.
  struct OrderGolden {
    const char* run;
    size_t records;
    uint64_t digest;
  };
  constexpr OrderGolden kGoldenOrder[] = {
      {"distributed", 9936, 0x3469df45838ba4b7ull},
      {"centralized", 10694, 0x525539da2b600278ull},
      {"pull-adaptive", 6364, 0xb351e13145fe9485ull},
  };
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (const OrderGolden& golden : kGoldenOrder) {
    SCOPED_TRACE(golden.run);
    obs::Recorder recorder(1 << 17);
    if (std::string(golden.run) == "pull-adaptive") {
      const World& world = session->world();
      core::PullOptions options;
      options.adaptive = true;
      options.recorder = &recorder;
      Result<core::PullMetrics> run =
          core::PullEngine(world.delays(), world.interests(), world.traces(),
                           options)
              .Run();
      ASSERT_TRUE(run.ok()) << run.status().ToString();
    } else {
      RunSpec spec = GoldenSpec(golden.run);
      spec.recorder = &recorder;
      Result<ExperimentResult> run = session->Run(spec);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
    }
    ASSERT_EQ(recorder.dropped(), 0u) << "ring wrapped; pin is not valid";
    EXPECT_EQ(recorder.size(), golden.records);
    EXPECT_EQ(RecordingOrderDigest(recorder), golden.digest);
  }
}

TEST(DeterminismTest, TraceDumpIsByteIdenticalAcrossKernelToggles) {
  // Recording ORDER within one logical instant legitimately varies with
  // the kernel's batching toggles (a drained span interleaves
  // differently with same-window deliveries), but the canonical
  // (sorted) dump must not: the four coalesce/drain combinations emit
  // the same logical events at the same logical times.
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::string reference;
  for (bool coalesce : {true, false}) {
    for (bool drain : {true, false}) {
      SCOPED_TRACE(std::string("coalesce=") + (coalesce ? "on" : "off") +
                   " drain=" + (drain ? "on" : "off"));
      obs::Recorder recorder(1 << 17);
      RunSpec spec = GoldenSpec();
      spec.policy.coalesce_deliveries = coalesce;
      spec.policy.drain_process_spans = drain;
      spec.recorder = &recorder;
      Result<ExperimentResult> run = session->Run(spec);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ASSERT_EQ(recorder.dropped(), 0u) << "ring wrapped; pin is not valid";
      const std::string dump = obs::DumpTrace(recorder);
      if (reference.empty()) {
        reference = dump;
      } else {
        EXPECT_EQ(reference, dump);
      }
    }
  }
}

TEST(DeterminismTest, TraceDumpIsByteIdenticalThroughTheWire) {
  // Routing every push through the framed wire transport must leave the
  // engine's canonical trace byte-identical too: the transport's own
  // frame-tx/frame-rx records land in a SEPARATE recorder here, so the
  // engine-event multiset can be compared dump for dump.
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  obs::Recorder direct_recorder(1 << 17);
  RunSpec direct = GoldenSpec();
  direct.recorder = &direct_recorder;
  obs::Recorder framed_recorder(1 << 17);
  RunSpec framed = GoldenSpec();
  framed.policy.route_through_wire = true;
  framed.recorder = &framed_recorder;
  Result<ExperimentResult> a = session->Run(direct);
  Result<ExperimentResult> b = session->Run(framed);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(direct_recorder.dropped(), 0u);
  ASSERT_EQ(framed_recorder.dropped(), 0u);
  EXPECT_EQ(obs::DumpTrace(direct_recorder), obs::DumpTrace(framed_recorder));
}

TEST(DeterminismTest, GoldenMetricsOnFixedScenario) {
  // Captured from the pre-refactor (unordered_map) engine at seed 1234;
  // pins the dense-state refactor to the exact historical behavior.
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<ExperimentResult> result = session->Run(GoldenSpec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const core::EngineMetrics& m = result->metrics;
  EXPECT_EQ(m.messages, kGoldenMessages);
  EXPECT_EQ(m.source_messages, kGoldenSourceMessages);
  EXPECT_EQ(m.checks, kGoldenChecks);
  EXPECT_EQ(m.source_checks, kGoldenSourceChecks);
  EXPECT_EQ(m.source_updates, kGoldenSourceUpdates);
  EXPECT_EQ(m.events, kGoldenEvents);
  EXPECT_EQ(m.tracked_pairs, kGoldenTrackedPairs);
  EXPECT_NEAR(m.loss_percent, kGoldenLossPercent, 1e-12);
  EXPECT_NEAR(m.pair_loss_percent, kGoldenPairLossPercent, 1e-12);
}

TEST(DeterminismTest, GoldenPullMetricsOnFixedScenario) {
  // The pull baseline on the golden world, adaptive and fixed TTR: the
  // floating-point aggregates bit for bit, the per-member loss vector
  // by FNV-1a digest of its bytes. Captured while the engine still
  // carried its scenario runtime and wire leg, so the static baseline
  // is pinned to the behaviour it had with them.
  struct PullGolden {
    bool adaptive;
    uint64_t loss_percent_bits;
    uint64_t source_utilization_bits;
    uint64_t polls;
    uint64_t changed_polls;
    sim::SimTime horizon;
    uint64_t per_member_loss_digest;
  };
  // loss 6.9313421869862335 %, utilization 0.13195864936631677 (adaptive);
  // loss 1.0188729029170833 %, utilization 1.0001283902718756 (fixed).
  constexpr PullGolden kGoldenPull[] = {
      {true, 0x401bb9b1c429f6c6ull, 0x3fc0e40561b9f0d1ull, 6365, 4125,
       602935089, 0x7abb5c01c26fb57bull},
      {false, 0x3ff04d4dac4cf388ull, 0x3ff00086a0804d21ull, 48241, 19232,
       602935089, 0xf98b4715467886d9ull},
  };
  Result<SimulationSession> session = GoldenWorld().Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const World& world = session->world();
  for (const PullGolden& golden : kGoldenPull) {
    SCOPED_TRACE(golden.adaptive ? "adaptive" : "fixed");
    core::PullOptions options;
    options.adaptive = golden.adaptive;
    Result<core::PullMetrics> run =
        core::PullEngine(world.delays(), world.interests(), world.traces(),
                         options)
            .Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(obs::DoubleBits(run->loss_percent), golden.loss_percent_bits);
    EXPECT_EQ(obs::DoubleBits(run->source_utilization),
              golden.source_utilization_bits);
    EXPECT_EQ(run->polls, golden.polls);
    EXPECT_EQ(run->changed_polls, golden.changed_polls);
    EXPECT_EQ(run->horizon, golden.horizon);
    EXPECT_EQ(obs::HashBytes(run->per_member_loss.data(),
                             run->per_member_loss.size() * sizeof(double)),
              golden.per_member_loss_digest);
  }
}

TEST(DeterminismTest, GoldenScenarioMetricsOnBaseCaseWorld) {
  // Absolute pins for a scripted run at §6.1's base case (100
  // repositories, 600 routers, 100 items), where the other scenario pins
  // only compare two runs of one engine. Each run delivers well over
  // 100k messages, so the engine's tracked-value log fills many times
  // over, and it is flushed before every scenario op reads a tracker:
  // four fail/recover episodes (the last still down at the horizon),
  // two renegotiations, and repairs deferred by a silence window.
  struct ScenarioGolden {
    const char* policy;
    uint64_t loss_percent_bits;
    uint64_t pair_loss_percent_bits;
    uint64_t per_member_loss_digest;
    sim::SimTime outage_pair_time;
    sim::SimTime outage_out_of_sync_time;
    uint64_t outage_loss_percent_bits;
    uint64_t messages;
    uint64_t events;
  };
  // loss 37.230937584409638 %, outage loss 41.683632358535377 %
  // (distributed); loss 35.836941278990807 % (centralized).
  constexpr ScenarioGolden kGolden[] = {
      {"distributed", 0x40429d8f5cde3a73ull, 0x4042929c3010ebe0ull,
       0xad4f99d7f96f8749ull, 61625477744, 25687737582,
       0x4044d78143df32caull, 116137, 343620},
      {"centralized", 0x4041eb20e44ef80eull, 0x4041e133bb460af3ull,
       0x43aece3389497031ull, 61625477744, 24743048733,
       0x40441349806ddfb6ull, 211899, 540687},
  };
  constexpr uint64_t kSeed = 31;
  WorkloadConfig workload;
  workload.ticks = 1000;
  SessionBuilder builder;
  builder.SetNetwork(NetworkConfig{}).SetWorkload(workload).SetSeed(kSeed);
  Result<SimulationSession> session = builder.Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // Renegotiate the first and the last own interest of two members that
  // never fail.
  const std::vector<core::InterestSet>& interests =
      session->world().interests();
  ASSERT_EQ(interests.size(), 100u);
  const core::InterestSet& first = interests[11];
  const core::InterestSet& second = interests[63];
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  Result<core::Scenario> scenario =
      exp::ScenarioBuilder()
          .FailRepo(sim::Seconds(120), 7)
          .RecoverAt(sim::Seconds(420))
          .FailRepo(sim::Seconds(200), 23)
          .RecoverAt(sim::Seconds(650))
          .FailRepo(sim::Seconds(300), 51)
          .RecoverAt(sim::Seconds(520))
          .FailRepo(sim::Seconds(760), 88)
          .ChangeCoherency(sim::Seconds(250), 12, first.begin()->first, 0.02)
          .ChangeCoherency(sim::Seconds(600), 64, second.rbegin()->first,
                           0.75)
          .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  for (const ScenarioGolden& golden : kGolden) {
    SCOPED_TRACE(golden.policy);
    RunSpec spec;
    spec.policy.policy = golden.policy;
    spec.policy.repair_delay_ms = 400.0;
    spec.scenario = *scenario;
    spec.seed = kSeed;
    Result<ExperimentResult> run = session->Run(spec);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const core::EngineMetrics& m = run->metrics;
    EXPECT_EQ(m.scenario_ops, 9u);
    EXPECT_EQ(obs::DoubleBits(m.loss_percent), golden.loss_percent_bits)
        << m.loss_percent;
    EXPECT_EQ(obs::DoubleBits(m.pair_loss_percent),
              golden.pair_loss_percent_bits)
        << m.pair_loss_percent;
    EXPECT_EQ(obs::HashBytes(m.per_member_loss.data(),
                             m.per_member_loss.size() * sizeof(double)),
              golden.per_member_loss_digest);
    EXPECT_EQ(m.outage_pair_time, golden.outage_pair_time);
    EXPECT_EQ(m.outage_out_of_sync_time, golden.outage_out_of_sync_time);
    EXPECT_EQ(obs::DoubleBits(m.outage_loss_percent),
              golden.outage_loss_percent_bits)
        << m.outage_loss_percent;
    EXPECT_EQ(m.messages, golden.messages);
    EXPECT_EQ(m.events, golden.events);
  }
}

}  // namespace
}  // namespace d3t::exp
