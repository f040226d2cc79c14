// SimulationSession API: SessionBuilder -> World -> RunSpec. Covers the
// build-once/run-many contract (World::BuildCount hook), sweep/fresh-
// session equivalence, end-to-end run results, policy validation,
// workload overrides and the per-source seed plumbing.

#include <limits>
#include <string>
#include <vector>

#include "core/disseminator.h"
#include "core/pull.h"
#include "exp/multi_source.h"
#include "exp/session.h"
#include "gtest/gtest.h"

namespace d3t::exp {
namespace {

NetworkConfig SmallNetwork() {
  NetworkConfig network;
  network.repositories = 20;
  network.routers = 60;
  return network;
}

WorkloadConfig SmallWorkload() {
  WorkloadConfig workload;
  workload.items = 5;
  workload.ticks = 300;
  return workload;
}

RunSpec SmallSpec() {
  RunSpec spec;
  spec.overlay.coop_degree = 3;
  spec.seed = 1234;
  return spec;
}

/// The small world as a builder; cases that vary one world input
/// override that setter before Build().
SessionBuilder SmallWorld(uint64_t seed = 1234) {
  SessionBuilder builder;
  builder.SetNetwork(SmallNetwork())
      .SetWorkload(SmallWorkload())
      .SetSeed(seed);
  return builder;
}

Result<SimulationSession> BuildSmallSession(size_t worker_threads = 0) {
  return SmallWorld().SetWorkerThreads(worker_threads).Build();
}

/// Builds `world` and runs `spec` on it once.
Result<ExperimentResult> RunOnce(const SessionBuilder& world,
                                 const RunSpec& spec = SmallSpec()) {
  Result<SimulationSession> session = world.Build();
  if (!session.ok()) return session.status();
  return session->Run(spec);
}

TEST(SessionBuilderTest, BuildsWorldSubstrate) {
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const World& world = session->world();
  EXPECT_EQ(world.source_count(), 1u);
  EXPECT_EQ(world.delays().member_count(), 21u);
  EXPECT_EQ(world.traces().size(), 5u);
  EXPECT_EQ(world.interests().size(), 20u);
  EXPECT_EQ(world.seed(), 1234u);
}

TEST(SessionBuilderTest, RejectsDegenerateInputs) {
  NetworkConfig no_repos = SmallNetwork();
  no_repos.repositories = 0;
  EXPECT_FALSE(SessionBuilder()
                   .SetNetwork(no_repos)
                   .SetWorkload(SmallWorkload())
                   .Build()
                   .ok());
  WorkloadConfig one_tick = SmallWorkload();
  one_tick.ticks = 1;
  EXPECT_FALSE(SessionBuilder()
                   .SetNetwork(SmallNetwork())
                   .SetWorkload(one_tick)
                   .Build()
                   .ok());
  NetworkConfig no_sources = SmallNetwork();
  no_sources.source_count = 0;
  EXPECT_FALSE(SessionBuilder()
                   .SetNetwork(no_sources)
                   .SetWorkload(SmallWorkload())
                   .Build()
                   .ok());
}

// The acceptance contract of the session redesign: a 4-point policy
// sweep builds the World exactly once and reproduces the metrics of 4
// runs on 4 freshly built sessions.
TEST(SessionSweepTest, PolicySweepBuildsWorldOnceAndMatchesLegacyRuns) {
  const std::vector<std::string> policies = {"distributed", "centralized",
                                             "eq3-only", "all-updates"};
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  const uint64_t builds_before = World::BuildCount();
  std::vector<Result<ExperimentResult>> sweep = session->RunSweep(
      SmallSpec(), policies,
      [](RunSpec& spec, const std::string& policy) {
        spec.policy.policy = policy;
        spec.label = policy;
      });
  EXPECT_EQ(World::BuildCount(), builds_before)
      << "RunSweep must share the prebuilt World, not rebuild it";

  ASSERT_EQ(sweep.size(), policies.size());
  for (size_t i = 0; i < policies.size(); ++i) {
    SCOPED_TRACE(policies[i]);
    ASSERT_TRUE(sweep[i].ok()) << sweep[i].status().ToString();
    Result<SimulationSession> fresh = BuildSmallSession();
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    RunSpec spec = SmallSpec();
    spec.policy.policy = policies[i];
    Result<ExperimentResult> independent = fresh->Run(spec);
    ASSERT_TRUE(independent.ok()) << independent.status().ToString();
    EXPECT_EQ(sweep[i]->metrics.messages, independent->metrics.messages);
    EXPECT_EQ(sweep[i]->metrics.checks, independent->metrics.checks);
    EXPECT_EQ(sweep[i]->metrics.events, independent->metrics.events);
    EXPECT_DOUBLE_EQ(sweep[i]->metrics.loss_percent,
                     independent->metrics.loss_percent);
    EXPECT_EQ(sweep[i]->shape.diameter, independent->shape.diameter);
  }
}

TEST(SessionSweepTest, ParallelSweepMatchesSerialSweep) {
  const std::vector<std::string> policies = {"distributed", "centralized",
                                             "eq3-only", "all-updates"};
  Result<SimulationSession> serial = BuildSmallSession(/*worker_threads=*/1);
  Result<SimulationSession> parallel =
      BuildSmallSession(/*worker_threads=*/4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  auto apply = [](RunSpec& spec, const std::string& policy) {
    spec.policy.policy = policy;
  };
  auto a = serial->RunSweep(SmallSpec(), policies, apply);
  auto b = parallel->RunSweep(SmallSpec(), policies, apply);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    EXPECT_EQ(a[i]->metrics.messages, b[i]->metrics.messages);
    EXPECT_EQ(a[i]->metrics.loss_percent, b[i]->metrics.loss_percent);
    EXPECT_EQ(a[i]->metrics.events, b[i]->metrics.events);
  }
}

TEST(SessionSchedulingTest, LongestFirstOrderSortsByTicksTimesDegree) {
  WorkloadConfig workload = SmallWorkload();
  std::vector<RunSpec> specs(5, SmallSpec());
  specs[0].overlay.coop_degree = 2;
  specs[1].overlay.coop_degree = 100;
  specs[2].overlay.coop_degree = 1;
  specs[3].overlay.coop_degree = 100;  // tie with 1 -> original order
  specs[4].overlay.coop_degree = 7;
  const std::vector<size_t> order = LongestFirstOrder(specs, workload);
  EXPECT_EQ(order, (std::vector<size_t>{1, 3, 4, 0, 2}));
  // coop_degree 0 is clamped to 1 by the runner; the heuristic must
  // agree so a zero-degree spec doesn't sort above everything.
  specs[2].overlay.coop_degree = 0;
  EXPECT_EQ(LongestFirstOrder(specs, workload),
            (std::vector<size_t>{1, 3, 4, 0, 2}));
}

TEST(SessionSchedulingTest, PooledRunAllReturnsResultsInSpecOrder) {
  // Longest-first submission reorders pool execution only; results[i]
  // must still match a serial Run of specs[i].
  Result<SimulationSession> session = BuildSmallSession(/*worker_threads=*/3);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<RunSpec> specs(4, SmallSpec());
  specs[0].overlay.coop_degree = 1;
  specs[1].overlay.coop_degree = 6;
  specs[2].overlay.coop_degree = 2;
  specs[3].overlay.coop_degree = 4;
  std::vector<Result<ExperimentResult>> pooled = session->RunAll(specs);
  ASSERT_EQ(pooled.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    Result<ExperimentResult> serial = session->Run(specs[i]);
    ASSERT_TRUE(pooled[i].ok()) << pooled[i].status().ToString();
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(pooled[i]->metrics.messages, serial->metrics.messages);
    EXPECT_EQ(pooled[i]->metrics.events, serial->metrics.events);
    EXPECT_EQ(pooled[i]->effective_degree, serial->effective_degree);
    EXPECT_DOUBLE_EQ(pooled[i]->metrics.loss_percent,
                     serial->metrics.loss_percent);
  }
}

// ---------------------------------------------------------------------------
// End-to-end runs: one world, one RunSpec, one ExperimentResult

TEST(ExperimentTest, EndToEndRunProducesMetrics) {
  Result<ExperimentResult> result = RunOnce(SmallWorld());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->metrics.messages, 0u);
  EXPECT_GT(result->metrics.source_updates, 0u);
  EXPECT_GE(result->metrics.loss_percent, 0.0);
  EXPECT_LE(result->metrics.loss_percent, 100.0);
  EXPECT_GT(result->shape.diameter, 1u);
  EXPECT_EQ(result->effective_degree, 3u);
  EXPECT_GT(result->mean_pair_delay_ms, 0.0);
  EXPECT_GT(result->mean_pair_hops, 1.0);
}

TEST(ExperimentTest, DeterministicForSameSeed) {
  Result<ExperimentResult> a = RunOnce(SmallWorld());
  Result<ExperimentResult> b = RunOnce(SmallWorld());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.messages, b->metrics.messages);
  EXPECT_DOUBLE_EQ(a->metrics.loss_percent, b->metrics.loss_percent);
  EXPECT_EQ(a->shape.diameter, b->shape.diameter);
}

TEST(ExperimentTest, SeedChangesWorkload) {
  RunSpec reseeded = SmallSpec();
  reseeded.seed = 999;
  Result<ExperimentResult> a = RunOnce(SmallWorld());
  Result<ExperimentResult> b = RunOnce(SmallWorld(999), reseeded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->metrics.messages, b->metrics.messages);
}

TEST(ExperimentTest, CommDelayScalingHonored) {
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  RunSpec spec = SmallSpec();
  spec.policy.comm_delay_mean_ms = 75.0;
  Result<ExperimentResult> result = session->Run(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->mean_pair_delay_ms, 75.0, 1.0);
  spec.policy.comm_delay_mean_ms = -1.0;  // force zero delays
  Result<ExperimentResult> zero = session->Run(spec);
  ASSERT_TRUE(zero.ok());
  EXPECT_DOUBLE_EQ(zero->mean_pair_delay_ms, 0.0);
}

TEST(ExperimentTest, ControlledCooperationCapsDegree) {
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  RunSpec spec = SmallSpec();
  spec.overlay.coop_degree = 100;
  spec.overlay.controlled_cooperation = true;
  spec.policy.comm_delay_mean_ms = 25.0;
  spec.policy.comp_delay_ms = 12.5;
  Result<ExperimentResult> result = session->Run(spec);
  ASSERT_TRUE(result.ok());
  // Eq. (2) at the paper's operating point: degree 5, well under the
  // offered 100.
  EXPECT_EQ(result->effective_degree, 5u);
}

TEST(ExperimentTest, DijkstraPathMatchesFloydWarshallMetrics) {
  NetworkConfig floyd = SmallNetwork();
  floyd.use_floyd_warshall = true;
  Result<ExperimentResult> fw = RunOnce(SmallWorld().SetNetwork(floyd));
  Result<ExperimentResult> dj = RunOnce(SmallWorld());
  ASSERT_TRUE(fw.ok());
  ASSERT_TRUE(dj.ok());
  // Identical topology and routing result => identical simulation.
  EXPECT_EQ(fw->metrics.messages, dj->metrics.messages);
  EXPECT_DOUBLE_EQ(fw->metrics.loss_percent, dj->metrics.loss_percent);
  EXPECT_DOUBLE_EQ(fw->mean_pair_delay_ms, dj->mean_pair_delay_ms);
  EXPECT_DOUBLE_EQ(fw->mean_pair_hops, dj->mean_pair_hops);
}

TEST(ExperimentTest, AllPoliciesRunOnSharedWorld) {
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  for (const char* policy : {"distributed", "centralized", "eq3-only",
                             "all-updates", "temporal"}) {
    RunSpec spec = SmallSpec();
    spec.policy.policy = policy;
    Result<ExperimentResult> result = session->Run(spec);
    EXPECT_TRUE(result.ok()) << policy;
  }
}

TEST(ExperimentTest, StringencyMonotonicallyRaisesTraffic) {
  // Sweeping T upward on a fixed network must not reduce dissemination
  // traffic: stringent tolerances filter fewer updates.
  uint64_t previous = 0;
  for (double t : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    WorkloadConfig workload = SmallWorkload();
    workload.stringent_fraction = t;
    Result<ExperimentResult> result =
        RunOnce(SmallWorld().SetWorkload(workload));
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->metrics.messages + result->metrics.messages / 5,
              previous)
        << "T=" << t;  // 20% slack: interests are resampled per T
    previous = result->metrics.messages;
  }
}

TEST(ExperimentTest, ShapeMetricsConsistent) {
  const RunSpec spec = SmallSpec();
  Result<ExperimentResult> result = RunOnce(SmallWorld(), spec);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->shape.diameter, 2u);
  EXPECT_GE(result->shape.avg_depth, 1.0);
  EXPECT_LE(result->shape.avg_depth,
            static_cast<double>(result->shape.diameter));
  EXPECT_LE(result->shape.max_dependents, spec.overlay.coop_degree);
}

TEST(SessionValidationTest, UnknownPolicyErrorListsKnownNames) {
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  RunSpec spec = SmallSpec();
  spec.policy.policy = "smoke-signals";
  Result<ExperimentResult> result = session->Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("known policies"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("distributed"),
            std::string::npos);
}

TEST(SessionValidationTest, KnownPolicyNamesMatchDisseminatorFactory) {
  // ValidatePolicyName trusts KnownPolicyNames(); Session::Run trusts
  // MakeDisseminator. If the two lists ever diverge, a valid policy is
  // rejected (or Run hits its Internal error) with the suite still green
  // — so pin them to each other here.
  const std::vector<std::string>& known = core::KnownPolicyNames();
  EXPECT_FALSE(known.empty());
  for (const std::string& name : known) {
    EXPECT_NE(core::MakeDisseminator(name), nullptr)
        << "'" << name << "' is listed as known but has no factory";
  }
}

TEST(SessionValidationTest, RejectsOutOfRangeSourceIndex) {
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  RunSpec spec = SmallSpec();
  spec.source_index = 1;  // single-source world
  EXPECT_TRUE(session->Run(spec).status().IsInvalidArgument());
}

/// Runs `spec` and expects an InvalidArgument whose message names
/// `field`.
void ExpectRejected(const SimulationSession& session, const RunSpec& spec,
                    const std::string& field) {
  Result<ExperimentResult> result = session.Run(spec);
  ASSERT_FALSE(result.ok()) << field << " was accepted";
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  EXPECT_NE(result.status().message().find(field), std::string::npos)
      << result.status().ToString();
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(SessionValidationTest, RejectsNonFiniteCommDelayMean) {
  // Unchecked, +-inf rescaled every delay to 0 ms and NaN kept the
  // native delays, all without an error.
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  for (double bad : {kInf, -kInf, kNaN}) {
    RunSpec spec = SmallSpec();
    spec.policy.comm_delay_mean_ms = bad;
    ExpectRejected(*session, spec, "comm_delay_mean_ms");
  }
}

TEST(SessionValidationTest, RejectsOutOfRangeCommDelayMean) {
  // 1e300 ms overflows sim::Millis's int64 microsecond cast.
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  for (double bad : {1e300, -1e300, 1e16}) {
    RunSpec spec = SmallSpec();
    spec.policy.comm_delay_mean_ms = bad;
    ExpectRejected(*session, spec, "comm_delay_mean_ms");
  }
}

TEST(SessionValidationTest, CommDelayMeanPastThePackedStoreIsOutOfRange) {
  // In range for sim::Millis, but 1e7 ms = 1e10 us per pair does not fit
  // the delay model's 32-bit microsecond store.
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  RunSpec spec = SmallSpec();
  spec.policy.comm_delay_mean_ms = 1e7;
  EXPECT_TRUE(session->Run(spec).status().IsOutOfRange());
}

TEST(SessionValidationTest, RejectsNonFiniteCompDelay) {
  // NaN used to surface as the engine's "negative computational delay".
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  for (double bad : {kNaN, kInf, -kInf, 1e300, -1.0}) {
    RunSpec spec = SmallSpec();
    spec.policy.comp_delay_ms = bad;
    ExpectRejected(*session, spec, "comp_delay_ms");
  }
  // In range, but one job's busy period (a node pushing to all of its
  // children) would overflow the microsecond clock; the engine rejects it.
  RunSpec spec = SmallSpec();
  spec.policy.comp_delay_ms = 9e15;
  ExpectRejected(*session, spec, "comp_delay");
}

TEST(SessionValidationTest, RejectsNonFiniteRepairDelay) {
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  for (double bad : {kInf, kNaN, 1e300, -1.0}) {
    RunSpec spec = SmallSpec();
    spec.policy.repair_delay_ms = bad;
    ExpectRejected(*session, spec, "repair_delay_ms");
  }
  // In range for sim::Millis, but a failure's deferred repair could
  // overflow the microsecond clock; the engine rejects it.
  RunSpec spec = SmallSpec();
  spec.policy.repair_delay_ms = 9e15;
  ExpectRejected(*session, spec, "repair_delay");
}

TEST(SessionValidationTest, RejectsBadTagCheckCostFactor) {
  // NaN and negative factors used to be ignored silently; a factor whose
  // per-check cost overflows the microsecond clock is out of range.
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  for (double bad : {kNaN, kInf, -0.5, 1e300, 1e15}) {
    RunSpec spec = SmallSpec();
    spec.policy.tag_check_cost_factor = bad;
    ExpectRejected(*session, spec, "tag_check_cost_factor");
  }
}

TEST(SessionValidationTest, RejectsBadOverlayKnobs) {
  // Unchecked, a NaN p_window acted as a window of one candidate, an
  // infinite coop_f wrapped the controlled degree to 1, and a degree of
  // 0 ran silently at degree 1.
  Result<SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok());
  for (bool controlled : {false, true}) {
    RunSpec spec = SmallSpec();
    spec.overlay.coop_degree = 0;
    spec.overlay.controlled_cooperation = controlled;
    ExpectRejected(*session, spec, "coop_degree");
  }
  for (double bad : {kNaN, kInf, -kInf}) {
    RunSpec spec = SmallSpec();
    spec.overlay.controlled_cooperation = true;
    spec.overlay.coop_f = bad;
    ExpectRejected(*session, spec, "coop_f");
  }
  for (double bad : {kNaN, kInf}) {
    RunSpec spec = SmallSpec();
    spec.overlay.p_window = bad;
    ExpectRejected(*session, spec, "p_window");
  }
}

TEST(SessionOverrideTest, CustomInterestsAndTracesDriveTheRun) {
  NetworkConfig network = SmallNetwork();
  WorkloadConfig workload;
  workload.items = 2;
  workload.ticks = 100;
  std::vector<core::InterestSet> interests(network.repositories);
  for (size_t i = 0; i < interests.size(); ++i) {
    interests[i][0] = 0.05;
    interests[i][1] = 0.5;
  }
  std::vector<trace::Trace> traces;
  for (size_t item = 0; item < 2; ++item) {
    std::vector<trace::Tick> ticks;
    double value = 10.0 + static_cast<double>(item);
    for (size_t i = 0; i < 100; ++i) {
      ticks.push_back({sim::Seconds(static_cast<double>(i)), value});
      value += (i % 3 == 0) ? 0.2 : -0.1;
    }
    traces.emplace_back("item" + std::to_string(item), std::move(ticks));
  }
  Result<SimulationSession> session = SessionBuilder()
                                          .SetNetwork(network)
                                          .SetWorkload(workload)
                                          .SetSeed(7)
                                          .SetInterests(interests)
                                          .SetTraces(traces)
                                          .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->world().traces()[0].name(), "item0");
  Result<ExperimentResult> result = session->Run(SmallSpec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->metrics.messages, 0u);
}

TEST(SessionOverrideTest, RejectsMismatchedOverrides) {
  // One interest set short.
  std::vector<core::InterestSet> interests(SmallNetwork().repositories - 1);
  EXPECT_FALSE(SessionBuilder()
                   .SetNetwork(SmallNetwork())
                   .SetWorkload(SmallWorkload())
                   .SetInterests(interests)
                   .Build()
                   .ok());
  // One trace short.
  std::vector<trace::Trace> traces(SmallWorkload().items - 1);
  EXPECT_FALSE(SessionBuilder()
                   .SetNetwork(SmallNetwork())
                   .SetWorkload(SmallWorkload())
                   .SetTraces(traces)
                   .Build()
                   .ok());
}

TEST(SeedPlumbingTest, PerSourceSeedsAreDistinctAndDeterministic) {
  const uint64_t base = 42;
  EXPECT_EQ(PerSourceSeed(base, 0), PerSourceSeed(base, 0));
  EXPECT_NE(PerSourceSeed(base, 0), PerSourceSeed(base, 1));
  EXPECT_NE(PerSourceSeed(base, 1), PerSourceSeed(base, 2));
  EXPECT_NE(PerSourceSeed(base, 0), base);
  // A different base seed moves every per-source stream.
  EXPECT_NE(PerSourceSeed(base, 0), PerSourceSeed(base + 1, 0));
}

TEST(SeedPlumbingTest, MultiSourceSpecsCarryExplicitDecorrelatedSeeds) {
  const RunSpec base = SmallSpec();
  std::vector<RunSpec> specs = MultiSourceSpecs(base, 3);
  ASSERT_EQ(specs.size(), 3u);
  for (size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(specs[s].source_index, s);
    EXPECT_EQ(specs[s].seed, PerSourceSeed(base.seed, s));
    for (size_t t = s + 1; t < specs.size(); ++t) {
      EXPECT_NE(specs[s].seed, specs[t].seed);
    }
  }
}

// ---------------------------------------------------------------------------
// World-cached change timelines

void ExpectSameEngineMetrics(const core::EngineMetrics& a,
                             const core::EngineMetrics& b) {
  EXPECT_EQ(a.loss_percent, b.loss_percent);
  EXPECT_EQ(a.pair_loss_percent, b.pair_loss_percent);
  EXPECT_EQ(a.per_member_loss, b.per_member_loss);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.source_updates, b.source_updates);
  EXPECT_EQ(a.events, b.events);
}

TEST(TimelineCacheTest, WorldCacheEqualsPerRunBuildAcrossSeeds) {
  // Property: for any generated workload, the timelines cached on the
  // World at build time equal what BuildChangeTimelines would produce
  // per run, and a direct engine run behaves byte-identically with the
  // cache bound or rebuilding its own timelines.
  for (uint64_t seed : {7u, 42u, 1234u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Result<SimulationSession> session = SessionBuilder()
                                            .SetNetwork(SmallNetwork())
                                            .SetWorkload(SmallWorkload())
                                            .SetSeed(seed)
                                            .SetWorkerThreads(1)
                                            .Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const World& world = session->world();

    const core::ChangeTimelines rebuilt =
        core::BuildChangeTimelines(world.traces());
    const core::ChangeTimelines& cached = world.change_timelines();
    ASSERT_EQ(cached.size(), rebuilt.size());
    for (size_t item = 0; item < cached.size(); ++item) {
      ASSERT_EQ(cached[item].size(), rebuilt[item].size()) << "item " << item;
      for (size_t k = 0; k < cached[item].size(); ++k) {
        EXPECT_EQ(cached[item][k].time, rebuilt[item][k].time);
        EXPECT_EQ(cached[item][k].value, rebuilt[item][k].value);
      }
    }

    core::LelaOptions lela;
    lela.coop_degree = 3;
    Rng rng = Rng(seed).Fork(4);
    Result<core::LelaResult> built =
        core::BuildOverlay(world.delays(), world.interests(),
                           world.traces().size(), lela, rng);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto run = [&](const core::ChangeTimelines* timelines) {
      core::DistributedDisseminator policy;
      return core::Engine(built->overlay, world.delays(), world.traces(),
                          policy, core::EngineOptions{}, timelines)
          .Run();
    };
    Result<core::EngineMetrics> a = run(&world.change_timelines());
    Result<core::EngineMetrics> b = run(/*timelines=*/nullptr);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectSameEngineMetrics(*a, *b);
  }
}

TEST(TimelineCacheTest, PullEngineMatchesWithAndWithoutCache) {
  for (uint64_t seed : {7u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Result<SimulationSession> session = SessionBuilder()
                                            .SetNetwork(SmallNetwork())
                                            .SetWorkload(SmallWorkload())
                                            .SetSeed(seed)
                                            .SetWorkerThreads(1)
                                            .Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const World& world = session->world();
    core::PullOptions options;
    options.initial_ttr = sim::Seconds(1);
    Result<core::PullMetrics> cached =
        core::PullEngine(world.delays(), world.interests(), world.traces(),
                         options, &world.change_timelines())
            .Run();
    Result<core::PullMetrics> rebuilt =
        core::PullEngine(world.delays(), world.interests(), world.traces(),
                         options)
            .Run();
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(cached->loss_percent, rebuilt->loss_percent);
    EXPECT_EQ(cached->per_member_loss, rebuilt->per_member_loss);
    EXPECT_EQ(cached->polls, rebuilt->polls);
    EXPECT_EQ(cached->wire_messages, rebuilt->wire_messages);
    EXPECT_EQ(cached->changed_polls, rebuilt->changed_polls);
  }
}

TEST(TimelineCacheTest, EngineRejectsMismatchedCache) {
  Result<SimulationSession> session = BuildSmallSession(1);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const World& world = session->world();
  // A cache that does not cover every trace is rejected up front.
  core::ChangeTimelines truncated(world.change_timelines());
  truncated.pop_back();
  core::DistributedDisseminator policy;
  core::LelaOptions lela;
  lela.coop_degree = 3;
  Rng rng(1234);
  Result<core::LelaResult> built = core::BuildOverlay(
      world.delays(), world.interests(), world.traces().size(), lela, rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  core::Engine engine(built->overlay, world.delays(), world.traces(), policy,
                      core::EngineOptions{}, &truncated);
  EXPECT_TRUE(engine.Run().status().IsInvalidArgument());
}

}  // namespace
}  // namespace d3t::exp
