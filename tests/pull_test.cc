#include "core/pull.h"

#include <limits>

#include "gtest/gtest.h"
#include "trace/synthetic.h"

namespace d3t::core {
namespace {

/// Volatile trace: every second the price moves by several cents.
trace::Trace VolatileTrace(size_t ticks, Rng& rng) {
  trace::SyntheticTraceOptions options;
  options.name = "volatile";
  options.tick_count = ticks;
  options.move_probability = 0.9;
  options.mean_extra_cents = 4.0;
  options.min_price = 20.0;
  options.max_price = 24.0;
  return std::move(trace::GenerateSyntheticTrace(options, rng)).value();
}

/// Quiet trace: the value never changes.
trace::Trace QuietTrace(size_t ticks) {
  std::vector<trace::Tick> out;
  for (size_t i = 0; i < ticks; ++i) {
    out.push_back({sim::Seconds(static_cast<double>(i)), 50.0});
  }
  return trace::Trace("quiet", std::move(out));
}

/// Steady drift: 3,601 one-second ticks from 0.0, each `step` above the
/// last.
trace::Trace DriftTrace(double step) {
  std::vector<trace::Tick> out;
  for (size_t i = 0; i <= 3600; ++i) {
    out.push_back({sim::Seconds(static_cast<double>(i)),
                   step * static_cast<double>(i)});
  }
  return trace::Trace("drift", std::move(out));
}

PullOptions FastPull() {
  PullOptions options;
  options.comp_delay = sim::Millis(1);
  return options;
}

TEST(PullTest, ValidatesArguments) {
  std::vector<trace::Trace> traces = {QuietTrace(10)};
  std::vector<InterestSet> interests = {{{0, 0.1}}};
  auto delays = net::OverlayDelayModel::Uniform(2, sim::Millis(5));

  PullOptions bad = FastPull();
  bad.ttr_min = 0;
  EXPECT_FALSE(PullEngine(delays, interests, traces, bad).Run().ok());
  bad = FastPull();
  bad.ttr_max = bad.ttr_min - 1;
  EXPECT_FALSE(PullEngine(delays, interests, traces, bad).Run().ok());
  bad = FastPull();
  bad.initial_ttr = bad.ttr_max + 1;
  EXPECT_FALSE(PullEngine(delays, interests, traces, bad).Run().ok());
  bad = FastPull();
  bad.grow_factor = 0.5;
  EXPECT_FALSE(PullEngine(delays, interests, traces, bad).Run().ok());
  bad = FastPull();
  bad.comp_delay = -sim::Millis(500);
  EXPECT_TRUE(PullEngine(delays, interests, traces, bad)
                  .Run()
                  .status()
                  .IsInvalidArgument());
  // A TTR or a source backlog reaching kSimTimeMax / 4 could overflow
  // an event time; the error names the field.
  bad = FastPull();
  bad.ttr_max = sim::kSimTimeMax;
  Status overflow = PullEngine(delays, interests, traces, bad).Run().status();
  EXPECT_TRUE(overflow.IsInvalidArgument()) << overflow.ToString();
  EXPECT_NE(overflow.message().find("ttr_max"), std::string::npos)
      << overflow.ToString();
  bad = FastPull();
  bad.comp_delay = sim::kSimTimeMax / 2;
  overflow = PullEngine(delays, interests, traces, bad).Run().status();
  EXPECT_TRUE(overflow.IsInvalidArgument()) << overflow.ToString();
  EXPECT_NE(overflow.message().find("comp_delay"), std::string::npos)
      << overflow.ToString();
  // A NaN or infinite TTR factor is rejected, naming the field.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double value :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    bad = FastPull();
    bad.safety = value;
    Status status = PullEngine(delays, interests, traces, bad).Run().status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.message().find("safety"), std::string::npos)
        << status.ToString();
    bad = FastPull();
    bad.grow_factor = value;
    status = PullEngine(delays, interests, traces, bad).Run().status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.message().find("grow_factor"), std::string::npos)
        << status.ToString();
  }

  // Wrong delay-model size.
  auto small = net::OverlayDelayModel::Uniform(1, 0);
  EXPECT_FALSE(
      PullEngine(small, interests, traces, FastPull()).Run().ok());

  // Unknown item.
  std::vector<InterestSet> bad_item = {{{3, 0.1}}};
  EXPECT_FALSE(
      PullEngine(delays, bad_item, traces, FastPull()).Run().ok());

  // Tolerances must be finite and > 0; unchecked, each ran to an OK
  // result. The error names the member and the item.
  for (const double c :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), kInf}) {
    const std::vector<InterestSet> bad_c = {{{0, c}}};
    const Status status =
        PullEngine(delays, bad_c, traces, FastPull()).Run().status();
    EXPECT_TRUE(status.IsInvalidArgument()) << c << ": " << status.ToString();
    EXPECT_NE(status.message().find("member 1, item 0"), std::string::npos)
        << status.ToString();
  }

  // Tick times outside [0, kSimTimeMax / 4) would overflow the clock.
  for (const std::vector<trace::Tick>& ticks :
       {std::vector<trace::Tick>{{-sim::Seconds(2), 1.0}, {0, 2.0}},
        std::vector<trace::Tick>{{0, 1.0}, {sim::kSimTimeMax, 2.0}}}) {
    const std::vector<trace::Trace> bad_times = {trace::Trace("T", ticks)};
    const Status status =
        PullEngine(delays, interests, bad_times, FastPull()).Run().status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.message().find("item 0"), std::string::npos)
        << status.ToString();
  }
}

TEST(PullTest, QuietItemPollsBackOff) {
  std::vector<trace::Trace> traces = {QuietTrace(600)};  // 10 minutes
  std::vector<InterestSet> interests = {{{0, 0.1}}};
  auto delays = net::OverlayDelayModel::Uniform(2, sim::Millis(5));

  PullOptions adaptive = FastPull();
  Result<PullMetrics> adaptive_result =
      PullEngine(delays, interests, traces, adaptive).Run();
  ASSERT_TRUE(adaptive_result.ok());

  PullOptions fixed = FastPull();
  fixed.adaptive = false;
  Result<PullMetrics> fixed_result =
      PullEngine(delays, interests, traces, fixed).Run();
  ASSERT_TRUE(fixed_result.ok());

  // A quiet item never violates anything...
  EXPECT_DOUBLE_EQ(adaptive_result->loss_percent, 0.0);
  EXPECT_DOUBLE_EQ(fixed_result->loss_percent, 0.0);
  // ...so adaptive TTR must poll far less than a fixed 1s period.
  EXPECT_LT(adaptive_result->polls, fixed_result->polls / 3);

  // A near-constant item backs off like a visibly drifting one: a rate
  // so small that its TTR target overflows the clock still means
  // "poll rarely", not "poll at ttr_min".
  auto drift_polls = [&delays](double step) {
    const std::vector<trace::Trace> drift = {DriftTrace(step)};
    const std::vector<InterestSet> loose = {{{0, 1.0}}};
    Result<PullMetrics> run =
        PullEngine(delays, loose, drift, FastPull()).Run();
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run.ok() ? run->polls : ~uint64_t{0};
  };
  EXPECT_LE(drift_polls(1e-15), drift_polls(0.01));
}

TEST(PullTest, VolatileItemPollsSpeedUp) {
  Rng rng(1);
  std::vector<trace::Trace> traces = {VolatileTrace(600, rng)};
  std::vector<InterestSet> interests = {{{0, 0.02}}};  // stringent
  auto delays = net::OverlayDelayModel::Uniform(2, sim::Millis(5));

  PullOptions adaptive = FastPull();
  adaptive.initial_ttr = sim::Seconds(10);
  adaptive.ttr_max = sim::Seconds(10);
  Result<PullMetrics> adaptive_result =
      PullEngine(delays, interests, traces, adaptive).Run();
  ASSERT_TRUE(adaptive_result.ok());

  PullOptions fixed = adaptive;
  fixed.adaptive = false;
  Result<PullMetrics> fixed_result =
      PullEngine(delays, interests, traces, fixed).Run();
  ASSERT_TRUE(fixed_result.ok());

  // Starting from a lazy 10s period, the adaptive loop must tighten and
  // both poll more and lose less fidelity than the fixed loop.
  EXPECT_GT(adaptive_result->polls, fixed_result->polls * 2);
  EXPECT_LT(adaptive_result->loss_percent, fixed_result->loss_percent);
}

TEST(PullTest, TighterToleranceMeansMorePolls) {
  Rng rng(2);
  std::vector<trace::Trace> traces = {VolatileTrace(400, rng)};
  auto delays = net::OverlayDelayModel::Uniform(2, sim::Millis(5));

  std::vector<InterestSet> tight = {{{0, 0.02}}};
  std::vector<InterestSet> loose = {{{0, 0.9}}};
  Result<PullMetrics> tight_result =
      PullEngine(delays, tight, traces, FastPull()).Run();
  Result<PullMetrics> loose_result =
      PullEngine(delays, loose, traces, FastPull()).Run();
  ASSERT_TRUE(tight_result.ok());
  ASSERT_TRUE(loose_result.ok());
  EXPECT_GT(tight_result->polls, loose_result->polls);
}

TEST(PullTest, WireMessagesAreTwicePolls) {
  Rng rng(3);
  std::vector<trace::Trace> traces = {VolatileTrace(100, rng)};
  std::vector<InterestSet> interests = {{{0, 0.1}}};
  auto delays = net::OverlayDelayModel::Uniform(2, sim::Millis(5));
  Result<PullMetrics> result =
      PullEngine(delays, interests, traces, FastPull()).Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->wire_messages, result->polls * 2);
  EXPECT_GT(result->polls, 0u);
  EXPECT_LE(result->changed_polls, result->polls);
}

TEST(PullTest, SourceUtilizationGrowsWithClients) {
  Rng rng(4);
  std::vector<trace::Trace> traces = {VolatileTrace(300, rng)};
  auto run_with = [&](size_t clients) {
    std::vector<InterestSet> interests(clients, InterestSet{{0, 0.05}});
    auto delays = net::OverlayDelayModel::Uniform(clients + 1,
                                                  sim::Millis(5));
    PullOptions options = FastPull();
    options.comp_delay = sim::Millis(10);
    Result<PullMetrics> result =
        PullEngine(delays, interests, traces, options).Run();
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->source_utilization : -1.0;
  };
  const double few = run_with(2);
  const double many = run_with(20);
  EXPECT_GT(many, few);
  EXPECT_GE(few, 0.0);
  EXPECT_LE(many, 1.0 + 1e-9);
}

TEST(PullTest, DeterministicAcrossRuns) {
  Rng rng(5);
  std::vector<trace::Trace> traces = {VolatileTrace(200, rng)};
  std::vector<InterestSet> interests = {{{0, 0.05}}, {{0, 0.3}}};
  auto delays = net::OverlayDelayModel::Uniform(3, sim::Millis(7));
  Result<PullMetrics> a =
      PullEngine(delays, interests, traces, FastPull()).Run();
  Result<PullMetrics> b =
      PullEngine(delays, interests, traces, FastPull()).Run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->polls, b->polls);
  EXPECT_DOUBLE_EQ(a->loss_percent, b->loss_percent);
}

TEST(PullTest, TtrStaysWithinBounds) {
  // Indirect check: with ttr_min == ttr_max the poll count is fixed by
  // the horizon regardless of volatility.
  Rng rng(6);
  std::vector<trace::Trace> traces = {VolatileTrace(300, rng)};
  std::vector<InterestSet> interests = {{{0, 0.01}}};
  auto delays = net::OverlayDelayModel::Uniform(2, 0);
  PullOptions options = FastPull();
  options.ttr_min = options.ttr_max = options.initial_ttr =
      sim::Seconds(2.0);
  options.comp_delay = 0;
  Result<PullMetrics> result =
      PullEngine(delays, interests, traces, options).Run();
  ASSERT_TRUE(result.ok());
  // Horizon ~300s, period 2s -> ~150 polls (stagger trims at most one).
  EXPECT_NEAR(static_cast<double>(result->polls), 150.0, 3.0);
}

TEST(PullTest, PullFidelityIsImperfectOnVolatileData) {
  // Even aggressive polling cannot track a volatile item perfectly —
  // the motivation for push-based dissemination.
  Rng rng(7);
  std::vector<trace::Trace> traces = {VolatileTrace(300, rng)};
  std::vector<InterestSet> interests = {{{0, 0.01}}};
  auto delays = net::OverlayDelayModel::Uniform(2, sim::Millis(20));
  Result<PullMetrics> result =
      PullEngine(delays, interests, traces, FastPull()).Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->loss_percent, 0.0);
}

}  // namespace
}  // namespace d3t::core
