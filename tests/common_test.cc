#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/random.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "gtest/gtest.h"

namespace d3t {
namespace {

// ---------------------------------------------------------------------------
// Status / Result

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad fanout");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad fanout");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad fanout");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeName(Status::Code::kOk), "Ok");
  EXPECT_EQ(StatusCodeName(Status::Code::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeName(Status::Code::kCapacityExhausted),
            "CapacityExhausted");
  EXPECT_EQ(StatusCodeName(Status::Code::kIoError), "IoError");
  EXPECT_EQ(StatusCodeName(Status::Code::kInternal), "Internal");
}

TEST(StatusTest, PredicatesDiscriminate) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_FALSE(Status::NotFound("x").IsIoError());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 41);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.value_or(0), 41);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(r.ok());
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------------------
// Rng

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, InRangeInclusive) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ParetoRespectsMinimum) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.NextPareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, ParetoWithMeanMatchesDistribution) {
  Rng rng(21);
  StreamingStats stats;
  std::vector<double> samples;
  // Pareto(min 2, mean 15) is exactly the paper's delay model; its tail
  // index is 15/13 ~= 1.15, deep in the infinite-variance regime, so the
  // sample mean converges very slowly — check the median (analytically
  // min * 2^(1/alpha) ~= 3.65) tightly and the mean loosely.
  for (int i = 0; i < 200000; ++i) {
    const double v = rng.NextParetoWithMean(2.0, 15.0);
    stats.Add(v);
    samples.push_back(v);
  }
  const auto median = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), median, samples.end());
  EXPECT_GE(stats.min(), 2.0);
  EXPECT_NEAR(*median, 3.65, 0.15);
  EXPECT_GT(stats.mean(), 8.0);
  EXPECT_LT(stats.mean(), 40.0);
}

TEST(RngTest, ParetoModerateShapeMeanConverges) {
  Rng rng(22);
  StreamingStats stats;
  // alpha = 3 has finite variance: the sample mean must converge to
  // min * alpha / (alpha - 1) = 3.
  for (int i = 0; i < 200000; ++i) stats.Add(rng.NextPareto(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  StreamingStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.NextExponential(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(25);
  StreamingStats stats;
  StreamingStats squares;
  for (int i = 0; i < 200000; ++i) {
    const double v = rng.NextGaussian();
    stats.Add(v);
    squares.Add(v * v);
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  // With mean 0, the mean of squares is the variance.
  EXPECT_NEAR(squares.mean(), 1.0, 0.04);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(27);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng rng(29);
  Rng f1 = rng.Fork(1);
  Rng f2 = rng.Fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1.Next() == f2.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

// ---------------------------------------------------------------------------
// StreamingStats

TEST(StatsTest, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(StatsTest, BasicMoments) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

// ---------------------------------------------------------------------------
// CommandLine

TEST(CliTest, ParsesEqualsForm) {
  CommandLine cli;
  cli.AddFlag("degree", "5", "fanout");
  const char* argv[] = {"prog", "--degree=12"};
  ASSERT_TRUE(cli.Parse(2, argv).ok());
  EXPECT_EQ(cli.GetInt("degree"), 12);
}

TEST(CliTest, ParsesSpaceForm) {
  CommandLine cli;
  cli.AddFlag("t", "0.5", "stringency");
  const char* argv[] = {"prog", "--t", "0.8"};
  ASSERT_TRUE(cli.Parse(3, argv).ok());
  EXPECT_DOUBLE_EQ(cli.GetDouble("t"), 0.8);
}

TEST(CliTest, BareBooleanFlag) {
  CommandLine cli;
  cli.AddFlag("full", "false", "paper-scale run");
  const char* argv[] = {"prog", "--full"};
  ASSERT_TRUE(cli.Parse(2, argv).ok());
  EXPECT_TRUE(cli.GetBool("full"));
}

TEST(CliTest, DefaultsApply) {
  CommandLine cli;
  cli.AddFlag("seed", "42", "rng seed");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.Parse(1, argv).ok());
  EXPECT_EQ(cli.GetInt("seed"), 42);
}

TEST(CliTest, UnknownFlagRejected) {
  CommandLine cli;
  cli.AddFlag("seed", "42", "rng seed");
  const char* argv[] = {"prog", "--sneed=1"};
  EXPECT_TRUE(cli.Parse(2, argv).IsInvalidArgument());
}

TEST(CliTest, NonFlagRejected) {
  CommandLine cli;
  const char* argv[] = {"prog", "positional"};
  EXPECT_FALSE(cli.Parse(2, argv).ok());
}

TEST(CliTest, MalformedTypedValueFallsBackToDeclaredDefault) {
  // A typo like `--ticks=12o0` must not silently reconfigure the
  // experiment: the typed accessors warn (stderr) and return the
  // *declared* default — historically they returned strtoll/strtod's
  // silent 0, which is not even the default.
  CommandLine cli;
  cli.AddFlag("ticks", "600", "trace length");
  cli.AddFlag("t", "0.5", "stringency");
  cli.AddFlag("full", "false", "paper-scale run");
  const char* argv[] = {"prog", "--ticks=12o0", "--t=zero", "--full",
                        "maybe"};
  ASSERT_TRUE(cli.Parse(5, argv).ok());
  EXPECT_EQ(cli.GetInt("ticks"), 600);
  EXPECT_DOUBLE_EQ(cli.GetDouble("t"), 0.5);
  EXPECT_FALSE(cli.GetBool("full"));
  // The raw string stays available for callers that want it verbatim.
  EXPECT_EQ(cli.GetString("ticks"), "12o0");
  // Out of range is malformed too: strtoll clamps to INT64_MIN/MAX, and
  // strtod returns an infinity, a NaN or a value rounded toward zero.
  for (const std::string bad : {"99999999999999999999",
                                "-99999999999999999999"}) {
    CommandLine range_cli;
    range_cli.AddFlag("n", "600", "count");
    const std::string arg = "--n=" + bad;
    const char* range_argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(range_cli.Parse(2, range_argv).ok());
    EXPECT_EQ(range_cli.GetInt("n"), 600) << bad;
  }
  for (const std::string bad :
       {"nan", "NAN", "inf", "-inf", "infinity", "1e999", "-1e999",
        "1e-999"}) {
    CommandLine range_cli;
    range_cli.AddFlag("t", "0.5", "stringency");
    const std::string arg = "--t=" + bad;
    const char* range_argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(range_cli.Parse(2, range_argv).ok());
    EXPECT_DOUBLE_EQ(range_cli.GetDouble("t"), 0.5) << bad;
  }
}

TEST(CliTest, WellFormedValuesNeverFallBack) {
  CommandLine cli;
  cli.AddFlag("count", "7", "n");
  cli.AddFlag("ratio", "0.25", "r");
  cli.AddFlag("on", "false", "b");
  cli.AddFlag("max", "0", "m");
  const char* argv[] = {"prog", "--count=-3", "--ratio=1e-2", "--on=yes",
                        "--max=9223372036854775807"};
  ASSERT_TRUE(cli.Parse(5, argv).ok());
  EXPECT_EQ(cli.GetInt("count"), -3);
  EXPECT_EQ(cli.GetInt("max"), INT64_MAX);
  EXPECT_DOUBLE_EQ(cli.GetDouble("ratio"), 0.01);
  EXPECT_TRUE(cli.GetBool("on"));
}

TEST(CliTest, HelpListsFlags) {
  CommandLine cli;
  cli.AddFlag("alpha", "1", "first");
  cli.AddFlag("beta", "2", "second");
  std::string help = cli.Help("prog");
  EXPECT_NE(help.find("--alpha"), std::string::npos);
  EXPECT_NE(help.find("--beta"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TablePrinter

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", TablePrinter::Num(1.5)});
  table.AddRow({"b", TablePrinter::Int(42)});
  std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, NumPrecision) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 3), "3.142");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::Int(-7), "-7");
}

TEST(TableTest, ShortRowsPadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NO_FATAL_FAILURE(table.ToString());
}

}  // namespace
}  // namespace d3t
