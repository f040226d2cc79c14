#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "trace/synthetic.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace d3t::trace {
namespace {

// ---------------------------------------------------------------------------
// Trace

TEST(TraceTest, ValueAtSteps) {
  Trace trace("X", {{0, 1.0}, {10, 2.0}, {20, 3.0}});
  EXPECT_DOUBLE_EQ(trace.ValueAt(-5), 1.0);
  EXPECT_DOUBLE_EQ(trace.ValueAt(0), 1.0);
  EXPECT_DOUBLE_EQ(trace.ValueAt(9), 1.0);
  EXPECT_DOUBLE_EQ(trace.ValueAt(10), 2.0);
  EXPECT_DOUBLE_EQ(trace.ValueAt(15), 2.0);
  EXPECT_DOUBLE_EQ(trace.ValueAt(20), 3.0);
  EXPECT_DOUBLE_EQ(trace.ValueAt(1000), 3.0);
}

TEST(TraceTest, EmptyTrace) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.ValueAt(5), 0.0);
  EXPECT_EQ(trace.ComputeStats().tick_count, 0u);
}

TEST(TraceTest, StatsComputation) {
  Trace trace("X", {{0, 10.0}, {10, 10.0}, {20, 10.5}, {30, 9.5}});
  TraceStats stats = trace.ComputeStats();
  EXPECT_EQ(stats.tick_count, 4u);
  EXPECT_DOUBLE_EQ(stats.min_value, 9.5);
  EXPECT_DOUBLE_EQ(stats.max_value, 10.5);
  EXPECT_NEAR(stats.change_fraction, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats.mean_abs_change, 0.75, 1e-9);  // (0.5 + 1.0) / 2
  EXPECT_DOUBLE_EQ(stats.mean_interval_us, 10.0);
}

// ---------------------------------------------------------------------------
// Synthetic generator

TEST(SyntheticTest, RejectsBadOptions) {
  Rng rng(1);
  SyntheticTraceOptions options;
  options.tick_count = 0;
  EXPECT_FALSE(GenerateSyntheticTrace(options, rng).ok());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // An inverted band, then non-finite bounds, which an ordering check
  // alone lets through into a trace of NaN or inf values.
  const std::vector<std::pair<double, double>> bands = {
      {10.0, 9.0}, {20.0, nan}, {nan, 21.0}, {20.0, inf}, {-inf, 21.0}};
  for (const auto& [lo, hi] : bands) {
    options = SyntheticTraceOptions{};
    options.min_price = lo;
    options.max_price = hi;
    EXPECT_TRUE(
        GenerateSyntheticTrace(options, rng).status().IsInvalidArgument())
        << lo << ".." << hi;
  }
}

TEST(SyntheticTest, StaysInsideBand) {
  Rng rng(2);
  SyntheticTraceOptions options;
  options.min_price = 27.16;  // DELL band from Table 1
  options.max_price = 28.26;
  options.tick_count = 5000;
  Result<Trace> trace = GenerateSyntheticTrace(options, rng);
  ASSERT_TRUE(trace.ok());
  TraceStats stats = trace->ComputeStats();
  EXPECT_GE(stats.min_value, options.min_price);
  EXPECT_LE(stats.max_value, options.max_price);
  EXPECT_EQ(stats.tick_count, 5000u);
}

TEST(SyntheticTest, ValuesAreCentQuantized) {
  Rng rng(3);
  SyntheticTraceOptions options;
  options.tick_count = 1000;
  Result<Trace> trace = GenerateSyntheticTrace(options, rng);
  ASSERT_TRUE(trace.ok());
  for (const Tick& tick : trace->ticks()) {
    const double cents = tick.value * 100.0;
    EXPECT_NEAR(cents, std::round(cents), 1e-6);
  }
}

TEST(SyntheticTest, TickRateApproximatelyOnePerSecond) {
  Rng rng(4);
  SyntheticTraceOptions options;
  options.tick_count = 2000;
  Result<Trace> trace = GenerateSyntheticTrace(options, rng);
  ASSERT_TRUE(trace.ok());
  TraceStats stats = trace->ComputeStats();
  EXPECT_NEAR(stats.mean_interval_us, 1e6, 1e5);
}

TEST(SyntheticTest, ChangeFractionTracksMoveProbability) {
  Rng rng(5);
  SyntheticTraceOptions options;
  options.tick_count = 20000;
  options.move_probability = 0.35;
  Result<Trace> trace = GenerateSyntheticTrace(options, rng);
  ASSERT_TRUE(trace.ok());
  TraceStats stats = trace->ComputeStats();
  // Some moves are clipped at the band edge, so observed <= requested.
  EXPECT_GT(stats.change_fraction, 0.2);
  EXPECT_LE(stats.change_fraction, 0.4);
}

TEST(SyntheticTest, MoveSizesAreCentsScale) {
  Rng rng(6);
  SyntheticTraceOptions options;
  options.tick_count = 20000;
  options.mean_extra_cents = 1.5;
  Result<Trace> trace = GenerateSyntheticTrace(options, rng);
  ASSERT_TRUE(trace.ok());
  TraceStats stats = trace->ComputeStats();
  EXPECT_GE(stats.mean_abs_change, 0.01);
  EXPECT_LT(stats.mean_abs_change, 0.06);
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  SyntheticTraceOptions options;
  options.tick_count = 500;
  Rng rng1(77), rng2(77);
  Result<Trace> a = GenerateSyntheticTrace(options, rng1);
  Result<Trace> b = GenerateSyntheticTrace(options, rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->ticks()[i].time, b->ticks()[i].time);
    EXPECT_EQ(a->ticks()[i].value, b->ticks()[i].value);
  }
}

TEST(SyntheticTest, RoundToCents) {
  EXPECT_DOUBLE_EQ(RoundToCents(1.234), 1.23);
  EXPECT_DOUBLE_EQ(RoundToCents(1.235), 1.24);
  EXPECT_DOUBLE_EQ(RoundToCents(-0.005), -0.01);
}

// ---------------------------------------------------------------------------
// Library / Table 1 presets

TEST(LibraryTest, PresetsMatchTable1) {
  const auto& presets = Table1Presets();
  ASSERT_EQ(presets.size(), 6u);
  EXPECT_EQ(presets[0].name, "MSFT");
  EXPECT_DOUBLE_EQ(presets[0].min_price, 60.09);
  EXPECT_DOUBLE_EQ(presets[0].max_price, 60.85);
  EXPECT_EQ(presets[5].name, "ORCL");
}

TEST(LibraryTest, BuildsRequestedCount) {
  Rng rng(8);
  std::vector<Trace> traces = BuildTraceLibrary(20, 300, rng);
  ASSERT_EQ(traces.size(), 20u);
  EXPECT_EQ(traces[0].name(), "MSFT");
  EXPECT_EQ(traces[6].name(), "SYN6");
  for (const Trace& trace : traces) {
    EXPECT_EQ(trace.size(), 300u);
    TraceStats stats = trace.ComputeStats();
    EXPECT_GT(stats.min_value, 0.0);
    EXPECT_GT(stats.max_value, stats.min_value);
  }
}

TEST(LibraryTest, PresetBandsRespected) {
  Rng rng(9);
  std::vector<Trace> traces = BuildTraceLibrary(6, 2000, rng);
  const auto& presets = Table1Presets();
  for (size_t i = 0; i < 6; ++i) {
    TraceStats stats = traces[i].ComputeStats();
    EXPECT_GE(stats.min_value, presets[i].min_price) << presets[i].name;
    EXPECT_LE(stats.max_value, presets[i].max_price) << presets[i].name;
  }
}

// ---------------------------------------------------------------------------
// CSV I/O

TEST(TraceIoTest, RoundTrip) {
  // Loading a saved trace returns every value exactly: a synthetic cent
  // price series, and values finer than any fixed number of decimals.
  Rng rng(10);
  SyntheticTraceOptions options;
  options.name = "RT";
  options.tick_count = 200;
  Result<Trace> synthetic = GenerateSyntheticTrace(options, rng);
  ASSERT_TRUE(synthetic.ok());
  Trace fine("fine",
             {{0, 1e-5}, {1, 2e-5}, {2, 3e-5}, {3, 60.0123456789}});
  const std::string path = testing::TempDir() + "/d3t_trace_rt.csv";
  for (const Trace* original : {&*synthetic, &fine}) {
    SCOPED_TRACE(original->name());
    ASSERT_TRUE(SaveTraceCsv(*original, path).ok());
    Result<Trace> loaded = LoadTraceCsv(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->name(), original->name());
    ASSERT_EQ(loaded->size(), original->size());
    for (size_t i = 0; i < loaded->size(); ++i) {
      EXPECT_EQ(loaded->ticks()[i].time, original->ticks()[i].time);
      EXPECT_EQ(loaded->ticks()[i].value, original->ticks()[i].value);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, ParseRejectsMalformed) {
  EXPECT_FALSE(ParseTraceCsv("not-a-row\n", "x").ok());
  EXPECT_FALSE(ParseTraceCsv("abc,1.0\n", "x").ok());
  EXPECT_FALSE(ParseTraceCsv("10,zzz\n", "x").ok());
  // An out-of-range time would clamp to an int64 limit, and a
  // non-finite value would poison every loss integral.
  EXPECT_FALSE(ParseTraceCsv("99999999999999999999,1.0\n", "x").ok());
  EXPECT_FALSE(ParseTraceCsv("-99999999999999999999,1.0\n", "x").ok());
  EXPECT_FALSE(ParseTraceCsv("10,nan\n", "x").ok());
  EXPECT_FALSE(ParseTraceCsv("10,inf\n", "x").ok());
  EXPECT_FALSE(ParseTraceCsv("10,-1e999\n", "x").ok());
}

TEST(TraceIoTest, ParseRejectsNonIncreasingTimes) {
  EXPECT_FALSE(ParseTraceCsv("10,1.0\n10,2.0\n", "x").ok());
  EXPECT_FALSE(ParseTraceCsv("10,1.0\n5,2.0\n", "x").ok());
}

TEST(TraceIoTest, ParseAcceptsCommentsAndBlankLines) {
  Result<Trace> trace =
      ParseTraceCsv("# MSFT\n\n0,60.10\n1000000,60.11\n", "fallback");
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->name(), "MSFT");
  EXPECT_EQ(trace->size(), 2u);
}

TEST(TraceIoTest, LoadMissingFileFails) {
  EXPECT_TRUE(LoadTraceCsv("/nonexistent/definitely/missing.csv")
                  .status()
                  .IsIoError());
}

TEST(TraceIoTest, ParseRejectsTrailingJunkAfterNumbers) {
  // strtoll/strtod stop at the first bad character; a partially-parsed
  // number must be an error, not a silently truncated value.
  EXPECT_FALSE(ParseTraceCsv("10x,1.0\n", "x").ok());
  EXPECT_FALSE(ParseTraceCsv("10,1.0junk\n", "x").ok());
  EXPECT_FALSE(ParseTraceCsv("10 20,1.0\n", "x").ok());
  // Trailing whitespace and CRLF endings are fine.
  EXPECT_TRUE(ParseTraceCsv("10,1.0\r\n", "x").ok());
  EXPECT_TRUE(ParseTraceCsv("10 ,1.0 \n", "x").ok());
}

TEST(TraceIoTest, ParseRejectsTracesWithNoDataRows) {
  // An empty or comment-only file is a truncated trace, not an empty
  // one — engines require at least the initial value.
  Result<Trace> empty = ParseTraceCsv("", "x");
  ASSERT_FALSE(empty.ok());
  EXPECT_TRUE(empty.status().IsInvalidArgument());
  EXPECT_FALSE(ParseTraceCsv("# only-a-name\n\n", "x").ok());
  EXPECT_FALSE(ParseTraceCsv("   \n\t\n", "x").ok());
}

}  // namespace
}  // namespace d3t::trace
