#include <limits>

#include "common/random.h"
#include "core/coherency.h"
#include "core/coop_degree.h"
#include "core/interest.h"
#include "gtest/gtest.h"

namespace d3t::core {
namespace {

// ---------------------------------------------------------------------------
// Filtering predicates (paper §5)

TEST(CoherencyTest, Eq1ParentMustBeAtLeastAsStringent) {
  EXPECT_TRUE(SatisfiesEq1(0.1, 0.5));
  EXPECT_TRUE(SatisfiesEq1(0.5, 0.5));
  EXPECT_FALSE(SatisfiesEq1(0.5, 0.1));
  EXPECT_TRUE(SatisfiesEq1(0.0, 0.01));  // source serves anyone
}

TEST(CoherencyTest, Eq3FiresOnViolation) {
  EXPECT_TRUE(ViolatesEq3(1.6, 1.0, 0.5));
  EXPECT_FALSE(ViolatesEq3(1.5, 1.0, 0.5));  // exactly c is not a violation
  EXPECT_FALSE(ViolatesEq3(1.2, 1.0, 0.5));
  EXPECT_TRUE(ViolatesEq3(0.4, 1.0, 0.5));  // downward moves too
}

TEST(CoherencyTest, Eq7GuardsHiddenViolations) {
  // Paper's Fig. 4: cp = 0.3, cq = 0.5, last sent to q = 1.0. The value
  // 1.4 does not violate cq (|1.4-1.0| = 0.4 <= 0.5) but the remaining
  // slack 0.1 < cp, so the next update could take q out of sync while
  // hiding inside p's dead zone.
  EXPECT_TRUE(MissedUpdateGuard(1.4, 1.0, 0.5, 0.3));
  // Value 1.2: slack 0.3 is not < cp = 0.3 -> safe to hold back.
  EXPECT_FALSE(MissedUpdateGuard(1.2, 1.0, 0.5, 0.3));
}

TEST(CoherencyTest, CombinedRuleEquivalence) {
  // ShouldForwardDistributed == |v - last| > cq - cp, for all regimes.
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const double last = rng.NextDoubleInRange(0, 100);
    const double v = last + rng.NextDoubleInRange(-2, 2);
    const double cq = rng.NextDoubleInRange(0.01, 1.0);
    const double cp = rng.NextDoubleInRange(0.0, cq);
    const bool rule = ShouldForwardDistributed(v, last, cq, cp);
    const bool closed_form = std::abs(v - last) > cq - cp;
    EXPECT_EQ(rule, closed_form)
        << "v=" << v << " last=" << last << " cq=" << cq << " cp=" << cp;
  }
}

TEST(CoherencyTest, SourceReducesToEq3) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const double last = rng.NextDoubleInRange(0, 100);
    const double v = last + rng.NextDoubleInRange(-2, 2);
    const double cq = rng.NextDoubleInRange(0.01, 1.0);
    EXPECT_EQ(ShouldForwardDistributed(v, last, cq, 0.0),
              ViolatesEq3(v, last, cq));
  }
}

TEST(CoherencyTest, ForwardingIsMonotoneInDeviation) {
  // If a deviation d triggers forwarding, any larger deviation must too.
  const double cq = 0.5, cp = 0.2;
  bool started = false;
  for (double d = 0.0; d <= 1.0; d += 0.005) {
    const bool f = ShouldForwardDistributed(1.0 + d, 1.0, cq, cp);
    if (started) {
      EXPECT_TRUE(f) << "forwarding stopped at d=" << d;
    }
    started = started || f;
  }
  EXPECT_TRUE(started);
}

// ---------------------------------------------------------------------------
// Eq. (2) cooperation degree

TEST(CoopDegreeTest, PaperOperatingPoint) {
  CoopDegreeInputs inputs;  // comm 25 ms, comp 12.5 ms, f = 50
  EXPECT_EQ(ComputeCooperationDegree(inputs), 5u);
}

TEST(CoopDegreeTest, IncreasesWithCommDelay) {
  CoopDegreeInputs lo, hi;
  lo.avg_comm_delay = sim::Millis(10);
  hi.avg_comm_delay = sim::Millis(100);
  EXPECT_LT(ComputeCooperationDegree(lo), ComputeCooperationDegree(hi));
}

TEST(CoopDegreeTest, DecreasesWithCompDelay) {
  CoopDegreeInputs lo, hi;
  lo.avg_comp_delay = sim::Millis(5);
  hi.avg_comp_delay = sim::Millis(25);
  EXPECT_GT(ComputeCooperationDegree(lo), ComputeCooperationDegree(hi));
}

TEST(CoopDegreeTest, ClampedToResources) {
  CoopDegreeInputs inputs;
  inputs.avg_comm_delay = sim::Millis(10000);
  inputs.max_resources = 30;
  EXPECT_EQ(ComputeCooperationDegree(inputs), 30u);
  // A product past the integer range saturates instead of wrapping to 1.
  inputs.avg_comm_delay = sim::Millis(25);
  for (const double f : {1e20, std::numeric_limits<double>::infinity()}) {
    inputs.f = f;
    EXPECT_EQ(ComputeCooperationDegree(inputs), 30u) << f;
  }
}

TEST(CoopDegreeTest, NeverBelowOne) {
  CoopDegreeInputs inputs;
  inputs.avg_comm_delay = 0;
  EXPECT_EQ(ComputeCooperationDegree(inputs), 1u);
}

TEST(CoopDegreeTest, ZeroCompDelayMeansMaxCooperation) {
  CoopDegreeInputs inputs;
  inputs.avg_comp_delay = 0;
  inputs.max_resources = 100;
  EXPECT_EQ(ComputeCooperationDegree(inputs), 100u);
}

// ---------------------------------------------------------------------------
// Interest generation (paper §6.1 workload)

TEST(InterestTest, RespectsItemProbability) {
  InterestOptions options;
  options.repository_count = 200;
  options.item_count = 100;
  options.item_probability = 0.5;
  Rng rng(3);
  auto interests = GenerateInterests(options, rng);
  ASSERT_EQ(interests.size(), 200u);
  size_t total = 0;
  for (const auto& interest : interests) total += interest.size();
  const double mean_items =
      static_cast<double>(total) / static_cast<double>(interests.size());
  EXPECT_NEAR(mean_items, 50.0, 3.0);
}

TEST(InterestTest, StringentFractionHonored) {
  InterestOptions options;
  options.repository_count = 100;
  options.item_count = 100;
  options.stringent_fraction = 0.7;
  Rng rng(4);
  auto interests = GenerateInterests(options, rng);
  size_t stringent = 0, total = 0;
  for (const auto& interest : interests) {
    for (const auto& [item, c] : interest) {
      (void)item;
      ++total;
      if (c < 0.1) ++stringent;
    }
  }
  EXPECT_NEAR(static_cast<double>(stringent) / total, 0.7, 0.03);
}

TEST(InterestTest, TolerancesWithinPaperRanges) {
  InterestOptions options;
  Rng rng(5);
  auto interests = GenerateInterests(options, rng);
  for (const auto& interest : interests) {
    for (const auto& [item, c] : interest) {
      (void)item;
      EXPECT_GE(c, 0.01);
      EXPECT_LE(c, 0.999);
      // Quantized to $0.001.
      EXPECT_NEAR(c * 1000.0, std::round(c * 1000.0), 1e-6);
    }
  }
}

TEST(InterestTest, TBoundaries) {
  InterestOptions options;
  options.stringent_fraction = 1.0;
  Rng rng(6);
  for (const auto& interest : GenerateInterests(options, rng)) {
    for (const auto& [item, c] : interest) {
      (void)item;
      EXPECT_LT(c, 0.1);
    }
  }
  options.stringent_fraction = 0.0;
  for (const auto& interest : GenerateInterests(options, rng)) {
    for (const auto& [item, c] : interest) {
      (void)item;
      EXPECT_GE(c, 0.1);
    }
  }
}

TEST(InterestTest, EnsureNonemptyWorks) {
  InterestOptions options;
  options.item_probability = 0.0;
  Rng rng(7);
  for (const auto& interest : GenerateInterests(options, rng)) {
    EXPECT_EQ(interest.size(), 1u);
  }
}

TEST(InterestTest, MeanCoherency) {
  InterestSet set = {{0, 0.1}, {1, 0.3}};
  EXPECT_DOUBLE_EQ(MeanCoherency(set), 0.2);
  EXPECT_TRUE(std::isinf(MeanCoherency({})));
}

}  // namespace
}  // namespace d3t::core
