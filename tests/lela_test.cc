#include "core/lela.h"

#include <algorithm>
#include <limits>

#include "gtest/gtest.h"
#include "net/delay_model.h"

namespace d3t::core {
namespace {

net::OverlayDelayModel UniformDelays(size_t members) {
  return net::OverlayDelayModel::Uniform(members, sim::Millis(20));
}

LelaOptions DefaultOptions(size_t degree = 5) {
  LelaOptions options;
  options.coop_degree = degree;
  return options;
}

TEST(LelaTest, SingleRepositoryServedBySource) {
  Rng rng(1);
  std::vector<InterestSet> interests = {{{0, 0.5}, {1, 0.2}}};
  Result<LelaResult> built = BuildOverlay(UniformDelays(2), interests, 2,
                                          DefaultOptions(), rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Overlay& overlay = built->overlay;
  EXPECT_TRUE(overlay.Validate(5).ok());
  EXPECT_EQ(overlay.Serving(1, 0).parent, kSourceOverlayIndex);
  EXPECT_EQ(overlay.Serving(1, 1).parent, kSourceOverlayIndex);
  EXPECT_EQ(overlay.level(1), 1u);
}

TEST(LelaTest, DegreeOneFormsChain) {
  Rng rng(2);
  const size_t repos = 8;
  std::vector<InterestSet> interests(repos, InterestSet{{0, 0.5}});
  Result<LelaResult> built = BuildOverlay(UniformDelays(repos + 1),
                                          interests, 1,
                                          DefaultOptions(1), rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Overlay& overlay = built->overlay;
  ASSERT_TRUE(overlay.Validate(1).ok());
  OverlayShape shape = overlay.ComputeShape();
  EXPECT_EQ(shape.diameter, repos + 1);  // a chain
  EXPECT_EQ(shape.max_dependents, 1u);
  EXPECT_EQ(built->info.levels, repos + 1);
}

TEST(LelaTest, LargeDegreeFormsStar) {
  Rng rng(3);
  const size_t repos = 10;
  std::vector<InterestSet> interests(repos, InterestSet{{0, 0.5}});
  Result<LelaResult> built = BuildOverlay(UniformDelays(repos + 1),
                                          interests, 1,
                                          DefaultOptions(100), rng);
  ASSERT_TRUE(built.ok());
  OverlayShape shape = built->overlay.ComputeShape();
  EXPECT_EQ(shape.diameter, 2u);  // source serves everyone directly
  EXPECT_EQ(shape.max_dependents, repos);
}

TEST(LelaTest, FanoutNeverExceedsDegree) {
  for (size_t degree : {1u, 2u, 3u, 7u, 20u}) {
    Rng rng(100 + degree);
    InterestOptions workload;
    workload.repository_count = 40;
    workload.item_count = 10;
    auto interests = GenerateInterests(workload, rng);
    Result<LelaResult> built = BuildOverlay(UniformDelays(41), interests, 10,
                                            DefaultOptions(degree), rng);
    ASSERT_TRUE(built.ok()) << "degree " << degree;
    EXPECT_TRUE(built->overlay.Validate(degree).ok()) << "degree " << degree;
  }
}

TEST(LelaTest, Eq1HoldsAlongEveryPath) {
  Rng rng(4);
  InterestOptions workload;
  workload.repository_count = 60;
  workload.item_count = 20;
  auto interests = GenerateInterests(workload, rng);
  Result<LelaResult> built = BuildOverlay(UniformDelays(61), interests, 20,
                                          DefaultOptions(4), rng);
  ASSERT_TRUE(built.ok());
  // Validate() checks Eq. (1) edge-by-edge, which implies it holds along
  // paths by transitivity.
  EXPECT_TRUE(built->overlay.Validate(4).ok());
}

TEST(LelaTest, EveryOwnInterestIsHeldAtOwnToleranceOrTighter) {
  Rng rng(5);
  InterestOptions workload;
  workload.repository_count = 50;
  workload.item_count = 15;
  auto interests = GenerateInterests(workload, rng);
  Result<LelaResult> built = BuildOverlay(UniformDelays(51), interests, 15,
                                          DefaultOptions(3), rng);
  ASSERT_TRUE(built.ok());
  const Overlay& overlay = built->overlay;
  for (size_t i = 0; i < interests.size(); ++i) {
    const OverlayIndex m = static_cast<OverlayIndex>(i + 1);
    for (const auto& [item, c] : interests[i]) {
      ASSERT_TRUE(overlay.Holds(m, item));
      const ItemServing& s = overlay.Serving(m, item);
      EXPECT_TRUE(s.own_interest);
      EXPECT_DOUBLE_EQ(s.c_own, c);
      EXPECT_LE(s.c_serve, c);
    }
  }
}

TEST(LelaTest, AugmentationRecruitsUninterestedParents) {
  // Repo A wants item 0 only; repo B wants items 0 and 1. With degree 1
  // B must hang off A, so A is augmented to carry item 1 it never wanted.
  Rng rng(6);
  std::vector<InterestSet> interests = {
      {{0, 0.05}},           // A: stringent, inserted first
      {{0, 0.5}, {1, 0.5}},  // B
  };
  Result<LelaResult> built = BuildOverlay(UniformDelays(3), interests, 2,
                                          DefaultOptions(1), rng);
  ASSERT_TRUE(built.ok());
  const Overlay& overlay = built->overlay;
  ASSERT_TRUE(overlay.Validate(1).ok());
  // A (member 1) holds item 1 purely for B.
  EXPECT_TRUE(overlay.Holds(1, 1));
  EXPECT_FALSE(overlay.Serving(1, 1).own_interest);
  EXPECT_EQ(overlay.Serving(2, 1).parent, 1u);
  EXPECT_GT(built->info.demand_edges, 0u);
  EXPECT_GT(built->info.augmented_edges, 0u);
}

TEST(LelaTest, AugmentationTightensAncestors) {
  // A wants item 0 loosely; B wants it stringently. With degree 1 the
  // chain forces A to tighten its service to satisfy B (the paper: a
  // repository may receive more updates than it itself needs).
  Rng rng(7);
  std::vector<InterestSet> interests = {
      {{0, 0.9}},   // A, loose — inserted first (stringent-first sorts by
                    // mean c, so force index order)
      {{0, 0.05}},  // B, stringent
  };
  LelaOptions options = DefaultOptions(1);
  options.insertion_order = InsertionOrder::kIndexOrder;
  Result<LelaResult> built =
      BuildOverlay(UniformDelays(3), interests, 1, options, rng);
  ASSERT_TRUE(built.ok());
  const Overlay& overlay = built->overlay;
  ASSERT_TRUE(overlay.Validate(1).ok());
  EXPECT_EQ(overlay.Serving(2, 0).parent, 1u);
  EXPECT_DOUBLE_EQ(overlay.Serving(1, 0).c_serve, 0.05);
  EXPECT_DOUBLE_EQ(overlay.Serving(1, 0).c_own, 0.9);
}

TEST(LelaTest, StringentFirstPlacesStringentCloser) {
  Rng rng(8);
  // Ten repos with distinct stringencies on one item.
  std::vector<InterestSet> interests;
  for (int i = 0; i < 10; ++i) {
    interests.push_back({{0, 0.05 + 0.09 * i}});
  }
  LelaOptions options = DefaultOptions(2);
  options.insertion_order = InsertionOrder::kStringentFirst;
  Result<LelaResult> built =
      BuildOverlay(UniformDelays(11), interests, 1, options, rng);
  ASSERT_TRUE(built.ok());
  const Overlay& overlay = built->overlay;
  // Mean level of the 3 most stringent must not exceed the mean level of
  // the 3 least stringent.
  double stringent_level = 0, loose_level = 0;
  for (int i = 0; i < 3; ++i) {
    stringent_level += overlay.level(static_cast<OverlayIndex>(i + 1));
    loose_level += overlay.level(static_cast<OverlayIndex>(10 - i));
  }
  EXPECT_LE(stringent_level, loose_level);
}

TEST(LelaTest, RejectsBadArguments) {
  Rng rng(9);
  std::vector<InterestSet> interests = {{{0, 0.5}}};
  LelaOptions options = DefaultOptions(0);
  EXPECT_FALSE(
      BuildOverlay(UniformDelays(2), interests, 1, options, rng).ok());
  options = DefaultOptions();
  options.p_window = -0.1;
  EXPECT_FALSE(
      BuildOverlay(UniformDelays(2), interests, 1, options, rng).ok());
  // A NaN window used to act as a window of one.
  options.p_window = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(BuildOverlay(UniformDelays(2), interests, 1, options, rng)
                  .status()
                  .IsInvalidArgument());
  // Unknown item id.
  std::vector<InterestSet> bad_item = {{{7, 0.5}}};
  EXPECT_FALSE(
      BuildOverlay(UniformDelays(2), bad_item, 1, DefaultOptions(), rng)
          .ok());
  // Non-positive tolerance.
  std::vector<InterestSet> bad_c = {{{0, 0.0}}};
  EXPECT_FALSE(
      BuildOverlay(UniformDelays(2), bad_c, 1, DefaultOptions(), rng).ok());
  // NaN and infinite tolerances: NaN used to build an overlay that
  // failed Validate, and +inf a holding that nothing bounds.
  for (const double c : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    const std::vector<InterestSet> non_finite = {{{0, 0.5}}, {{0, c}}};
    const Status status =
        BuildOverlay(UniformDelays(3), non_finite, 1, DefaultOptions(), rng)
            .status();
    EXPECT_TRUE(status.IsInvalidArgument()) << c << ": " << status.ToString();
  }
  // Delay model too small.
  EXPECT_FALSE(
      BuildOverlay(UniformDelays(1), interests, 1, DefaultOptions(), rng)
          .ok());
}

TEST(LelaTest, PreferenceP2IgnoresAvailability) {
  // Two candidate parents at level 1: one rich in data but slightly more
  // loaded. P1 (availability-aware) and P2 can pick different parents;
  // here we only assert both produce valid overlays.
  Rng rng(10);
  InterestOptions workload;
  workload.repository_count = 30;
  workload.item_count = 10;
  auto interests = GenerateInterests(workload, rng);
  for (PreferenceFunction pref :
       {PreferenceFunction::kP1, PreferenceFunction::kP2}) {
    LelaOptions options = DefaultOptions(3);
    options.preference = pref;
    Rng build_rng(11);
    Result<LelaResult> built =
        BuildOverlay(UniformDelays(31), interests, 10, options, build_rng);
    ASSERT_TRUE(built.ok());
    EXPECT_TRUE(built->overlay.Validate(3).ok());
  }
}

TEST(LelaTest, WideWindowAllowsMultipleParents) {
  Rng rng(12);
  InterestOptions workload;
  workload.repository_count = 50;
  workload.item_count = 20;
  auto interests = GenerateInterests(workload, rng);
  LelaOptions narrow = DefaultOptions(4);
  narrow.p_window = 0.0;
  LelaOptions wide = DefaultOptions(4);
  wide.p_window = 5.0;  // effectively everyone in the window
  Rng rng_a(13), rng_b(13);
  Result<LelaResult> built_narrow =
      BuildOverlay(UniformDelays(51), interests, 20, narrow, rng_a);
  Result<LelaResult> built_wide =
      BuildOverlay(UniformDelays(51), interests, 20, wide, rng_b);
  ASSERT_TRUE(built_narrow.ok());
  ASSERT_TRUE(built_wide.ok());
  EXPECT_TRUE(built_narrow->overlay.Validate(4).ok());
  EXPECT_TRUE(built_wide->overlay.Validate(4).ok());
  EXPECT_GE(built_wide->info.multi_parent_repositories,
            built_narrow->info.multi_parent_repositories);
}

TEST(LelaTest, DeterministicGivenSeed) {
  InterestOptions workload;
  workload.repository_count = 40;
  workload.item_count = 10;
  Rng w1(14), w2(14);
  auto interests1 = GenerateInterests(workload, w1);
  auto interests2 = GenerateInterests(workload, w2);
  Rng b1(15), b2(15);
  Result<LelaResult> r1 = BuildOverlay(UniformDelays(41), interests1, 10,
                                       DefaultOptions(3), b1);
  Result<LelaResult> r2 = BuildOverlay(UniformDelays(41), interests2, 10,
                                       DefaultOptions(3), b2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (OverlayIndex m = 0; m < r1->overlay.member_count(); ++m) {
    EXPECT_EQ(r1->overlay.level(m), r2->overlay.level(m));
    EXPECT_EQ(r1->overlay.ConnectionChildren(m),
              r2->overlay.ConnectionChildren(m));
  }
}

TEST(LelaTest, EmptyInterestPlacedAsLeaf) {
  Rng rng(16);
  std::vector<InterestSet> interests = {{}, {{0, 0.5}}};
  LelaOptions options = DefaultOptions(2);
  options.insertion_order = InsertionOrder::kIndexOrder;
  Result<LelaResult> built =
      BuildOverlay(UniformDelays(3), interests, 1, options, rng);
  ASSERT_TRUE(built.ok());
  EXPECT_TRUE(built->overlay.ConnectionParents(1).empty());
  EXPECT_TRUE(built->overlay.Validate(2).ok());
  // The data-needing repo is still served.
  EXPECT_TRUE(built->overlay.Holds(2, 0));
}

TEST(ReapplyLelaTest, ChangedNeedsRebuildCleanly) {
  // The paper's handling of changed requirements: reapply the algorithm.
  Rng rng(23);
  InterestOptions workload;
  workload.repository_count = 15;
  workload.item_count = 5;
  auto interests = GenerateInterests(workload, rng);
  auto delays = net::OverlayDelayModel::Uniform(16, sim::Millis(10));
  LelaOptions options;
  options.coop_degree = 3;
  Rng build1(1);
  Result<LelaResult> before =
      BuildOverlay(delays, interests, 5, options, build1);
  ASSERT_TRUE(before.ok());

  // Tighten one repository's tolerances and rebuild.
  for (auto& [item, c] : interests[4]) c = 0.01;
  Rng build2(1);
  Result<LelaResult> after =
      BuildOverlay(delays, interests, 5, options, build2);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->overlay.Validate(3).ok());
  for (const auto& [item, c] : interests[4]) {
    EXPECT_LE(after->overlay.Serving(5, item).c_serve, 0.01);
  }
}

}  // namespace
}  // namespace d3t::core
