#include "core/disseminator.h"

#include <memory>

#include "gtest/gtest.h"

namespace d3t::core {
namespace {

/// Fig. 4 setup: source -> P (cp = 0.3) -> Q (cq = 0.5), one item.
class Fig4Fixture : public testing::Test {
 protected:
  Fig4Fixture() : overlay_(3, 1) {
    overlay_.SetServing(kSourceOverlayIndex, 0, 0.0, kInvalidOverlayIndex);
    overlay_.SetOwnInterest(1, 0, 0.3);
    overlay_.AddItemEdge(0, 1, 0, 0.3);
    overlay_.SetOwnInterest(2, 0, 0.5);
    overlay_.AddItemEdge(1, 2, 0, 0.5);
    EXPECT_TRUE(overlay_.Validate().ok());
  }

  /// Feeds the paper's Fig. 4 value sequence through source -> P -> Q
  /// with zero delays and returns the values applied at P and at Q.
  struct Propagation {
    std::vector<double> at_p;
    std::vector<double> at_q;
  };
  Propagation Propagate(Disseminator& policy,
                        const std::vector<double>& updates) {
    policy.Initialize(overlay_, {1.0});
    Propagation result;
    const ItemEdge& sp = overlay_.Serving(0, 0).children[0];  // source->P
    const ItemEdge& pq = overlay_.Serving(1, 0).children[0];  // P->Q
    for (double v : updates) {
      BeginDecision at_source = policy.BeginUpdate(0, 0, 0, v, 0.0);
      if (at_source.drop) continue;
      if (!policy.ShouldPush(0, 0, 0, sp, v, at_source.tag)) continue;
      result.at_p.push_back(v);
      BeginDecision at_p = policy.BeginUpdate(0, 1, 0, v, at_source.tag);
      if (at_p.drop) continue;
      if (policy.ShouldPush(0, 1, 0, pq, v, at_p.tag)) {
        result.at_q.push_back(v);
      }
    }
    return result;
  }

  Overlay overlay_;
};

// The paper's exact Fig. 4 sequence at the source.
const std::vector<double> kFig4Updates = {1.2, 1.4, 1.5, 1.7, 2.0};

TEST_F(Fig4Fixture, Eq3OnlyMissesTheUpdate) {
  Eq3OnlyDisseminator policy;
  Propagation prop = Propagate(policy, kFig4Updates);
  // P sees 1.4 (|1.4-1.0| > 0.3) and 2.0 (|2.0-1.4| > 0.3); 1.5 and 1.7
  // hide inside the source->P dead zone.
  EXPECT_EQ(prop.at_p, (std::vector<double>{1.4, 2.0}));
  // Q holds 1.0 while the source reaches 1.7: |1.7 - 1.0| = 0.7 > cq,
  // a coherency violation Eq. (3) alone cannot prevent. Had the trace
  // stopped at 1.5, Q would be permanently one full tolerance stale:
  Propagation truncated = Propagate(policy, {1.2, 1.4, 1.5});
  EXPECT_EQ(truncated.at_q.size(), 0u);
  // With the full sequence Q only catches up at 2.0.
  EXPECT_EQ(prop.at_q, (std::vector<double>{2.0}));
}

TEST_F(Fig4Fixture, DistributedForwardsTheGuardUpdate) {
  DistributedDisseminator policy;
  Propagation prop = Propagate(policy, kFig4Updates);
  // 1.4 satisfies Eq. (7) at P (slack 0.1 < cp 0.3) and is pushed to Q,
  // exactly as Fig. 4 prescribes.
  ASSERT_FALSE(prop.at_q.empty());
  EXPECT_DOUBLE_EQ(prop.at_q.front(), 1.4);
  // After a truncated run Q is within 0.5 of the source (1.5 vs 1.4).
  Propagation truncated = Propagate(policy, {1.2, 1.4, 1.5});
  ASSERT_FALSE(truncated.at_q.empty());
  EXPECT_LE(std::abs(1.5 - truncated.at_q.back()), 0.5);
}

TEST_F(Fig4Fixture, CentralizedNeverStrandsQ) {
  CentralizedDisseminator policy;
  for (const auto& updates :
       {kFig4Updates, std::vector<double>{1.2, 1.4, 1.5}}) {
    Propagation prop = Propagate(policy, updates);
    // Whenever the run ends, Q's last applied value is within cq of the
    // final source value.
    double q_value = 1.0;
    if (!prop.at_q.empty()) q_value = prop.at_q.back();
    EXPECT_LE(std::abs(updates.back() - q_value), 0.5);
  }
}

TEST_F(Fig4Fixture, AllUpdatesPushesEverything) {
  AllUpdatesDisseminator policy;
  Propagation prop = Propagate(policy, kFig4Updates);
  EXPECT_EQ(prop.at_p.size(), kFig4Updates.size());
  EXPECT_EQ(prop.at_q.size(), kFig4Updates.size());
}

TEST(CentralizedTest, TracksUniqueTolerances) {
  Overlay overlay(4, 2);
  overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  overlay.SetServing(0, 1, 0.0, kInvalidOverlayIndex);
  overlay.SetOwnInterest(1, 0, 0.1);
  overlay.AddItemEdge(0, 1, 0, 0.1);
  overlay.SetOwnInterest(2, 0, 0.1);  // duplicate tolerance
  overlay.AddItemEdge(0, 2, 0, 0.1);
  overlay.SetOwnInterest(3, 0, 0.4);
  overlay.AddItemEdge(0, 3, 0, 0.4);
  CentralizedDisseminator policy;
  policy.Initialize(overlay, {1.0, 1.0});
  // The source scans one class per unique tolerance: {0.1, 0.4} for
  // item 0, none for item 1.
  EXPECT_EQ(policy.BeginUpdate(0, 0, 0, 1.0, 0.0).extra_checks, 2u);
  EXPECT_EQ(policy.BeginUpdate(0, 0, 1, 1.0, 0.0).extra_checks, 0u);
}

TEST(CentralizedTest, TagIsMaxViolatedTolerance) {
  Overlay overlay(3, 1);
  overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  overlay.SetOwnInterest(1, 0, 0.1);
  overlay.AddItemEdge(0, 1, 0, 0.1);
  overlay.SetOwnInterest(2, 0, 0.4);
  overlay.AddItemEdge(0, 2, 0, 0.4);
  CentralizedDisseminator policy;
  policy.Initialize(overlay, {1.0});

  // +0.2: violates 0.1 only -> tag 0.1, only the 0.1 edge pushes.
  BeginDecision d = policy.BeginUpdate(0, 0, 0, 1.2, 0.0);
  EXPECT_FALSE(d.drop);
  EXPECT_DOUBLE_EQ(d.tag, 0.1);
  EXPECT_EQ(d.extra_checks, 2u);
  const auto& edges = overlay.Serving(0, 0).children;
  EXPECT_TRUE(policy.ShouldPush(0, 0, 0, edges[0], 1.2, d.tag));   // c=0.1
  EXPECT_FALSE(policy.ShouldPush(0, 0, 0, edges[1], 1.2, d.tag));  // c=0.4

  // +0.5 from 1.2 (for c=0.1 last sent 1.2; for c=0.4 last sent 1.0):
  // |1.7-1.2|=0.5 > 0.1 and |1.7-1.0|=0.7 > 0.4 -> tag 0.4, both push.
  d = policy.BeginUpdate(0, 0, 0, 1.7, 0.0);
  EXPECT_DOUBLE_EQ(d.tag, 0.4);
  EXPECT_TRUE(policy.ShouldPush(0, 0, 0, edges[1], 1.7, d.tag));
}

TEST(CentralizedTest, DropsWhenNothingViolated) {
  Overlay overlay(2, 1);
  overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  overlay.SetOwnInterest(1, 0, 0.5);
  overlay.AddItemEdge(0, 1, 0, 0.5);
  CentralizedDisseminator policy;
  policy.Initialize(overlay, {1.0});
  BeginDecision d = policy.BeginUpdate(0, 0, 0, 1.3, 0.0);
  EXPECT_TRUE(d.drop);
  EXPECT_EQ(d.extra_checks, 1u);
}

TEST(DistributedTest, LastSentPerEdgeIsIndependent) {
  // Source serves two children with different tolerances; pushing to one
  // must not disturb the other's last-sent state.
  Overlay overlay(3, 1);
  overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
  overlay.SetOwnInterest(1, 0, 0.1);
  overlay.AddItemEdge(0, 1, 0, 0.1);
  overlay.SetOwnInterest(2, 0, 0.4);
  overlay.AddItemEdge(0, 2, 0, 0.4);
  DistributedDisseminator policy;
  policy.Initialize(overlay, {1.0});
  const auto& edges = overlay.Serving(0, 0).children;
  // 1.2: only the 0.1 child.
  EXPECT_TRUE(policy.ShouldPush(0, 0, 0, edges[0], 1.2, 0.0));
  EXPECT_FALSE(policy.ShouldPush(0, 0, 0, edges[1], 1.2, 0.0));
  // 1.45: child0 wrt last 1.2 -> push; child1 wrt last 1.0 -> 0.45 > 0.4.
  EXPECT_TRUE(policy.ShouldPush(0, 0, 0, edges[0], 1.45, 0.0));
  EXPECT_TRUE(policy.ShouldPush(0, 0, 0, edges[1], 1.45, 0.0));
}

TEST(DistributedTest, EdgesCreatedAfterInitializeStartWithAResync) {
  // OnEdgeCreated is the only way an edge created after Initialize (a
  // scenario repair, on a recycled or a fresh id) reaches a per-edge
  // policy. The edge pushes its first update even inside its tolerance
  // and filters normally after that; an edge that existed at Initialize
  // keeps its own state.
  for (const char* name : {"distributed", "eq3-only", "temporal"}) {
    SCOPED_TRACE(name);
    Overlay overlay(4, 1);
    overlay.SetServing(0, 0, 0.0, kInvalidOverlayIndex);
    overlay.SetOwnInterest(1, 0, 0.1);
    overlay.AddItemEdge(0, 1, 0, 0.1);
    overlay.SetOwnInterest(2, 0, 0.4);
    overlay.AddItemEdge(0, 2, 0, 0.4);
    std::unique_ptr<Disseminator> policy = MakeDisseminator(name);
    ASSERT_NE(policy, nullptr);
    policy->Initialize(overlay, {1.0});
    // Both edges push 1.5 at t = 1 s, so a slot left stale by its
    // previous incarnation would suppress the resync below.
    for (const ItemEdge& edge : overlay.Serving(0, 0).children) {
      EXPECT_TRUE(
          policy->ShouldPush(sim::Seconds(1), 0, 0, edge, 1.5, 0.0));
    }
    // Member 2 fails and re-attaches on its recycled edge id; member 3
    // joins on a fresh one.
    ASSERT_TRUE(overlay.DetachMember(2).ok());
    for (const OverlayIndex m : {2u, 3u}) {
      const EdgeId id = overlay.AddItemEdge(0, m, 0, 0.4);
      overlay.SetOwnInterest(m, 0, 0.4);
      policy->OnEdgeCreated(id, 0, 0.4);
    }
    const auto& edges = overlay.Serving(0, 0).children;
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(edges[1].id, 1u);  // recycled
    EXPECT_EQ(edges[2].id, 2u);  // fresh
    for (size_t i = 1; i < edges.size(); ++i) {
      // 1.3 is within 0.4 of the initial 1.0 and of the recycled slot's
      // 1.5, and 1 s after that slot's last push: only the resync sends
      // it.
      EXPECT_TRUE(
          policy->ShouldPush(sim::Seconds(2), 0, 0, edges[i], 1.3, 0.0));
      EXPECT_FALSE(
          policy->ShouldPush(sim::Seconds(3), 0, 0, edges[i], 1.4, 0.0));
      EXPECT_TRUE(
          policy->ShouldPush(sim::Seconds(7), 0, 0, edges[i], 1.8, 0.0));
    }
    // The pre-existing edge kept its last push (1.5 at 1 s): a nearby
    // value inside its window is suppressed, a later larger one pushes.
    EXPECT_FALSE(
        policy->ShouldPush(sim::Seconds(3), 0, 0, edges[0], 1.55, 0.0));
    EXPECT_TRUE(
        policy->ShouldPush(sim::Seconds(6), 0, 0, edges[0], 1.7, 0.0));
  }
}

TEST(FactoryTest, MakesAllPolicies) {
  for (const char* name :
       {"distributed", "centralized", "eq3-only", "all-updates", "temporal"}) {
    std::unique_ptr<Disseminator> policy = MakeDisseminator(name);
    EXPECT_NE(policy, nullptr) << name;
  }
  EXPECT_EQ(MakeDisseminator("bogus"), nullptr);
}

}  // namespace
}  // namespace d3t::core
