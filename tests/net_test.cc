#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "gtest/gtest.h"
#include "net/delay_model.h"
#include "net/routing.h"
#include "net/topology.h"
#include "net/topology_generator.h"

namespace d3t::net {
namespace {

// ---------------------------------------------------------------------------
// Topology

TEST(TopologyTest, StartsAsRouters) {
  Topology topo(5);
  EXPECT_EQ(topo.node_count(), 5u);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(topo.kind(n), NodeKind::kRouter);
  }
  EXPECT_EQ(topo.SourceNode(), kInvalidNode);
}

TEST(TopologyTest, RolesAssignable) {
  Topology topo(4);
  topo.set_kind(0, NodeKind::kSource);
  topo.set_kind(2, NodeKind::kRepository);
  topo.set_kind(3, NodeKind::kRepository);
  EXPECT_EQ(topo.SourceNode(), 0u);
  EXPECT_EQ(topo.RepositoryNodes(), (std::vector<NodeId>{2, 3}));
}

TEST(TopologyTest, MultipleSourcesDetected) {
  Topology topo(3);
  topo.set_kind(0, NodeKind::kSource);
  topo.set_kind(1, NodeKind::kSource);
  EXPECT_EQ(topo.SourceNode(), kInvalidNode);
}

TEST(TopologyTest, LinkValidation) {
  Topology topo(3);
  EXPECT_TRUE(topo.AddLink(0, 1, 10).ok());
  EXPECT_TRUE(topo.AddLink(0, 0, 10).IsInvalidArgument());
  EXPECT_TRUE(topo.AddLink(0, 7, 10).IsOutOfRange());
  EXPECT_TRUE(topo.AddLink(0, 1, -1).IsInvalidArgument());
  // The links' total stays below kPathDelayLimit, so no path sum can
  // reach the routing sentinel or overflow int64: two kSimTimeMax / 2
  // links used to.
  EXPECT_TRUE(topo.AddLink(0, 1, sim::kSimTimeMax).IsOutOfRange());
  EXPECT_TRUE(topo.AddLink(1, 2, sim::kSimTimeMax / 2).IsOutOfRange());
  EXPECT_TRUE(topo.AddLink(1, 2, kPathDelayLimit - 10).IsOutOfRange());
  EXPECT_TRUE(topo.AddLink(1, 2, kPathDelayLimit - 11).ok());
  EXPECT_TRUE(topo.AddLink(0, 2, 1).IsOutOfRange());
  EXPECT_TRUE(topo.AddLink(0, 2, 0).ok());
  EXPECT_EQ(topo.link_count(), 3u);
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(topo);
  ASSERT_TRUE(routing.ok());
  EXPECT_EQ(routing->Delay(1, 2), 10);
  EXPECT_EQ(RoutingTables::kUnreachableDelay, kPathDelayLimit);
}

TEST(TopologyTest, AdjacencySymmetric) {
  Topology topo(3);
  ASSERT_TRUE(topo.AddLink(0, 2, 7).ok());
  ASSERT_EQ(topo.neighbors(0).size(), 1u);
  EXPECT_EQ(topo.neighbors(0)[0].first, 2u);
  EXPECT_EQ(topo.neighbors(0)[0].second, 7);
  ASSERT_EQ(topo.neighbors(2).size(), 1u);
  EXPECT_EQ(topo.neighbors(2)[0].first, 0u);
}

TEST(TopologyTest, Connectivity) {
  Topology topo(4);
  EXPECT_FALSE(topo.IsConnected());
  ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
  ASSERT_TRUE(topo.AddLink(1, 2, 1).ok());
  EXPECT_FALSE(topo.IsConnected());
  ASSERT_TRUE(topo.AddLink(2, 3, 1).ok());
  EXPECT_TRUE(topo.IsConnected());
}

// ---------------------------------------------------------------------------
// Generator

TEST(GeneratorTest, ProducesConnectedNetworkWithRoles) {
  Rng rng(1);
  TopologyGeneratorOptions options;
  options.router_count = 60;
  options.repository_count = 10;
  Result<Topology> topo = GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  EXPECT_EQ(topo->node_count(), 71u);
  EXPECT_TRUE(topo->IsConnected());
  EXPECT_NE(topo->SourceNode(), kInvalidNode);
  EXPECT_EQ(topo->RepositoryNodes().size(), 10u);
  // Spanning tree guarantees >= n-1 links.
  EXPECT_GE(topo->link_count(), 70u);
}

TEST(GeneratorTest, RejectsZeroRepositories) {
  Rng rng(2);
  TopologyGeneratorOptions options;
  options.repository_count = 0;
  EXPECT_FALSE(GenerateTopology(options, rng).ok());
}

TEST(GeneratorTest, RejectsBadDelayParams) {
  // Every pair fails validation by name, before any delay is sampled:
  // NaN and infinities included, which a plain `<=` check lets through.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> bad[] = {
      {5.0, 2.0}, {2.0, 2.0}, {0.0, 4.0},  {-1.0, 4.0}, {nan, 4.0},
      {1.5, nan}, {nan, nan}, {inf, 4.0},  {1.5, inf},  {-inf, 4.0},
      {1.5, -inf}, {inf, inf}, {1e16, 2e16}, {3e15, 4e15}, {1e300, 2e300}};
  for (const auto& [min_ms, mean_ms] : bad) {
    SCOPED_TRACE("min " + std::to_string(min_ms) + " mean " +
                 std::to_string(mean_ms));
    Rng rng(3);
    TopologyGeneratorOptions options;
    options.link_delay_min_ms = min_ms;
    options.link_delay_mean_ms = mean_ms;
    const Status status = GenerateTopology(options, rng).status();
    EXPECT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("link_delay_"), std::string::npos)
        << status.ToString();
  }
  // Valid parameters that draw a link delay (the first pair) or a sum of
  // link delays (the second) past the path-delay limit fail before
  // sim::Millis's cast or a path sum can overflow.
  const std::pair<double, double> heavy[] = {{2.3e15, 1e300},
                                             {1e15, 1.01e15}};
  for (const auto& [min_ms, mean_ms] : heavy) {
    SCOPED_TRACE("min " + std::to_string(min_ms) + " mean " +
                 std::to_string(mean_ms));
    Rng rng(3);
    TopologyGeneratorOptions options;
    options.link_delay_min_ms = min_ms;
    options.link_delay_mean_ms = mean_ms;
    const Status status = GenerateTopology(options, rng).status();
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("path-delay limit"), std::string::npos)
        << status.ToString();
  }
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  TopologyGeneratorOptions options;
  options.router_count = 30;
  options.repository_count = 5;
  Rng rng1(99), rng2(99);
  Result<Topology> a = GenerateTopology(options, rng1);
  Result<Topology> b = GenerateTopology(options, rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->link_count(), b->link_count());
  for (size_t i = 0; i < a->links().size(); ++i) {
    EXPECT_EQ(a->links()[i].a, b->links()[i].a);
    EXPECT_EQ(a->links()[i].b, b->links()[i].b);
    EXPECT_EQ(a->links()[i].delay, b->links()[i].delay);
  }
}

// ---------------------------------------------------------------------------
// Routing

/// Small fixed network with known shortest paths.
Topology DiamondTopology() {
  // 0 --1ms-- 1 --1ms-- 3,  0 --5ms-- 2 --1ms-- 3
  Topology topo(4);
  EXPECT_TRUE(topo.AddLink(0, 1, sim::Millis(1)).ok());
  EXPECT_TRUE(topo.AddLink(1, 3, sim::Millis(1)).ok());
  EXPECT_TRUE(topo.AddLink(0, 2, sim::Millis(5)).ok());
  EXPECT_TRUE(topo.AddLink(2, 3, sim::Millis(1)).ok());
  return topo;
}

TEST(RoutingTest, FloydWarshallShortestDelays) {
  Topology topo = DiamondTopology();
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(topo);
  ASSERT_TRUE(routing.ok());
  EXPECT_EQ(routing->Delay(0, 3), sim::Millis(2));
  EXPECT_EQ(routing->Hops(0, 3), 2u);
  EXPECT_EQ(routing->Delay(0, 2), sim::Millis(3));  // via 1 and 3
  EXPECT_EQ(routing->Hops(0, 2), 3u);
  EXPECT_EQ(routing->Delay(2, 2), 0);
  EXPECT_EQ(routing->Hops(2, 2), 0u);
}

TEST(RoutingTest, FloydWarshallSymmetricOnUndirectedGraph) {
  Rng rng(5);
  TopologyGeneratorOptions options;
  options.router_count = 40;
  options.repository_count = 8;
  Result<Topology> topo = GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(*topo);
  ASSERT_TRUE(routing.ok());
  for (NodeId i = 0; i < topo->node_count(); i += 7) {
    for (NodeId j = 0; j < topo->node_count(); j += 5) {
      EXPECT_EQ(routing->Delay(i, j), routing->Delay(j, i));
    }
  }
}

TEST(RoutingTest, FloydWarshallRejectsDisconnected) {
  Topology topo(3);
  ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
  EXPECT_TRUE(RoutingTables::FloydWarshall(topo)
                  .status()
                  .IsFailedPrecondition());
}

TEST(RoutingTest, DijkstraMatchesFloydWarshall) {
  Rng rng(6);
  TopologyGeneratorOptions options;
  options.router_count = 50;
  options.repository_count = 10;
  Result<Topology> topo = GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  Result<RoutingTables> fw = RoutingTables::FloydWarshall(*topo);
  ASSERT_TRUE(fw.ok());
  std::vector<NodeId> rows = {0, 5, 13, 42};
  Result<RoutingTables> dj = RoutingTables::DijkstraRows(*topo, rows);
  ASSERT_TRUE(dj.ok());
  for (NodeId row : rows) {
    EXPECT_TRUE(dj->HasRow(row));
    for (NodeId j = 0; j < topo->node_count(); ++j) {
      EXPECT_EQ(dj->Delay(row, j), fw->Delay(row, j))
          << "row " << row << " col " << j;
      EXPECT_EQ(dj->Hops(row, j), fw->Hops(row, j))
          << "row " << row << " col " << j;
    }
  }
  EXPECT_FALSE(dj->HasRow(1));
}

TEST(RoutingTest, ParallelLinksUseCheapest) {
  Topology topo(2);
  ASSERT_TRUE(topo.AddLink(0, 1, sim::Millis(9)).ok());
  ASSERT_TRUE(topo.AddLink(0, 1, sim::Millis(3)).ok());
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(topo);
  ASSERT_TRUE(routing.ok());
  EXPECT_EQ(routing->Delay(0, 1), sim::Millis(3));
}

TEST(RoutingTest, DijkstraRowOutOfRange) {
  Topology topo(2);
  ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
  EXPECT_TRUE(
      RoutingTables::DijkstraRows(topo, {5}).status().IsOutOfRange());
}

TEST(RoutingTest, CheckedQueriesFlagUnroutedRows) {
  // Row-table representation: only requested rows are computed, and
  // HasRow tells a caller which rows it may query.
  Topology topo = DiamondTopology();
  Result<RoutingTables> dj = RoutingTables::DijkstraRows(topo, {0});
  ASSERT_TRUE(dj.ok());
  EXPECT_TRUE(dj->HasRow(0));
  EXPECT_FALSE(dj->HasRow(1));
  EXPECT_FALSE(dj->HasRow(2));
  EXPECT_FALSE(dj->HasRow(9));  // beyond node_count()

  EXPECT_EQ(dj->Delay(0, 3), sim::Millis(2));
  EXPECT_EQ(dj->Hops(0, 3), 2u);
}

TEST(RoutingTest, DuplicateDijkstraRowRequestsAreComputedOnce) {
  Topology topo = DiamondTopology();
  Result<RoutingTables> dj = RoutingTables::DijkstraRows(topo, {0, 0, 3});
  ASSERT_TRUE(dj.ok());
  EXPECT_TRUE(dj->HasRow(0));
  EXPECT_TRUE(dj->HasRow(3));
  EXPECT_EQ(dj->Delay(0, 3), dj->Delay(3, 0));
}

TEST(RoutingTest, StreamingRowMatchesDijkstraTables) {
  Rng rng(9);
  TopologyGeneratorOptions options;
  options.router_count = 30;
  options.repository_count = 6;
  Result<Topology> topo = GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  Result<RoutingTables> dj = RoutingTables::DijkstraRows(*topo, {4});
  ASSERT_TRUE(dj.ok());
  std::vector<sim::SimTime> delay;
  std::vector<uint32_t> hops;
  RadixFrontier frontier;
  RoutingTables::ShortestPathsFrom(*topo, 4, delay, hops, frontier);
  ASSERT_EQ(delay.size(), topo->node_count());
  for (NodeId j = 0; j < topo->node_count(); ++j) {
    EXPECT_EQ(delay[j], dj->Delay(4, j)) << "col " << j;
    EXPECT_EQ(hops[j], dj->Hops(4, j)) << "col " << j;
  }
}

TEST(RoutingTest, DijkstraRowsMatchFloydWarshallOnWideDelays) {
  // Link delays drawn log-uniformly from 0 to 2^40 us, with extra zeros
  // and repeats, reach every bucket a 41-bit key files into, refill
  // across wide gaps, and re-expand nodes whose label improves over a
  // zero-delay link after they were expanded. Every row must match
  // Floyd-Warshall in delay and hops.
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<sim::SimTime> drawn;
    auto draw_delay = [&rng, &drawn] {
      sim::SimTime delay = 0;
      const uint64_t kind = rng.NextBounded(8);
      if (kind == 1 && !drawn.empty()) {
        delay = drawn[rng.NextBounded(drawn.size())];
      } else if (kind > 1) {
        const uint64_t bits = rng.NextBounded(41);
        if (bits > 0) {
          const uint64_t low = uint64_t{1} << (bits - 1);
          delay = static_cast<sim::SimTime>(low + rng.NextBounded(low));
        }
      }
      drawn.push_back(delay);
      return delay;
    };
    const NodeId n = static_cast<NodeId>(4 + rng.NextBounded(40));
    Topology topo(n);
    for (NodeId v = 1; v < n; ++v) {
      const NodeId parent = static_cast<NodeId>(rng.NextBounded(v));
      ASSERT_TRUE(topo.AddLink(v, parent, draw_delay()).ok());
    }
    for (uint64_t i = rng.NextBounded(2 * n); i > 0; --i) {
      const NodeId a = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(n));
      if (a != b) {
        ASSERT_TRUE(topo.AddLink(a, b, draw_delay()).ok());
      }
    }
    std::vector<NodeId> rows(n);
    for (NodeId v = 0; v < n; ++v) rows[v] = v;
    rng.Shuffle(rows);
    Result<RoutingTables> floyd = RoutingTables::FloydWarshall(topo);
    Result<RoutingTables> dijkstra = RoutingTables::DijkstraRows(topo, rows);
    ASSERT_TRUE(floyd.ok());
    ASSERT_TRUE(dijkstra.ok());
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        ASSERT_EQ(dijkstra->Delay(i, j), floyd->Delay(i, j))
            << "row " << i << " col " << j;
        ASSERT_EQ(dijkstra->Hops(i, j), floyd->Hops(i, j))
            << "row " << i << " col " << j;
      }
    }
  }
}

TEST(RoutingTest, MemberCorePrunesLeavesAndContractsChains) {
  // Source 0 reaches hub router 3 over routers 1-2; repository 4 hangs
  // off the hub directly and repository 9 over router 10. Routers 5-6
  // are a member-free pendant and 7-8 a member-free cycle through 3.
  Topology topo(11);
  topo.set_kind(0, NodeKind::kSource);
  topo.set_kind(4, NodeKind::kRepository);
  topo.set_kind(9, NodeKind::kRepository);
  const std::pair<NodeId, NodeId> links[] = {
      {0, 1}, {1, 2}, {2, 3}, {3, 4}, {3, 10}, {10, 9},
      {3, 5}, {5, 6}, {3, 7},  {7, 8}, {8, 3}};
  sim::SimTime delay = 1000;
  for (const auto& [a, b] : links) {
    ASSERT_TRUE(topo.AddLink(a, b, delay).ok());
    delay += 100;
  }
  const MemberCore core(topo);
  // Left: the three members and the hub, joined by three arcs (stored
  // once per end); the pendant is pruned, the cycle contracted and
  // dropped, and routers 1, 2 and 10 folded into arcs.
  EXPECT_EQ(core.node_count(), 4u);
  EXPECT_EQ(core.arc_count(), 6u);
  for (NodeId n : {0u, 3u, 4u, 9u}) EXPECT_NE(core.CoreIndex(n), kInvalidNode);
  for (NodeId n : {1u, 2u, 5u, 6u, 7u, 8u, 10u}) {
    EXPECT_EQ(core.CoreIndex(n), kInvalidNode) << "node " << n;
  }

  std::vector<sim::SimTime> full_delay, core_delay;
  std::vector<uint32_t> full_hops, core_hops;
  RadixFrontier frontier;
  RoutingTables::ShortestPathsFrom(topo, 0, full_delay, full_hops, frontier);
  core.ShortestPathsFrom(core.CoreIndex(0), core_delay, core_hops, frontier);
  ASSERT_EQ(core_delay.size(), core.node_count());
  for (NodeId n : {0u, 3u, 4u, 9u}) {
    EXPECT_EQ(core_delay[core.CoreIndex(n)], full_delay[n]) << "node " << n;
    EXPECT_EQ(core_hops[core.CoreIndex(n)], full_hops[n]) << "node " << n;
  }
  EXPECT_EQ(core_hops[core.CoreIndex(9)], 5u);
}

// ---------------------------------------------------------------------------
// OverlayDelayModel

TEST(DelayModelTest, FromRoutingExtractsMembers) {
  Topology topo = DiamondTopology();
  topo.set_kind(0, NodeKind::kSource);
  topo.set_kind(3, NodeKind::kRepository);
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(topo);
  ASSERT_TRUE(routing.ok());
  Result<OverlayDelayModel> model =
      OverlayDelayModel::FromRouting(topo, *routing);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->member_count(), 2u);
  EXPECT_EQ(model->repository_count(), 1u);
  EXPECT_EQ(model->PhysicalNode(0), 0u);  // source first
  EXPECT_EQ(model->PhysicalNode(1), 3u);
  EXPECT_EQ(model->Delay(0, 1), sim::Millis(2));
  EXPECT_EQ(model->Hops(0, 1), 2u);
  EXPECT_EQ(model->Delay(1, 1), 0);
}

TEST(DelayModelTest, RequiresSource) {
  Topology topo = DiamondTopology();
  topo.set_kind(3, NodeKind::kRepository);
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(topo);
  ASSERT_TRUE(routing.ok());
  EXPECT_TRUE(OverlayDelayModel::FromRouting(topo, *routing)
                  .status()
                  .IsFailedPrecondition());
}

TEST(DelayModelTest, UniformModel) {
  OverlayDelayModel model = OverlayDelayModel::Uniform(4, sim::Millis(10));
  EXPECT_EQ(model.member_count(), 4u);
  EXPECT_EQ(model.Delay(1, 2), sim::Millis(10));
  EXPECT_EQ(model.Delay(2, 2), 0);
  EXPECT_DOUBLE_EQ(model.PairDelayStats().mean(),
                   static_cast<double>(sim::Millis(10)));
}

TEST(DelayModelTest, ScalingHitsTargetMean) {
  OverlayDelayModel model = OverlayDelayModel::Uniform(5, sim::Millis(10));
  Result<OverlayDelayModel> scaled = model.ScaledToMeanDelay(sim::Millis(25));
  ASSERT_TRUE(scaled.ok()) << scaled.status().ToString();
  EXPECT_NEAR(scaled->PairDelayStats().mean(),
              static_cast<double>(sim::Millis(25)), 1.0);
  // Hop counts unchanged.
  EXPECT_EQ(scaled->Hops(1, 2), model.Hops(1, 2));
}

TEST(DelayModelTest, ScalingToZero) {
  OverlayDelayModel model = OverlayDelayModel::Uniform(3, sim::Millis(10));
  Result<OverlayDelayModel> zero = model.ScaledToMeanDelay(0);
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ(zero->Delay(0, 1), 0);
  EXPECT_EQ(zero->Delay(1, 2), 0);
}

TEST(DelayModelTest, ScalingFromZeroFallsBackToUniform) {
  OverlayDelayModel zero = OverlayDelayModel::Uniform(3, 0);
  Result<OverlayDelayModel> scaled = zero.ScaledToMeanDelay(sim::Millis(5));
  ASSERT_TRUE(scaled.ok()) << scaled.status().ToString();
  EXPECT_EQ(scaled->Delay(0, 1), sim::Millis(5));
  EXPECT_EQ(scaled->Delay(2, 1), sim::Millis(5));
}

TEST(DelayModelTest, ScalingPastThePackedStoreIsOutOfRange) {
  // The store holds pair delays up to 2^32 - 1 us (~71.6 min); the
  // largest pair that fits, and one microsecond more, on both paths.
  constexpr sim::SimTime kMaxPacked = 4294967295;
  OverlayDelayModel model = OverlayDelayModel::Uniform(3, sim::Millis(10));
  Result<OverlayDelayModel> fits = model.ScaledToMeanDelay(kMaxPacked);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->Delay(1, 2), kMaxPacked);
  EXPECT_TRUE(model.ScaledToMeanDelay(kMaxPacked + 1).status().IsOutOfRange());
  EXPECT_TRUE(model.ScaledToMeanDelay(sim::Seconds(1e9))
                  .status()
                  .IsOutOfRange());
  OverlayDelayModel zero = OverlayDelayModel::Uniform(3, 0);
  EXPECT_TRUE(zero.ScaledToMeanDelay(kMaxPacked).ok());
  EXPECT_TRUE(zero.ScaledToMeanDelay(kMaxPacked + 1).status().IsOutOfRange());
}

/// Topology shapes for the routed builders: each one holds a structure
/// the member core must prune, contract, merge or keep.
enum class Shape {
  kBase,
  kThreeSources,
  kParallelLinks,
  kZeroDelays,
  kRepositoryInChain,
  kMemberFreeCycleAndPendantTree,
  kLongChain,
  kSmallMultigraph,
};

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kBase: return "base";
    case Shape::kThreeSources: return "three sources";
    case Shape::kParallelLinks: return "parallel links";
    case Shape::kZeroDelays: return "zero delays";
    case Shape::kRepositoryInChain: return "repository in chain";
    case Shape::kMemberFreeCycleAndPendantTree: return "cycle and pendant";
    case Shape::kLongChain: return "long chain";
    case Shape::kSmallMultigraph: return "small multigraph";
  }
  return "?";
}

/// A copy of `topo` with `extra` more routers; `delay_of` maps each
/// copied link's delay.
template <typename DelayOf>
Topology CopyWithExtraRouters(const Topology& topo, size_t extra,
                              DelayOf delay_of) {
  Topology out(topo.node_count() + extra);
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    out.set_kind(n, topo.kind(n));
  }
  for (const Link& link : topo.links()) {
    EXPECT_TRUE(out.AddLink(link.a, link.b, delay_of(link.delay)).ok());
  }
  return out;
}

Topology ShapedTopology(Shape shape, uint64_t seed) {
  Rng rng(seed);
  auto some_millis = [&rng] {
    return sim::Millis(static_cast<double>(1 + rng.NextBounded(3)));
  };
  if (shape == Shape::kLongChain) {
    // One 60-node path; the source and three repositories sit at random
    // spots, so both ends are member-free tails.
    Topology chain(60);
    for (NodeId n = 0; n + 1 < 60; ++n) {
      EXPECT_TRUE(chain.AddLink(n, n + 1, some_millis()).ok());
    }
    std::vector<NodeId> spots(60);
    for (NodeId n = 0; n < 60; ++n) spots[n] = n;
    rng.Shuffle(spots);
    chain.set_kind(spots[0], NodeKind::kSource);
    for (int r = 1; r <= 3; ++r) {
      chain.set_kind(spots[r], NodeKind::kRepository);
    }
    return chain;
  }
  if (shape == Shape::kSmallMultigraph) {
    // 2-31 nodes: a random tree plus random extra (often parallel)
    // links with 0-3 us delays, one or two sources and random
    // repositories, so ties, zero links and tiny cores abound.
    const NodeId n = static_cast<NodeId>(2 + rng.NextBounded(30));
    Topology graph(n);
    for (NodeId v = 1; v < n; ++v) {
      const NodeId parent = static_cast<NodeId>(rng.NextBounded(v));
      EXPECT_TRUE(graph.AddLink(v, parent, rng.NextInRange(0, 3)).ok());
    }
    for (uint64_t i = rng.NextBounded(n); i > 0; --i) {
      const NodeId a = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(n));
      if (a != b) {
        EXPECT_TRUE(graph.AddLink(a, b, rng.NextInRange(0, 3)).ok());
      }
    }
    std::vector<NodeId> spots(n);
    for (NodeId v = 0; v < n; ++v) spots[v] = v;
    rng.Shuffle(spots);
    const size_t sources = n > 2 ? 1 + rng.NextBounded(2) : 1;
    const size_t members = sources + 1 + rng.NextBounded(n - sources);
    for (size_t i = 0; i < members; ++i) {
      graph.set_kind(spots[i],
                     i < sources ? NodeKind::kSource : NodeKind::kRepository);
    }
    return graph;
  }

  TopologyGeneratorOptions options;
  options.router_count = 40;
  options.repository_count = 9;
  if (shape == Shape::kThreeSources) options.source_count = 3;
  Result<Topology> base = GenerateTopology(options, rng);
  EXPECT_TRUE(base.ok());
  const NodeId n = static_cast<NodeId>(base->node_count());
  auto some_node = [&rng, n] {
    return static_cast<NodeId>(rng.NextBounded(n));
  };
  auto same = [](sim::SimTime delay) { return delay; };

  switch (shape) {
    case Shape::kParallelLinks: {
      // Copies of existing links: half as dear, as dear, or 1.5x.
      Topology out = CopyWithExtraRouters(*base, 0, same);
      for (int i = 0; i < 12; ++i) {
        const Link& link = base->links()[rng.NextBounded(base->link_count())];
        const sim::SimTime delays[] = {link.delay / 2, link.delay,
                                       link.delay + link.delay / 2};
        EXPECT_TRUE(
            out.AddLink(link.a, link.b, delays[rng.NextBounded(3)]).ok());
      }
      return out;
    }
    case Shape::kZeroDelays:
      // Delays of 0-3 whole ms: many zero links and equal-delay ties.
      return CopyWithExtraRouters(*base, 0, [&rng](sim::SimTime) {
        return sim::Millis(static_cast<double>(rng.NextBounded(4)));
      });
    case Shape::kRepositoryInChain: {
      // An 8-router chain between two nodes, one router a repository.
      Topology out = CopyWithExtraRouters(*base, 8, same);
      NodeId prev = some_node();
      for (NodeId c = n; c < n + 8; ++c) {
        EXPECT_TRUE(out.AddLink(prev, c, some_millis()).ok());
        prev = c;
      }
      EXPECT_TRUE(out.AddLink(prev, some_node(), some_millis()).ok());
      out.set_kind(n + static_cast<NodeId>(rng.NextBounded(8)),
                   NodeKind::kRepository);
      return out;
    }
    case Shape::kMemberFreeCycleAndPendantTree: {
      // A 6-router cycle through one node and a 10-router tree off
      // another, neither holding a member.
      Topology out = CopyWithExtraRouters(*base, 16, same);
      const NodeId anchor = some_node();
      NodeId prev = anchor;
      for (NodeId c = n; c < n + 6; ++c) {
        EXPECT_TRUE(out.AddLink(prev, c, some_millis()).ok());
        prev = c;
      }
      EXPECT_TRUE(out.AddLink(prev, anchor, some_millis()).ok());
      const NodeId root = n + 6;
      EXPECT_TRUE(out.AddLink(some_node(), root, some_millis()).ok());
      for (NodeId c = root + 1; c < n + 16; ++c) {
        const NodeId parent =
            root + static_cast<NodeId>(rng.NextBounded(c - root));
        EXPECT_TRUE(out.AddLink(parent, c, some_millis()).ok());
      }
      return out;
    }
    default:
      return *base;
  }
}

/// Success when two models hold the same members, delays and hops;
/// otherwise names the first differing pair.
testing::AssertionResult SameModel(const OverlayDelayModel& got,
                                   const OverlayDelayModel& want) {
  if (got.member_count() != want.member_count()) {
    return testing::AssertionFailure()
           << got.member_count() << " members, want " << want.member_count();
  }
  for (OverlayIndex i = 0; i < want.member_count(); ++i) {
    if (got.PhysicalNode(i) != want.PhysicalNode(i)) {
      return testing::AssertionFailure() << "member " << i << " differs";
    }
    for (OverlayIndex j = 0; j < want.member_count(); ++j) {
      if (got.Delay(i, j) != want.Delay(i, j) ||
          got.Hops(i, j) != want.Hops(i, j)) {
        return testing::AssertionFailure()
               << "pair (" << i << ", " << j << "): " << got.Delay(i, j)
               << " us / " << got.Hops(i, j) << " hops, want "
               << want.Delay(i, j) << " us / " << want.Hops(i, j);
      }
    }
  }
  return testing::AssertionSuccess();
}

TEST(DelayModelTest, StreamingBuilderMatchesRoutedExtraction) {
  // FromTopologyAllSources routes each member row on the member core. It
  // must match both full-graph references, DijkstraRows and
  // FloydWarshall through FromRoutingWithSource, in every delay and hop
  // count, at any worker thread count (which rows each worker claims
  // from the shared cursor must not matter; 3 workers split most
  // shapes' rows unevenly), on every shape the core's reductions meet.
  for (Shape shape :
       {Shape::kBase, Shape::kThreeSources, Shape::kParallelLinks,
        Shape::kZeroDelays, Shape::kRepositoryInChain,
        Shape::kMemberFreeCycleAndPendantTree, Shape::kLongChain,
        Shape::kSmallMultigraph}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(std::string(ShapeName(shape)) + ", seed " +
                   std::to_string(seed));
      const Topology topo = ShapedTopology(shape, seed);
      const std::vector<NodeId> sources = topo.SourceNodes();
      std::vector<NodeId> rows = sources;
      for (NodeId repo : topo.RepositoryNodes()) rows.push_back(repo);
      Result<RoutingTables> dijkstra =
          RoutingTables::DijkstraRows(topo, rows);
      Result<RoutingTables> floyd = RoutingTables::FloydWarshall(topo);
      ASSERT_TRUE(dijkstra.ok());
      ASSERT_TRUE(floyd.ok());
      for (size_t threads : {1u, 3u, 4u}) {
        Result<std::vector<OverlayDelayModel>> streamed =
            OverlayDelayModel::FromTopologyAllSources(topo, threads);
        ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
        ASSERT_EQ(streamed->size(), sources.size());
        for (size_t s = 0; s < sources.size(); ++s) {
          for (const RoutingTables* reference : {&*dijkstra, &*floyd}) {
            Result<OverlayDelayModel> want =
                OverlayDelayModel::FromRoutingWithSource(topo, *reference,
                                                         sources[s]);
            ASSERT_TRUE(want.ok());
            EXPECT_TRUE(SameModel((*streamed)[s], *want))
                << "source " << s << ", " << threads << " threads, "
                << (reference == &*floyd ? "Floyd-Warshall" : "Dijkstra");
          }
        }
      }
    }
  }
}

TEST(DelayModelTest, HopCountsAreCanonicalOnEqualDelayPaths) {
  // Two 3 ms routes from source 0 to repository 3: 0-1-2-3 over three
  // hops and 0-4-3 over two. Every routine must report the fewer, in
  // both directions, whatever order it visits the nodes in.
  Topology topo(5);
  ASSERT_TRUE(topo.AddLink(0, 1, sim::Millis(0.5)).ok());
  ASSERT_TRUE(topo.AddLink(1, 2, sim::Millis(0.5)).ok());
  ASSERT_TRUE(topo.AddLink(2, 3, sim::Millis(2)).ok());
  ASSERT_TRUE(topo.AddLink(0, 4, sim::Millis(1.5)).ok());
  ASSERT_TRUE(topo.AddLink(4, 3, sim::Millis(1.5)).ok());
  topo.set_kind(0, NodeKind::kSource);
  topo.set_kind(3, NodeKind::kRepository);

  Result<RoutingTables> floyd = RoutingTables::FloydWarshall(topo);
  Result<RoutingTables> dijkstra = RoutingTables::DijkstraRows(topo, {0, 3});
  ASSERT_TRUE(floyd.ok());
  ASSERT_TRUE(dijkstra.ok());
  for (const RoutingTables* routing : {&*floyd, &*dijkstra}) {
    EXPECT_EQ(routing->Delay(0, 3), sim::Millis(3));
    EXPECT_EQ(routing->Hops(0, 3), 2u);
    EXPECT_EQ(routing->Hops(3, 0), 2u);
  }
  for (size_t threads : {1u, 3u, 4u}) {
    Result<std::vector<OverlayDelayModel>> models =
        OverlayDelayModel::FromTopologyAllSources(topo, threads);
    ASSERT_TRUE(models.ok());
    const OverlayDelayModel& model = models->front();
    EXPECT_EQ(model.Delay(0, 1), sim::Millis(3));
    EXPECT_EQ(model.Hops(0, 1), 2u) << threads << " threads";
    EXPECT_EQ(model.Hops(1, 0), 2u) << threads << " threads";
  }
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

TEST(DelayModelTest, PairStatsMatchSequentialStreamingStats) {
  // Eq. (2)'s cooperation degree and ScaledToMeanDelay read the mean
  // pair delay's bits, so the fused pass must equal, bit for bit, one
  // StreamingStats per statistic filled in row-major off-diagonal order.
  for (size_t source_count : {1u, 3u}) {
    SCOPED_TRACE(std::to_string(source_count) + " sources");
    Rng rng(42);
    TopologyGeneratorOptions options;  // 600 routers + 100 repositories
    options.source_count = source_count;
    Result<Topology> topo = GenerateTopology(options, rng);
    ASSERT_TRUE(topo.ok());
    Result<std::vector<OverlayDelayModel>> models =
        OverlayDelayModel::FromTopologyAllSources(*topo);
    ASSERT_TRUE(models.ok()) << models.status().ToString();
    ASSERT_EQ(models->size(), source_count);
    for (const OverlayDelayModel& model : *models) {
      StreamingStats delays;
      StreamingStats hops;
      for (OverlayIndex i = 0; i < model.member_count(); ++i) {
        for (OverlayIndex j = 0; j < model.member_count(); ++j) {
          if (i == j) continue;
          delays.Add(static_cast<double>(model.Delay(i, j)));
          hops.Add(static_cast<double>(model.Hops(i, j)));
        }
      }
      const OverlayDelayModel::PairStats fused = model.ComputePairStats();
      EXPECT_EQ(fused.delay.count(), delays.count());
      EXPECT_EQ(Bits(fused.delay.mean()), Bits(delays.mean()));
      EXPECT_EQ(Bits(fused.delay.min()), Bits(delays.min()));
      EXPECT_EQ(Bits(fused.delay.max()), Bits(delays.max()));
      EXPECT_EQ(Bits(fused.mean_hops), Bits(hops.mean()));
      EXPECT_EQ(Bits(model.PairDelayStats().mean()), Bits(delays.mean()));
      EXPECT_EQ(Bits(model.MeanPairHops()), Bits(hops.mean()));
    }
  }
}

TEST(DelayModelTest, RoutedBuildersRejectPairsThePackedStoreCannotHold) {
  // One 5e9 us link (~83 minutes) overflows the 32-bit microsecond
  // store; a 65,536-link chain overflows the 16-bit hop store. Both
  // builders must name the pair instead of saturating.
  Topology far(2);
  far.set_kind(0, NodeKind::kSource);
  far.set_kind(1, NodeKind::kRepository);
  ASSERT_TRUE(far.AddLink(0, 1, 5'000'000'000).ok());
  const NodeId last = 65'536;
  Topology deep(last + 1);
  deep.set_kind(0, NodeKind::kSource);
  deep.set_kind(last, NodeKind::kRepository);
  for (NodeId n = 0; n < last; ++n) {
    ASSERT_TRUE(deep.AddLink(n, n + 1, 1).ok());
  }

  for (const Topology* topo : {&far, &deep}) {
    const NodeId repo = static_cast<NodeId>(topo->node_count() - 1);
    const std::string pair = "node 0 to node " + std::to_string(repo);
    SCOPED_TRACE(pair);
    const Status streamed =
        OverlayDelayModel::FromTopologyAllSources(*topo).status();
    EXPECT_TRUE(streamed.IsOutOfRange()) << streamed.ToString();
    EXPECT_NE(streamed.message().find(pair), std::string::npos);

    Result<RoutingTables> routing =
        RoutingTables::DijkstraRows(*topo, {0, repo});
    ASSERT_TRUE(routing.ok());
    const Status extracted =
        OverlayDelayModel::FromRoutingWithSource(*topo, *routing, 0).status();
    EXPECT_TRUE(extracted.IsOutOfRange()) << extracted.ToString();
    EXPECT_NE(extracted.message().find(pair), std::string::npos);
  }
}

TEST(DelayModelTest, StreamingBuilderRejectsDisconnectedTopology) {
  Topology topo(3);
  ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
  topo.set_kind(0, NodeKind::kSource);
  topo.set_kind(1, NodeKind::kRepository);
  EXPECT_TRUE(OverlayDelayModel::FromTopologyAllSources(topo)
                  .status()
                  .IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Paper-scale shape: ~10 repo-to-repo hops and 20-30 ms pair delays on
// the 700-node base network (paper §6.1).

TEST(PaperShapeTest, BaseNetworkHopAndDelayRegime) {
  Rng rng(42);
  TopologyGeneratorOptions options;  // 600 routers + 100 repos + source
  Result<Topology> topo = GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  std::vector<NodeId> rows;
  rows.push_back(topo->SourceNode());
  for (NodeId repo : topo->RepositoryNodes()) rows.push_back(repo);
  Result<RoutingTables> routing = RoutingTables::DijkstraRows(*topo, rows);
  ASSERT_TRUE(routing.ok());
  Result<OverlayDelayModel> model =
      OverlayDelayModel::FromRouting(*topo, *routing);
  ASSERT_TRUE(model.ok());
  const double hops = model->MeanPairHops();
  const double delay_ms = model->PairDelayStats().mean() / 1000.0;
  EXPECT_GT(hops, 6.0) << "mean repo-to-repo hops";
  EXPECT_LT(hops, 16.0);
  EXPECT_GT(delay_ms, 10.0) << "mean repo-to-repo delay (ms)";
  EXPECT_LT(delay_ms, 45.0);
}

}  // namespace
}  // namespace d3t::net
