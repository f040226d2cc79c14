#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
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
  EXPECT_EQ(topo.link_count(), 1u);
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
  Rng rng(3);
  TopologyGeneratorOptions options;
  options.link_delay_min_ms = 5.0;
  options.link_delay_mean_ms = 2.0;
  EXPECT_FALSE(GenerateTopology(options, rng).ok());
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

#if defined(__GNUC__)
TEST(RoutingTest, FloydWarshallEntryIsCacheLineAligned) {
  // routing.cc pins the entry to a 64-byte boundary because the triple
  // loop's timing moves with its code placement; a build that drops the
  // pin would silently reopen that variance.
  Result<RoutingTables> (*entry)(const Topology&) =
      &RoutingTables::FloydWarshall;
  EXPECT_EQ(reinterpret_cast<uintptr_t>(entry) % 64, 0u);
}
#endif

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
  // querying anything else is a checked error instead of a silent
  // sentinel read.
  Topology topo = DiamondTopology();
  Result<RoutingTables> dj = RoutingTables::DijkstraRows(topo, {0});
  ASSERT_TRUE(dj.ok());
  EXPECT_TRUE(dj->HasRow(0));
  EXPECT_FALSE(dj->HasRow(1));

  Result<sim::SimTime> delay = dj->CheckedDelay(0, 3);
  ASSERT_TRUE(delay.ok());
  EXPECT_EQ(*delay, sim::Millis(2));
  EXPECT_EQ(*delay, dj->Delay(0, 3));
  Result<uint32_t> hops = dj->CheckedHops(0, 3);
  ASSERT_TRUE(hops.ok());
  EXPECT_EQ(*hops, 2u);

  EXPECT_TRUE(dj->CheckedDelay(1, 3).status().IsFailedPrecondition());
  EXPECT_TRUE(dj->CheckedHops(2, 0).status().IsFailedPrecondition());
  EXPECT_TRUE(dj->CheckedDelay(9, 0).status().IsOutOfRange());
  EXPECT_TRUE(dj->CheckedDelay(0, 9).status().IsOutOfRange());
  EXPECT_TRUE(dj->CheckedHops(0, 9).status().IsOutOfRange());
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
  RoutingTables::ShortestPathsFrom(*topo, 4, delay, hops);
  ASSERT_EQ(delay.size(), topo->node_count());
  for (NodeId j = 0; j < topo->node_count(); ++j) {
    EXPECT_EQ(delay[j], dj->Delay(4, j)) << "col " << j;
    EXPECT_EQ(hops[j], dj->Hops(4, j)) << "col " << j;
  }
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
  OverlayDelayModel scaled = model.ScaledToMeanDelay(sim::Millis(25));
  EXPECT_NEAR(scaled.PairDelayStats().mean(),
              static_cast<double>(sim::Millis(25)), 1.0);
  // Hop counts unchanged.
  EXPECT_EQ(scaled.Hops(1, 2), model.Hops(1, 2));
}

TEST(DelayModelTest, ScalingToZero) {
  OverlayDelayModel model = OverlayDelayModel::Uniform(3, sim::Millis(10));
  OverlayDelayModel zero = model.ScaledToMeanDelay(0);
  EXPECT_EQ(zero.Delay(0, 1), 0);
  EXPECT_EQ(zero.Delay(1, 2), 0);
}

TEST(DelayModelTest, ScalingFromZeroFallsBackToUniform) {
  OverlayDelayModel zero = OverlayDelayModel::Uniform(3, 0);
  OverlayDelayModel scaled = zero.ScaledToMeanDelay(sim::Millis(5));
  EXPECT_EQ(scaled.Delay(0, 1), sim::Millis(5));
  EXPECT_EQ(scaled.Delay(2, 1), sim::Millis(5));
}

TEST(DelayModelTest, StreamingBuilderMatchesRoutedExtraction) {
  // FromTopologyAllSources streams one Dijkstra row per member straight
  // into the compressed models; it must match the two-step DijkstraRows
  // + FromRoutingWithSource path pair for pair, and be independent of
  // the worker thread count.
  Rng rng(11);
  TopologyGeneratorOptions options;
  options.router_count = 40;
  options.repository_count = 9;
  options.source_count = 3;
  Result<Topology> topo = GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());

  std::vector<NodeId> rows = topo->SourceNodes();
  for (NodeId repo : topo->RepositoryNodes()) rows.push_back(repo);
  Result<RoutingTables> routing = RoutingTables::DijkstraRows(*topo, rows);
  ASSERT_TRUE(routing.ok());

  Result<std::vector<OverlayDelayModel>> serial =
      OverlayDelayModel::FromTopologyAllSources(*topo, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Result<std::vector<OverlayDelayModel>> pooled =
      OverlayDelayModel::FromTopologyAllSources(*topo, 4);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ASSERT_EQ(serial->size(), topo->SourceNodes().size());
  ASSERT_EQ(pooled->size(), serial->size());

  for (size_t s = 0; s < serial->size(); ++s) {
    SCOPED_TRACE("source " + std::to_string(s));
    Result<OverlayDelayModel> reference =
        OverlayDelayModel::FromRoutingWithSource(*topo, *routing,
                                                 topo->SourceNodes()[s]);
    ASSERT_TRUE(reference.ok());
    const OverlayDelayModel& streamed = (*serial)[s];
    const OverlayDelayModel& threaded = (*pooled)[s];
    ASSERT_EQ(streamed.member_count(), reference->member_count());
    for (OverlayIndex i = 0; i < reference->member_count(); ++i) {
      EXPECT_EQ(streamed.PhysicalNode(i), reference->PhysicalNode(i));
      for (OverlayIndex j = 0; j < reference->member_count(); ++j) {
        EXPECT_EQ(streamed.Delay(i, j), reference->Delay(i, j));
        EXPECT_EQ(streamed.Hops(i, j), reference->Hops(i, j));
        EXPECT_EQ(threaded.Delay(i, j), reference->Delay(i, j));
        EXPECT_EQ(threaded.Hops(i, j), reference->Hops(i, j));
      }
    }
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
