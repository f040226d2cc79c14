#ifndef D3T_NET_TOPOLOGY_GENERATOR_H_
#define D3T_NET_TOPOLOGY_GENERATOR_H_

#include <cstddef>

#include "common/random.h"
#include "common/result.h"
#include "net/topology.h"

namespace d3t::net {

/// Parameters for the random physical-network generator. Defaults follow
/// the paper's base case: 700 nodes = 1 source + 100 repositories + 600
/// routers, per-link delays Pareto-distributed, connected by construction
/// (random spanning tree + shortcut edges).
///
/// Delay calibration note: the paper quotes both "~10 hops between
/// repositories" and "average nominal node-node delay around 20-30 ms"
/// with a Pareto(mean 15 ms, min 2 ms) model. A literal per-link
/// mean-15ms draw over 10-hop paths yields ~150 ms end-to-end, so we
/// keep the heavy-tailed Pareto family but calibrate the per-link
/// parameters (min 1.5 ms, mean 4 ms) so that minimum-delay routing over
/// the generated graph reproduces both quoted numbers: ~10 repo-to-repo
/// hops and a 20-30 ms mean repo-to-repo delay. Both parameters are
/// configurable for sensitivity studies.
struct TopologyGeneratorOptions {
  size_t router_count = 600;
  size_t repository_count = 100;
  /// Number of source nodes (paper base case: 1; §4 sketches the
  /// multi-source extension).
  size_t source_count = 1;
  /// Per-link Pareto delay parameters (milliseconds).
  double link_delay_min_ms = 1.5;
  double link_delay_mean_ms = 4.0;
};

/// Generates a connected random topology: a uniformly random spanning
/// tree over all nodes plus 0.05 * n shortcut links, Pareto per-link
/// delays, one node designated the source and `repository_count` nodes
/// designated repositories (all chosen uniformly at random).
Result<Topology> GenerateTopology(const TopologyGeneratorOptions& options,
                                  Rng& rng);

}  // namespace d3t::net

#endif  // D3T_NET_TOPOLOGY_GENERATOR_H_
