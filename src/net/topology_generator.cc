#include "net/topology_generator.h"

#include <cmath>
#include <numeric>
#include <vector>

namespace d3t::net {

Result<Topology> GenerateTopology(const TopologyGeneratorOptions& options,
                                  Rng& rng) {
  if (options.source_count == 0) {
    return Status::InvalidArgument("need at least one source");
  }
  const size_t n = options.router_count + options.repository_count +
                   options.source_count;
  if (options.repository_count == 0) {
    return Status::InvalidArgument("need at least one repository");
  }
  if (n < 2) return Status::InvalidArgument("need at least two nodes");
  // NaN and infinities pass plain `<=` checks.
  if (!std::isfinite(options.link_delay_min_ms) ||
      !std::isfinite(options.link_delay_mean_ms)) {
    return Status::InvalidArgument(
        "link_delay_min_ms and link_delay_mean_ms must be finite");
  }
  if (!(options.link_delay_min_ms > 0.0)) {
    return Status::InvalidArgument("need link_delay_min_ms > 0");
  }
  if (!(options.link_delay_mean_ms > options.link_delay_min_ms)) {
    return Status::InvalidArgument(
        "need link_delay_mean_ms > link_delay_min_ms");
  }
  // Below the limit, sim::Millis's int64 cast is defined.
  const double max_delay_ms = sim::ToMillis(kPathDelayLimit);
  if (!(options.link_delay_min_ms < max_delay_ms)) {
    return Status::InvalidArgument(
        "need link_delay_min_ms below the path-delay limit");
  }

  Topology topo(n);

  // Pareto samples have no upper bound, so each is checked before the
  // cast; AddLink then bounds the links' sum.
  auto add_link = [&](NodeId a, NodeId b) {
    const double ms = rng.NextParetoWithMean(options.link_delay_min_ms,
                                             options.link_delay_mean_ms);
    if (!(ms < max_delay_ms)) {
      return Status::InvalidArgument(
          "link_delay_min_ms and link_delay_mean_ms drew a link delay "
          "past the path-delay limit");
    }
    return topo.AddLink(a, b, sim::Millis(ms));
  };

  // Random spanning tree: attach each node (in shuffled order) to a
  // uniformly chosen already-attached node. This yields a random
  // recursive tree, whose longish paths model a sparse WAN core.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  for (size_t i = 1; i < n; ++i) {
    const NodeId child = order[i];
    const NodeId parent = order[rng.NextBounded(i)];
    Status s = add_link(child, parent);
    if (!s.ok()) return s;
  }

  // Shortcut links, as a fraction of the node count: 0.05 brings the
  // 700-node base case down to the paper's ~10 repo-to-repo hops.
  const size_t extras = static_cast<size_t>(0.05 * static_cast<double>(n));
  for (size_t i = 0; i < extras; ++i) {
    NodeId a = static_cast<NodeId>(rng.NextBounded(n));
    NodeId b = static_cast<NodeId>(rng.NextBounded(n));
    if (a == b) continue;  // skip; density target is approximate
    Status s = add_link(a, b);
    if (!s.ok()) return s;
  }

  // Designate the sources and the repositories among distinct nodes.
  std::vector<NodeId> roles(n);
  std::iota(roles.begin(), roles.end(), 0);
  rng.Shuffle(roles);
  for (size_t i = 0; i < options.source_count; ++i) {
    topo.set_kind(roles[i], NodeKind::kSource);
  }
  for (size_t i = 0; i < options.repository_count; ++i) {
    topo.set_kind(roles[options.source_count + i], NodeKind::kRepository);
  }
  return topo;
}

}  // namespace d3t::net
