#ifndef D3T_NET_TOPOLOGY_H_
#define D3T_NET_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sim/time.h"

namespace d3t::net {

/// Index of a node (router, repository or source) in the physical network.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// Exclusive bound on the summed delay of a topology's links. A simple
/// path uses each link at most once, so no path's delay reaches it:
/// routing uses it as the unreachable sentinel, and the sum of two path
/// delays stays far inside int64.
inline constexpr sim::SimTime kPathDelayLimit = sim::kSimTimeMax / 4;

/// Role a physical node plays in the cooperative-repository architecture.
enum class NodeKind : uint8_t {
  kRouter = 0,
  kRepository = 1,
  kSource = 2,
};

/// An undirected physical link with a fixed propagation+processing delay.
struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  sim::SimTime delay = 0;  // microseconds
};

/// The physical network: nodes (with roles) and undirected weighted links.
/// This is the substrate the paper generates randomly for its simulations
/// (1 source, 100 repositories, 600 routers in the base case).
class Topology {
 public:
  /// Creates a topology with `node_count` router nodes and no links.
  explicit Topology(size_t node_count);

  size_t node_count() const { return kinds_.size(); }
  size_t link_count() const { return links_.size(); }

  NodeKind kind(NodeId n) const { return kinds_[n]; }
  void set_kind(NodeId n, NodeKind kind);

  /// Adds an undirected link; rejects self-loops, out-of-range endpoints,
  /// negative delays and (OutOfRange) a delay that would bring the
  /// links' total to kPathDelayLimit. Parallel links are allowed
  /// (routing uses the cheapest).
  Status AddLink(NodeId a, NodeId b, sim::SimTime delay);

  const std::vector<Link>& links() const { return links_; }

  /// Neighbors of `n` as (peer, delay) pairs.
  const std::vector<std::pair<NodeId, sim::SimTime>>& neighbors(
      NodeId n) const {
    return adjacency_[n];
  }

  /// Ids of all repository nodes, in id order.
  std::vector<NodeId> RepositoryNodes() const;

  /// Id of the unique source node, or kInvalidNode if none/multiple.
  NodeId SourceNode() const;

  /// Ids of all source nodes, in id order (multi-source deployments,
  /// paper §4's extension).
  std::vector<NodeId> SourceNodes() const;

  /// True when every node can reach every other node.
  bool IsConnected() const;

 private:
  std::vector<NodeKind> kinds_;
  std::vector<Link> links_;
  std::vector<std::vector<std::pair<NodeId, sim::SimTime>>> adjacency_;
  /// Sum of every link's delay; below kPathDelayLimit.
  sim::SimTime total_delay_ = 0;
};

}  // namespace d3t::net

#endif  // D3T_NET_TOPOLOGY_H_
