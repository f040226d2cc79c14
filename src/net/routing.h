#ifndef D3T_NET_ROUTING_H_
#define D3T_NET_ROUTING_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "net/topology.h"
#include "sim/time.h"

namespace d3t::net {

/// All-pairs shortest-path tables (delay and hop count), stored as a
/// *row table*: only rows that were actually computed are allocated.
/// The paper computes routing with Floyd-Warshall (which populates every
/// row); for large networks the equivalent Dijkstra-based computation
/// restricted to the rows that matter (source + repositories) keeps
/// memory proportional to |rows| x n instead of n x n. Callers that
/// cannot afford even that should use ShortestPathsFrom to stream one
/// row at a time through caller-owned scratch.
///
/// Hop counts are canonical: every routine here (and MemberCore below)
/// relaxes paths on (delay, hops) lexicographically, so a pair's hop
/// count is the fewest hops among its minimum-delay paths, whatever
/// order nodes are visited in. Floyd-Warshall, Dijkstra rows and the
/// member core therefore agree byte for byte on delays and hops.
class RoutingTables {
 public:
  /// Sentinel delay of an unreachable (or never computed) pair.
  /// Topology::AddLink keeps every path's delay below it, and it lies
  /// well below kSimTimeMax, so sums of two sentinels cannot overflow.
  static constexpr sim::SimTime kUnreachableDelay = kPathDelayLimit;
  /// Sentinel hop count of an unreachable (or never computed) pair.
  static constexpr uint32_t kUnreachableHops = UINT32_MAX;

  explicit RoutingTables(size_t node_count);

  /// Row queries: `from` must be a computed row (always true
  /// after Floyd-Warshall; only for requested sources with Dijkstra) and
  /// `to` in range. Debug builds assert; release builds return the
  /// unreachable sentinels for an uncomputed row rather than reading out
  /// of bounds. Test HasRow first when the row's validity is not known
  /// statically.
  sim::SimTime Delay(NodeId from, NodeId to) const {
    assert(from < rows_.size() && "routing row out of range");
    assert(to < rows_.size() && "routing column out of range");
    assert(!rows_[from].delay.empty() && "querying an unrouted row");
    if (from >= rows_.size() || to >= rows_.size() ||
        rows_[from].delay.empty()) {
      return kUnreachableDelay;
    }
    return rows_[from].delay[to];
  }
  uint32_t Hops(NodeId from, NodeId to) const {
    assert(from < rows_.size() && "routing row out of range");
    assert(to < rows_.size() && "routing column out of range");
    assert(!rows_[from].hops.empty() && "querying an unrouted row");
    if (from >= rows_.size() || to >= rows_.size() ||
        rows_[from].hops.empty()) {
      return kUnreachableHops;
    }
    return rows_[from].hops[to];
  }

  /// True when a row was computed (always true for Floyd-Warshall; only
  /// for requested sources with Dijkstra).
  bool HasRow(NodeId from) const {
    return from < rows_.size() && !rows_[from].delay.empty();
  }

  size_t node_count() const { return rows_.size(); }

  /// Full Floyd-Warshall APSP exactly as in the paper (O(V^3)); every
  /// row is allocated. Fails if the topology is disconnected.
  static Result<RoutingTables> FloydWarshall(const Topology& topo);

  /// Runs Dijkstra from each node in `rows` only; other rows are never
  /// allocated. O(|rows| * E log V) time and O(|rows| * V) memory — used
  /// for large networks. Duplicate row requests are computed once.
  static Result<RoutingTables> DijkstraRows(const Topology& topo,
                                            const std::vector<NodeId>& rows);

  /// Streaming single-row shortest paths: fills `delay`/`hops` (resized
  /// to the node count, unreachable entries left at the sentinels) with
  /// the shortest paths from `src`, allocating nothing beyond the two
  /// caller-owned buffers and the search's heap. `src` must be in range.
  static void ShortestPathsFrom(const Topology& topo, NodeId src,
                                std::vector<sim::SimTime>& delay,
                                std::vector<uint32_t>& hops);

 private:
  /// One computed row; `delay`/`hops` are empty until routed.
  struct Row {
    std::vector<sim::SimTime> delay;
    std::vector<uint32_t> hops;
  };

  /// Allocates (and sentinel-fills) row `from` if absent.
  Row& EnsureRow(NodeId from);

  std::vector<Row> rows_;
};

/// The member core of a topology: the graph left after two reductions
/// that keep every member-to-member shortest path, with its (delay,
/// hops), intact. Members are the sources and repositories; they are
/// never removed or contracted, so each one has a core node. A best
/// path is simple, since every link adds a hop, which the reductions
/// rely on:
///  - Prune: a router of degree <= 1 lies on no simple path between two
///    other nodes, so it is removed, repeatedly. This drops every router
///    subtree that holds no member.
///  - Contract: a path through a degree-2 router enters by one link and
///    leaves by the other, and no member path ends inside a router
///    chain, so each maximal chain of degree-2 routers becomes one arc
///    carrying the chain's summed delay and hop count. Delay and hops
///    both add along a path, so the arc compares exactly as the chain
///    does.
///  - Merge: of parallel arcs only the least (delay, hops) can lie on a
///    best path; a chain that loops back to its start is a cycle no
///    best path uses, so it is dropped.
/// (delay, hops) distances between core nodes therefore equal those
/// between the same physical nodes. On generated topologies the core
/// holds ~24% of the nodes. Arcs are stored as CSR arrays. Immutable
/// once built, so concurrent ShortestPathsFrom calls are safe.
class MemberCore {
 public:
  explicit MemberCore(const Topology& topo);

  size_t node_count() const { return offsets_.size() - 1; }
  /// Directed arcs: each undirected core arc is stored once per end.
  size_t arc_count() const { return arcs_.size(); }

  /// Core index of physical node `n`, or kInvalidNode when the
  /// reductions removed it (never for a member).
  NodeId CoreIndex(NodeId n) const { return core_index_[n]; }

  /// RoutingTables::ShortestPathsFrom over the core: `delay`/`hops` are
  /// resized to node_count() and indexed by core index. `core_src` must
  /// be a core index.
  void ShortestPathsFrom(NodeId core_src, std::vector<sim::SimTime>& delay,
                         std::vector<uint32_t>& hops) const;

 private:
  struct Arc {
    NodeId to;
    uint32_t hops;
    sim::SimTime delay;
  };

  std::vector<NodeId> core_index_;
  /// Core node u's arcs are arcs_[offsets_[u], offsets_[u + 1]).
  std::vector<size_t> offsets_;
  std::vector<Arc> arcs_;
};

}  // namespace d3t::net

#endif  // D3T_NET_ROUTING_H_
