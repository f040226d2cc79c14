#ifndef D3T_NET_ROUTING_H_
#define D3T_NET_ROUTING_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "net/topology.h"
#include "sim/time.h"

namespace d3t::net {

/// The frontier of a shortest-path search: a monotone radix heap of
/// (delay, hops, node) entries keyed on delay (Ahuja, Mehlhorn, Orlin &
/// Tarjan, JACM 1990), as in sim::EventQueue. Link delays are
/// non-negative, so every push is at or after the base, the delay of the
/// last entry popped, and an entry is filed by its delay relative to it:
/// bucket i > 0 holds the delays that first differ from the base at bit
/// i-1, and bucket 0 the delays equal to it. Equal delays pop in no
/// fixed order. The buckets keep their capacity, so successive searches
/// through one frontier allocate nothing once it is warm.
class RadixFrontier {
 public:
  struct Entry {
    sim::SimTime delay;
    uint32_t hops;
    NodeId node;
  };

  /// Empties the frontier and puts the base back at 0.
  void Reset();
  bool empty() const { return mask_ == 0; }
  /// Files `entry`, whose delay must be at least the base.
  void Push(const Entry& entry);
  /// Removes and returns an entry of least delay, which becomes the
  /// base. Must not be called when empty.
  Entry Pop();

 private:
  /// Delays are non-negative, so one differs from the base in at most
  /// bits 0..62.
  static constexpr size_t kBuckets = 64;

  /// Appends `entry` to its bucket and returns that bucket's mask bit.
  uint64_t File(const Entry& entry);
  /// Makes the lowest non-empty bucket's least delay the base and files
  /// the bucket's entries below it. Bucket 0 must be empty.
  void Refill();

  std::array<std::vector<Entry>, kBuckets> buckets_;
  /// Bit i is set iff bucket i holds entries.
  uint64_t mask_ = 0;
  /// Delay of the last entry popped; no entry is below it.
  sim::SimTime base_ = 0;
};

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
  /// allocated. O(|rows| * (E + V log C)) time, C the largest path
  /// delay, and O(|rows| * V) memory — used for large networks.
  /// Duplicate row requests are computed once.
  static Result<RoutingTables> DijkstraRows(const Topology& topo,
                                            const std::vector<NodeId>& rows);

  /// Streaming single-row shortest paths: fills `delay`/`hops` (resized
  /// to the node count, unreachable entries left at the sentinels) with
  /// the shortest paths from `src`, searching through `frontier`. It
  /// allocates nothing beyond growing the three caller-owned buffers.
  /// `src` must be in range.
  static void ShortestPathsFrom(const Topology& topo, NodeId src,
                                std::vector<sim::SimTime>& delay,
                                std::vector<uint32_t>& hops,
                                RadixFrontier& frontier);

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
/// once built, so concurrent ShortestPathsFrom calls, each through its
/// own frontier, are safe.
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
                         std::vector<uint32_t>& hops,
                         RadixFrontier& frontier) const;

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
