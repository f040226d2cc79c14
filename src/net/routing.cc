#include "net/routing.h"

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>

namespace d3t::net {
namespace {

/// The (delay, hops) order every routine here relaxes on: lower delay
/// wins, and equal delays go to fewer hops. Hops compare wide so that a
/// sum with the unreachable sentinel cannot wrap into a small count.
bool PathBeats(sim::SimTime delay, uint64_t hops, sim::SimTime best_delay,
               uint64_t best_hops) {
  return delay < best_delay || (delay == best_delay && hops < best_hops);
}

/// Dijkstra from `src` over `node_count` nodes on (delay, hops) keys.
/// `for_each_arc(u, relax)` calls relax(v, delay, hops) for each arc
/// leaving u.
template <typename ForEachArc>
void Dijkstra(size_t node_count, NodeId src, const ForEachArc& for_each_arc,
              std::vector<sim::SimTime>& delay, std::vector<uint32_t>& hops) {
  delay.assign(node_count, RoutingTables::kUnreachableDelay);
  hops.assign(node_count, RoutingTables::kUnreachableHops);
  struct Entry {
    sim::SimTime delay;
    uint32_t hops;
    NodeId node;
    bool operator>(const Entry& other) const {
      return PathBeats(other.delay, other.hops, delay, hops);
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  delay[src] = 0;
  hops[src] = 0;
  pq.push({0, 0, src});
  while (!pq.empty()) {
    const Entry top = pq.top();
    pq.pop();
    if (PathBeats(delay[top.node], hops[top.node], top.delay, top.hops)) {
      continue;  // superseded
    }
    for_each_arc(top.node, [&](NodeId v, sim::SimTime w, uint32_t k) {
      const sim::SimTime nd = top.delay + w;
      const uint32_t nh = top.hops + k;
      if (PathBeats(nd, nh, delay[v], hops[v])) {
        delay[v] = nd;
        hops[v] = nh;
        pq.push({nd, nh, v});
      }
    });
  }
}

}  // namespace

RoutingTables::RoutingTables(size_t node_count) : rows_(node_count) {}

RoutingTables::Row& RoutingTables::EnsureRow(NodeId from) {
  Row& row = rows_[from];
  if (row.delay.empty()) {
    row.delay.assign(rows_.size(), kUnreachableDelay);
    row.hops.assign(rows_.size(), kUnreachableHops);
  }
  return row;
}

Result<sim::SimTime> RoutingTables::CheckedDelay(NodeId from,
                                                 NodeId to) const {
  if (from >= rows_.size() || to >= rows_.size()) {
    return Status::OutOfRange("routing query endpoint out of range");
  }
  if (rows_[from].delay.empty()) {
    return Status::FailedPrecondition("routing row was never computed");
  }
  return rows_[from].delay[to];
}

Result<uint32_t> RoutingTables::CheckedHops(NodeId from, NodeId to) const {
  if (from >= rows_.size() || to >= rows_.size()) {
    return Status::OutOfRange("routing query endpoint out of range");
  }
  if (rows_[from].hops.empty()) {
    return Status::FailedPrecondition("routing row was never computed");
  }
  return rows_[from].hops[to];
}

Result<RoutingTables> RoutingTables::FloydWarshall(const Topology& topo) {
  const size_t n = topo.node_count();
  RoutingTables t(n);
  for (NodeId i = 0; i < n; ++i) {
    Row& row = t.EnsureRow(i);
    row.delay[i] = 0;
    row.hops[i] = 0;
  }
  for (const Link& link : topo.links()) {
    // Parallel links: keep the cheapest.
    if (PathBeats(link.delay, 1, t.rows_[link.a].delay[link.b],
                  t.rows_[link.a].hops[link.b])) {
      t.rows_[link.a].delay[link.b] = link.delay;
      t.rows_[link.b].delay[link.a] = link.delay;
      t.rows_[link.a].hops[link.b] = 1;
      t.rows_[link.b].hops[link.a] = 1;
    }
  }
  // Classic triple loop (Floyd & Warshall, as cited by the paper [7]).
  for (NodeId k = 0; k < n; ++k) {
    const sim::SimTime* dk = t.rows_[k].delay.data();
    const uint32_t* hk = t.rows_[k].hops.data();
    for (NodeId i = 0; i < n; ++i) {
      const sim::SimTime dik = t.rows_[i].delay[k];
      if (dik >= kUnreachableDelay) continue;
      sim::SimTime* di = t.rows_[i].delay.data();
      uint32_t* hi = t.rows_[i].hops.data();
      const uint32_t hik = hi[k];
      for (NodeId j = 0; j < n; ++j) {
        const sim::SimTime candidate = dik + dk[j];
        const uint64_t candidate_hops = uint64_t{hik} + hk[j];
        if (PathBeats(candidate, candidate_hops, di[j], hi[j])) {
          di[j] = candidate;
          hi[j] = static_cast<uint32_t>(candidate_hops);
        }
      }
    }
  }
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (t.rows_[i].delay[j] >= kUnreachableDelay) {
        return Status::FailedPrecondition("topology is disconnected");
      }
    }
  }
  return t;
}

void RoutingTables::ShortestPathsFrom(const Topology& topo, NodeId src,
                                      std::vector<sim::SimTime>& delay,
                                      std::vector<uint32_t>& hops) {
  assert(src < topo.node_count());
  Dijkstra(
      topo.node_count(), src,
      [&topo](NodeId u, const auto& relax) {
        for (const auto& [v, w] : topo.neighbors(u)) relax(v, w, 1);
      },
      delay, hops);
}

Result<RoutingTables> RoutingTables::DijkstraRows(
    const Topology& topo, const std::vector<NodeId>& rows) {
  RoutingTables t(topo.node_count());
  for (NodeId src : rows) {
    if (src >= topo.node_count()) {
      return Status::OutOfRange("dijkstra row out of range");
    }
    if (t.HasRow(src)) continue;  // duplicate request
    Row& row = t.rows_[src];
    ShortestPathsFrom(topo, src, row.delay, row.hops);
    for (NodeId j = 0; j < topo.node_count(); ++j) {
      if (row.delay[j] >= kUnreachableDelay) {
        return Status::FailedPrecondition("topology is disconnected");
      }
    }
  }
  return t;
}

MemberCore::MemberCore(const Topology& topo)
    : core_index_(topo.node_count(), kInvalidNode) {
  const size_t n = topo.node_count();
  auto is_router = [&topo](NodeId v) {
    return topo.kind(v) == NodeKind::kRouter;
  };

  // Prune: peel routers of degree <= 1 until none is left. degree[v]
  // counts v's links to nodes not yet removed.
  std::vector<uint32_t> degree(n);
  std::vector<bool> removed(n, false);
  std::vector<NodeId> leaves;
  for (NodeId v = 0; v < n; ++v) {
    degree[v] = static_cast<uint32_t>(topo.neighbors(v).size());
    if (is_router(v) && degree[v] <= 1) leaves.push_back(v);
  }
  while (!leaves.empty()) {
    const NodeId v = leaves.back();
    leaves.pop_back();
    removed[v] = true;
    for (const auto& [u, w] : topo.neighbors(v)) {
      if (!removed[u] && --degree[u] == 1 && is_router(u)) {
        leaves.push_back(u);
      }
    }
  }

  // Core nodes: members and routers that are not on a chain.
  std::vector<NodeId> core_nodes;
  for (NodeId v = 0; v < n; ++v) {
    if (!removed[v] && (!is_router(v) || degree[v] != 2)) {
      core_index_[v] = static_cast<NodeId>(core_nodes.size());
      core_nodes.push_back(v);
    }
  }

  // Contract + merge: walk each live link of each core node along its
  // chain of degree-2 routers to the core node at the far end. Walking
  // from both ends stores each undirected arc once per end.
  // arc_at[c] is the position of the current node's arc to core node c.
  std::vector<size_t> arc_at(core_nodes.size(), SIZE_MAX);
  offsets_.reserve(core_nodes.size() + 1);
  offsets_.push_back(0);
  for (NodeId u : core_nodes) {
    const size_t first = arcs_.size();
    for (const auto& [next, link_delay] : topo.neighbors(u)) {
      if (removed[next]) continue;
      NodeId prev = u;
      NodeId at = next;
      sim::SimTime delay = link_delay;
      uint32_t hops = 1;
      while (core_index_[at] == kInvalidNode) {
        // `at` is a degree-2 router: leave by the other live link. When
        // both lead back to `prev`, the chain is a loop and ends there.
        const std::pair<NodeId, sim::SimTime>* out = nullptr;
        for (const auto& link : topo.neighbors(at)) {
          if (removed[link.first]) continue;
          out = &link;
          if (link.first != prev) break;
        }
        assert(out != nullptr && "a chain router has two live links");
        prev = at;
        at = out->first;
        delay += out->second;
        ++hops;
      }
      if (at == u) continue;  // a loop lies on no best path
      const NodeId to = core_index_[at];
      if (arc_at[to] == SIZE_MAX) {
        arc_at[to] = arcs_.size();
        arcs_.push_back({to, hops, delay});
      } else if (Arc& arc = arcs_[arc_at[to]];
                 PathBeats(delay, hops, arc.delay, arc.hops)) {
        arc.delay = delay;
        arc.hops = hops;
      }
    }
    for (size_t a = first; a < arcs_.size(); ++a) {
      arc_at[arcs_[a].to] = SIZE_MAX;
    }
    offsets_.push_back(arcs_.size());
  }
}

void MemberCore::ShortestPathsFrom(NodeId core_src,
                                   std::vector<sim::SimTime>& delay,
                                   std::vector<uint32_t>& hops) const {
  assert(core_src < node_count());
  Dijkstra(
      node_count(), core_src,
      [this](NodeId u, const auto& relax) {
        for (size_t a = offsets_[u]; a < offsets_[u + 1]; ++a) {
          relax(arcs_[a].to, arcs_[a].delay, arcs_[a].hops);
        }
      },
      delay, hops);
}

}  // namespace d3t::net
