#include "net/routing.h"

#include <queue>

namespace d3t::net {

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

// Pinned to a cache-line boundary: the triple loop's speed depends on
// where its entry lands, and a change anywhere else in the library can
// move it. On x86-64 Xeon hosts with GCC, the entry moving from offset 0
// to 16 (mod 64) in d3t_bench, with identical machine code, made
// paper_sweep's traced net.routing span 11-35% slower and serve_feed's
// setup_s 22-50% higher over seeds 41-44 (a repeat over four alternated
// pairs at seed 42: 3-21% slower); pinned, both returned to their
// earlier values. The algorithm is the same either way.
#if defined(__GNUC__)
__attribute__((aligned(64)))
#endif
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
    if (link.delay < t.rows_[link.a].delay[link.b]) {
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
        if (candidate < di[j]) {
          di[j] = candidate;
          hi[j] = hik + hk[j];
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
  delay.assign(topo.node_count(), kUnreachableDelay);
  hops.assign(topo.node_count(), kUnreachableHops);
  using Item = std::pair<sim::SimTime, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  delay[src] = 0;
  hops[src] = 0;
  pq.emplace(0, src);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > delay[u]) continue;
    for (const auto& [v, w] : topo.neighbors(u)) {
      const sim::SimTime nd = d + w;
      if (nd < delay[v]) {
        delay[v] = nd;
        hops[v] = hops[u] + 1;
        pq.emplace(nd, v);
      }
    }
  }
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

}  // namespace d3t::net
