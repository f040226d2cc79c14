#ifndef D3T_NET_DELAY_MODEL_H_
#define D3T_NET_DELAY_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/time.h"

namespace d3t::net {

/// Compact index of an overlay member (the source plus every repository)
/// used by the dissemination layer. Index 0 is always the source.
using OverlayIndex = uint32_t;

inline constexpr OverlayIndex kSourceOverlayIndex = 0;
inline constexpr OverlayIndex kInvalidOverlayIndex = UINT32_MAX;

/// Pairwise communication delays (and hop counts) between overlay
/// members, extracted from the physical routing substrate. This is the
/// only view of the network the coherency layer needs: delay(parent,
/// child) is the full path delay across routers, as in the paper's
/// model.
///
/// The backing store is *compressed*: it covers only the member x member
/// submatrix the engines and LeLA actually query (never the physical
/// n x n all-pairs tables), packed as 32-bit microsecond delays and
/// 16-bit hop counts — 6 bytes per pair instead of the 12 a SimTime +
/// uint32 pair costs. Query results are numerically identical to the
/// wide representation. A routed pair that does not fit (a path delay
/// over UINT32_MAX us, ~71.6 minutes, or over 65,535 hops) makes the
/// routed builders fail with OutOfRange naming the pair.
///
/// Hop counts are canonical (see RoutingTables): the fewest hops among a
/// pair's minimum-delay paths, so every builder below stores the same
/// bytes for the same topology.
class OverlayDelayModel {
 public:
  /// Builds the model from a routed topology. `routing` must have valid
  /// rows for the source and all repositories. The topology must have
  /// exactly one source; multi-source topologies use the overload below.
  static Result<OverlayDelayModel> FromRouting(const Topology& topo,
                                               const RoutingTables& routing);

  /// Multi-source variant: builds the model rooted at `source` (which
  /// must be one of the topology's source nodes). Repositories are the
  /// same regardless of the chosen source, so one model per source
  /// supports per-source dissemination overlays (paper §4's extension).
  static Result<OverlayDelayModel> FromRoutingWithSource(
      const Topology& topo, const RoutingTables& routing, NodeId source);

  /// The default builder: builds the topology's MemberCore once, then
  /// routes one member row at a time on it (Dijkstra through two
  /// core-sized scratch buffers and a RadixFrontier, reused row to row)
  /// straight into the compressed member x member model(s) — one per
  /// source node, in SourceNodes() order — without ever materializing a
  /// physical-node routing table. The core keeps every member-to-member
  /// (delay, hops) exactly, so the result is byte-identical to
  /// FloydWarshall or DijkstraRows + FromRoutingWithSource, while each
  /// row searches ~24% of the nodes of a generated topology.
  /// Rows are independent, so `worker_threads` > 1 fans them out over a
  /// pool whose workers claim rows from a shared cursor; results do not
  /// depend on the thread count. Fails if the topology is disconnected
  /// or has no source.
  static Result<std::vector<OverlayDelayModel>> FromTopologyAllSources(
      const Topology& topo, size_t worker_threads = 1);

  /// Builds a synthetic model with `member_count` members (including the
  /// source) and a constant delay/hops everywhere — handy for unit tests
  /// and controlled experiments.
  static OverlayDelayModel Uniform(size_t member_count, sim::SimTime delay,
                                   uint32_t hops = 1);

  size_t member_count() const { return count_; }
  /// Number of repositories (member_count minus the source).
  size_t repository_count() const { return count_ - 1; }

  sim::SimTime Delay(OverlayIndex from, OverlayIndex to) const {
    return static_cast<sim::SimTime>(delay_[Idx(from, to)]);
  }
  uint32_t Hops(OverlayIndex from, OverlayIndex to) const {
    return hops_[Idx(from, to)];
  }

  /// Physical node backing an overlay member (kInvalidNode for synthetic
  /// models).
  NodeId PhysicalNode(OverlayIndex m) const { return physical_[m]; }

  /// Statistics of the off-diagonal pairs.
  struct PairStats {
    /// Mean/min/max of pair delays (microseconds).
    StreamingStats delay;
    /// Mean pair hop count.
    double mean_hops = 0.0;
  };
  /// Fills both statistics in one row-major pass over the pairs.
  PairStats ComputePairStats() const;

  StreamingStats PairDelayStats() const { return ComputePairStats().delay; }
  double MeanPairHops() const { return ComputePairStats().mean_hops; }

  /// Returns a copy whose mean pair delay equals `target_mean` (all pair
  /// delays scaled by a common factor). Used by the communication-delay
  /// sweeps (Figs. 5 and 7b). `current_mean` must be this model's
  /// PairDelayStats().mean(); callers pass it in because they hold it
  /// already (exp::World caches it), which spares an O(members^2) pass.
  /// A zero target zeroes all delays. OutOfRange when a scaled pair
  /// delay does not fit the 32-bit microsecond store.
  Result<OverlayDelayModel> ScaledToMeanDelay(sim::SimTime target_mean,
                                              double current_mean) const;

 private:
  /// Packed pair entries; see the class comment.
  using PackedDelay = uint32_t;
  using PackedHops = uint16_t;

  explicit OverlayDelayModel(size_t count);

  static PackedDelay PackDelay(sim::SimTime delay);
  static PackedHops PackHops(uint32_t hops);

  /// Stores the routed pair `from` -> `to` at entry `index`; OutOfRange,
  /// naming the pair, when its delay or hop count does not fit.
  Status StorePair(size_t index, NodeId from, NodeId to, sim::SimTime delay,
                   uint32_t hops);

  size_t Idx(OverlayIndex a, OverlayIndex b) const {
    return static_cast<size_t>(a) * count_ + b;
  }

  size_t count_ = 0;
  std::vector<PackedDelay> delay_;
  std::vector<PackedHops> hops_;
  std::vector<NodeId> physical_;
};

}  // namespace d3t::net

#endif  // D3T_NET_DELAY_MODEL_H_
