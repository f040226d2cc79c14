#ifndef D3T_EXP_CONFIG_H_
#define D3T_EXP_CONFIG_H_

#include <cstddef>
#include <string>

#include "core/lela.h"

namespace d3t::exp {

/// Physical-network knobs: everything that shapes the topology and its
/// routed delay model. World-building input — immutable across the runs
/// of a session.
struct NetworkConfig {
  size_t repositories = 100;
  size_t routers = 600;
  /// Number of source nodes (paper base case: 1; §4's multi-source
  /// extension partitions the items round-robin across sources).
  size_t source_count = 1;
  /// False (the default) routes every world with Dijkstra rows over the
  /// topology's member core (net::OverlayDelayModel::
  /// FromTopologyAllSources). True routes a single-source world with the
  /// paper's O(V^3) Floyd-Warshall [7] instead; the delay model is
  /// byte-identical either way. Multi-source worlds always take the
  /// default. Kept only because bench/e2e reads it.
  bool use_floyd_warshall = false;
  /// Per-link Pareto delay parameters (milliseconds); see
  /// net::TopologyGeneratorOptions for the calibration note.
  double link_delay_min_ms = 1.5;
  double link_delay_mean_ms = 4.0;
};

/// Workload knobs: the traces and the repositories' data needs.
/// World-building input — immutable across the runs of a session.
struct WorkloadConfig {
  size_t items = 100;
  size_t ticks = 10000;
  double item_probability = 0.5;
  /// The paper's T: fraction of a repository's items with stringent
  /// tolerances, in [0, 1].
  double stringent_fraction = 0.5;
};

/// Overlay-construction knobs, applied per run (LeLA rebuilds the d3g
/// for every RunSpec; the substrate underneath stays shared).
struct OverlayConfig {
  /// Degree of cooperation *offered* by every member.
  size_t coop_degree = 5;
  /// When true, the effective degree is min(offered, Eq. (2) value).
  bool controlled_cooperation = false;
  /// Eq. (2)'s interest-fraction constant f.
  double coop_f = 50.0;
  double p_window = 0.05;
  core::PreferenceFunction preference = core::PreferenceFunction::kP1;
  core::InsertionOrder insertion_order =
      core::InsertionOrder::kStringentFirst;
};

/// Dissemination-policy and timing knobs, applied per run.
struct PolicyConfig {
  /// "distributed", "centralized", "eq3-only", "all-updates" or
  /// "temporal". Validated before any substrate work; see
  /// exp::ValidatePolicyName.
  std::string policy = "distributed";
  double comp_delay_ms = 12.5;
  /// When > 0, the pairwise delay matrix is rescaled so its mean equals
  /// this value (the x-axis of Figs. 5 and 7b). 0 keeps topology-native
  /// delays. Negative forces all-zero communication delays.
  double comm_delay_mean_ms = 0.0;
  /// See core::EngineOptions::tag_check_cost_factor.
  double tag_check_cost_factor = 0.0;
  /// See core::EngineOptions::coalesce_deliveries. Off = the
  /// one-event-per-message dispatch baseline; metrics are byte-identical
  /// either way.
  bool coalesce_deliveries = true;
  /// See core::EngineOptions::drain_process_spans. Off = the
  /// one-event-per-job processing baseline; metrics are byte-identical
  /// either way on routed topologies — including under a Scenario,
  /// where drained spans stop at the next pending scenario event so a
  /// mid-span failure sees the same backlog in both modes (see the
  /// caveat there about exact same-instant cross-parent arrivals on
  /// synthetic delay models; a scenario op landing on the exact
  /// microsecond a job chain ticks shares that caveat).
  bool drain_process_spans = true;
  /// Serialize every inter-node update through the wire format over an
  /// in-process transport (see core::EngineOptions::wire_transport).
  /// Metrics are byte-identical either way, pinned by DeterminismTest;
  /// on = every message round-trips wire::Encode/Decode and the run's
  /// ExperimentResult carries the transport counters.
  bool route_through_wire = false;
  /// How orphaned subtrees re-attach when the run's Scenario fails a
  /// repository: "fallback" (the failed member's own parent, LeLA-style
  /// search when it is down too), "lela" (minimum-delay live holder) or
  /// "on-recovery" (wait for the original parent to come back). See
  /// core::ParseRepairPolicy; no effect without a scenario.
  std::string repair_policy = "fallback";
  /// Silence-detection window in milliseconds: how long orphans stay
  /// detached (integrating staleness) after their parent fails before
  /// the repair policy re-attaches them. 0 repairs at the failure
  /// instant.
  double repair_delay_ms = 0.0;
};

}  // namespace d3t::exp

#endif  // D3T_EXP_CONFIG_H_
