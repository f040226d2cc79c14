#ifndef D3T_CORE_DISSEMINATOR_H_
#define D3T_CORE_DISSEMINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/overlay.h"
#include "core/types.h"
#include "sim/time.h"

namespace d3t::core {

/// Decision made by a dissemination policy when a node begins processing
/// an update.
struct BeginDecision {
  /// Tag attached to every push from this node (used by the centralized
  /// policy; ignored by the others).
  double tag = 0.0;
  /// When true the node does not examine its children at all (the
  /// centralized source drops updates that violate no tolerance).
  bool drop = false;
  /// Policy-internal checks performed (e.g. the centralized source's
  /// scan of unique tolerances); reported in the Fig. 11a metric.
  uint64_t extra_checks = 0;
};

/// Interface of an update-dissemination policy (paper §5). The engine
/// owns timing, queueing and counting; the policy answers two questions:
/// what tag does an update carry, and should a given child edge receive
/// it. Implementations keep whatever per-edge or per-tolerance state
/// they need. `now` is the simulation time at which the node makes the
/// decision (the value-domain policies ignore it; the temporal policy
/// keys on it).
class Disseminator {
 public:
  virtual ~Disseminator() = default;

  /// Resets policy state for a run. `initial_values[item]` is the value
  /// every member starts synchronized at. Default: no state.
  virtual void Initialize(const Overlay& /*overlay*/,
                          const std::vector<double>& /*initial_values*/) {}

  /// Called once when `node` starts processing an update for `item`.
  /// `incoming_tag` is the tag the update arrived with (unused at the
  /// source, which originates tags). Default: no tag, no drop, no
  /// extra checks.
  virtual BeginDecision BeginUpdate(sim::SimTime /*now*/,
                                    OverlayIndex /*node*/, ItemId /*item*/,
                                    double /*value*/,
                                    double /*incoming_tag*/) {
    return BeginDecision{};
  }

  /// Called for each child edge of (node, item) in tree order; returns
  /// true when the update must be pushed to `edge.child`. May update
  /// internal bookkeeping (e.g. last-sent values). The stateful policies
  /// index dense per-edge state by `edge.id`, so the edge must be known
  /// to them: present at Initialize or announced through OnEdgeCreated.
  /// An unknown edge (a hand-built one with kInvalidEdgeId included) is
  /// never pushed.
  virtual bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                          const ItemEdge& edge, double value,
                          double tag) = 0;

  /// Mid-run structural mutation (scenario repair): edge `id` —
  /// possibly a *recycled* slot whose previous incarnation carried a
  /// different edge — now carries `item` at tolerance `c` toward a
  /// (re-)attached child. This is the only way an edge created after
  /// Initialize reaches a policy. Stateful policies reset whatever state
  /// covers the edge (per-edge slots, or the tolerance class `c` for the
  /// centralized source) so that the next update the serving node
  /// processes is pushed along it: the new parent brings its fresh
  /// dependent up to date. Default: no-op (stateless policies).
  virtual void OnEdgeCreated(EdgeId /*id*/, ItemId /*item*/,
                             Coherency /*c*/) {}

  /// Mid-run coherency renegotiation introduced serving tolerance `c`
  /// for `item` (kCoherencyChange, or a recovered member re-attaching at
  /// its own need). Policies that key state by tolerance class (the
  /// centralized source) must admit the new class; `source_value` is the
  /// source's current value for the item. Default: no-op (per-edge
  /// policies read edge.c live).
  virtual void OnToleranceAdded(ItemId /*item*/, Coherency /*c*/,
                                double /*source_value*/) {}
};

/// The distributed (repository-based) policy of §5.1: push when Eq. (3)
/// or the Eq. (7) missed-update guard fires, i.e. when
/// |value - last_sent| > c_edge - c_serve(node). Guarantees 100% fidelity
/// under zero delays.
class DistributedDisseminator : public Disseminator {
 public:
  void Initialize(const Overlay& overlay,
                  const std::vector<double>& initial_values) override;
  bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                  const ItemEdge& edge, double value, double tag) override;
  void OnEdgeCreated(EdgeId id, ItemId item, Coherency c) override;

 private:
  const Overlay* overlay_ = nullptr;
  /// EdgeId-indexed last value pushed on each edge.
  std::vector<double> last_sent_;
};

/// The "Eq. (3) only" policy: pushes exactly when the dependent's own
/// tolerance is violated, *without* the missed-update guard. Exists to
/// demonstrate the Fig. 4 problem: it can permanently miss updates and
/// therefore loses fidelity even with zero delays.
class Eq3OnlyDisseminator : public Disseminator {
 public:
  void Initialize(const Overlay& overlay,
                  const std::vector<double>& initial_values) override;
  bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                  const ItemEdge& edge, double value, double tag) override;
  void OnEdgeCreated(EdgeId id, ItemId item, Coherency c) override;

 private:
  /// EdgeId-indexed last value pushed on each edge.
  std::vector<double> last_sent_;
};

/// The centralized (source-based) policy of §5.2: the source tracks the
/// set of unique tolerances per item and the last value sent for each;
/// an update violating any tolerance is tagged with the largest violated
/// tolerance and flows down every edge whose tolerance is <= the tag.
/// The source's BeginUpdate reports the number of classes it scanned as
/// `extra_checks` (its state-space overhead).
class CentralizedDisseminator : public Disseminator {
 public:
  void Initialize(const Overlay& overlay,
                  const std::vector<double>& initial_values) override;
  BeginDecision BeginUpdate(sim::SimTime now, OverlayIndex node, ItemId item,
                            double value, double incoming_tag) override;
  bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                  const ItemEdge& edge, double value, double tag) override;
  void OnEdgeCreated(EdgeId id, ItemId item, Coherency c) override;
  void OnToleranceAdded(ItemId item, Coherency c,
                        double source_value) override;

 private:
  struct ToleranceState {
    Coherency c = 0.0;
    double last_sent = 0.0;
  };
  /// Per item, ascending by tolerance.
  std::vector<std::vector<ToleranceState>> per_item_;
};

/// No filtering: every update is pushed along every edge (emulates the
/// paper's T=100% "disseminate everything" comparison, Fig. 8).
class AllUpdatesDisseminator : public Disseminator {
 public:
  bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                  const ItemEdge& edge, double value, double tag) override;
};

/// Time-domain coherency (paper §1.1: requirements "in units of time",
/// e.g. never out-of-sync by more than 5 minutes — the simpler problem
/// the paper contrasts against). Pushes an update along an edge iff at
/// least `kPeriod` has elapsed since the last push on that edge, i.e. a
/// rate limiter that bounds staleness in time rather than value.
class TemporalDisseminator : public Disseminator {
 public:
  static constexpr sim::SimTime kPeriod = sim::Seconds(5.0);

  void Initialize(const Overlay& overlay,
                  const std::vector<double>& initial_values) override;
  bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                  const ItemEdge& edge, double value, double tag) override;
  void OnEdgeCreated(EdgeId id, ItemId item, Coherency c) override;

 private:
  /// EdgeId-indexed time of the last push on each edge; -kPeriod until
  /// an edge first pushes, so the first update always goes out.
  std::vector<sim::SimTime> last_push_time_;
};

/// Factory by policy name ("distributed", "centralized", "eq3-only",
/// "all-updates", "temporal"); returns nullptr for unknown names.
std::unique_ptr<Disseminator> MakeDisseminator(const std::string& name);

/// Every name MakeDisseminator accepts, in factory order. Callers that
/// take a policy name as user input should validate against this list up
/// front (exp::ValidatePolicyName renders the canonical error).
const std::vector<std::string>& KnownPolicyNames();

}  // namespace d3t::core

#endif  // D3T_CORE_DISSEMINATOR_H_
