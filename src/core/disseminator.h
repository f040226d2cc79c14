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

  /// Human-readable policy name for reports.
  virtual std::string name() const = 0;

  /// Resets policy state for a run. `initial_values[item]` is the value
  /// every member starts synchronized at.
  virtual void Initialize(const Overlay& overlay,
                          const std::vector<double>& initial_values) = 0;

  /// Called once when `node` starts processing an update for `item`.
  /// `incoming_tag` is the tag the update arrived with (unused at the
  /// source, which originates tags).
  virtual BeginDecision BeginUpdate(sim::SimTime now, OverlayIndex node,
                                    ItemId item, double value,
                                    double incoming_tag) = 0;

  /// Called for each child edge of (node, item) in tree order; returns
  /// true when the update must be pushed to `edge.child`. May update
  /// internal bookkeeping (e.g. last-sent values). `edge` must have been
  /// created by an Overlay (the stateful policies index dense per-edge
  /// state by `edge.id`); a hand-built edge with an invalid id is never
  /// pushed.
  virtual bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                          const ItemEdge& edge, double value,
                          double tag) = 0;

  /// Mid-run structural mutation (scenario repair): edge `id` —
  /// possibly a *recycled* slot whose previous incarnation carried a
  /// different edge — now carries `item` at tolerance `c` toward a
  /// (re-)attached child. Stateful policies must reset whatever state
  /// covers the edge (per-edge slots, or the tolerance class `c` for
  /// the centralized source); `last_sent_seed` is the value the new
  /// edge should treat as last pushed (-infinity forces a resync push
  /// on the next update the serving node processes). Default: no-op
  /// (stateless policies).
  virtual void OnEdgeCreated(EdgeId id, ItemId item, Coherency c,
                             double last_sent_seed) {
    (void)id;
    (void)item;
    (void)c;
    (void)last_sent_seed;
  }

  /// Mid-run coherency renegotiation introduced serving tolerance `c`
  /// for `item` (kCoherencyChange, or a recovered member re-attaching at
  /// its own need). Policies that key state by tolerance class (the
  /// centralized source) must admit the new class; `source_value` is the
  /// source's current value for the item. Default: no-op (per-edge
  /// policies read edge.c live).
  virtual void OnToleranceAdded(ItemId item, Coherency c,
                                double source_value) {
    (void)item;
    (void)c;
    (void)source_value;
  }
};

/// The distributed (repository-based) policy of §5.1: push when Eq. (3)
/// or the Eq. (7) missed-update guard fires, i.e. when
/// |value - last_sent| > c_edge - c_serve(node). Guarantees 100% fidelity
/// under zero delays.
class DistributedDisseminator : public Disseminator {
 public:
  std::string name() const override { return "distributed"; }
  void Initialize(const Overlay& overlay,
                  const std::vector<double>& initial_values) override;
  BeginDecision BeginUpdate(sim::SimTime now, OverlayIndex node, ItemId item,
                            double value, double incoming_tag) override;
  bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                  const ItemEdge& edge, double value, double tag) override;
  void OnEdgeCreated(EdgeId id, ItemId item, Coherency c,
                     double last_sent_seed) override;

 private:
  void SyncToOverlay();

  const Overlay* overlay_ = nullptr;
  std::vector<double> initial_values_;
  /// EdgeId-indexed last value pushed on each edge. Rebuilt by
  /// Initialize; edges created afterwards are admitted by SyncToOverlay
  /// on first use.
  std::vector<double> last_sent_;
};

/// The "Eq. (3) only" policy: pushes exactly when the dependent's own
/// tolerance is violated, *without* the missed-update guard. Exists to
/// demonstrate the Fig. 4 problem: it can permanently miss updates and
/// therefore loses fidelity even with zero delays.
class Eq3OnlyDisseminator : public Disseminator {
 public:
  std::string name() const override { return "eq3-only"; }
  void Initialize(const Overlay& overlay,
                  const std::vector<double>& initial_values) override;
  BeginDecision BeginUpdate(sim::SimTime now, OverlayIndex node, ItemId item,
                            double value, double incoming_tag) override;
  bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                  const ItemEdge& edge, double value, double tag) override;
  void OnEdgeCreated(EdgeId id, ItemId item, Coherency c,
                     double last_sent_seed) override;

 private:
  void SyncToOverlay();

  const Overlay* overlay_ = nullptr;
  std::vector<double> initial_values_;
  /// EdgeId-indexed last value pushed on each edge.
  std::vector<double> last_sent_;
};

/// The centralized (source-based) policy of §5.2: the source tracks the
/// set of unique tolerances per item and the last value sent for each;
/// an update violating any tolerance is tagged with the largest violated
/// tolerance and flows down every edge whose tolerance is <= the tag.
class CentralizedDisseminator : public Disseminator {
 public:
  std::string name() const override { return "centralized"; }
  void Initialize(const Overlay& overlay,
                  const std::vector<double>& initial_values) override;
  BeginDecision BeginUpdate(sim::SimTime now, OverlayIndex node, ItemId item,
                            double value, double incoming_tag) override;
  bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                  const ItemEdge& edge, double value, double tag) override;
  void OnEdgeCreated(EdgeId id, ItemId item, Coherency c,
                     double last_sent_seed) override;
  void OnToleranceAdded(ItemId item, Coherency c,
                        double source_value) override;

  /// Number of unique tolerances tracked for `item` (source state-space
  /// overhead, §5.2).
  size_t UniqueToleranceCount(ItemId item) const;

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
  std::string name() const override { return "all-updates"; }
  void Initialize(const Overlay& overlay,
                  const std::vector<double>& initial_values) override;
  BeginDecision BeginUpdate(sim::SimTime now, OverlayIndex node, ItemId item,
                            double value, double incoming_tag) override;
  bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                  const ItemEdge& edge, double value, double tag) override;
};

/// Time-domain coherency (paper §1.1: requirements "in units of time",
/// e.g. never out-of-sync by more than 5 minutes — the simpler problem
/// the paper contrasts against). Pushes an update along an edge iff at
/// least `period` has elapsed since the last push on that edge, i.e. a
/// rate limiter that bounds staleness in time rather than value.
class TemporalDisseminator : public Disseminator {
 public:
  explicit TemporalDisseminator(sim::SimTime period) : period_(period) {}

  std::string name() const override { return "temporal"; }
  void Initialize(const Overlay& overlay,
                  const std::vector<double>& initial_values) override;
  BeginDecision BeginUpdate(sim::SimTime now, OverlayIndex node, ItemId item,
                            double value, double incoming_tag) override;
  bool ShouldPush(sim::SimTime now, OverlayIndex node, ItemId item,
                  const ItemEdge& edge, double value, double tag) override;
  void OnEdgeCreated(EdgeId id, ItemId item, Coherency c,
                     double last_sent_seed) override;

  sim::SimTime period() const { return period_; }

 private:
  sim::SimTime period_ = sim::Seconds(5.0);
  /// EdgeId-indexed time of the last push on each edge; -period_ until
  /// an edge first pushes, so the first update always goes out.
  std::vector<sim::SimTime> last_push_time_;
};

/// Factory by policy name ("distributed", "centralized", "eq3-only",
/// "all-updates", "temporal" — the latter with a 5-second default
/// period); returns nullptr for unknown names.
std::unique_ptr<Disseminator> MakeDisseminator(const std::string& name);

/// Every name MakeDisseminator accepts, in factory order. Callers that
/// take a policy name as user input should validate against this list up
/// front (exp::ValidatePolicyName renders the canonical error).
const std::vector<std::string>& KnownPolicyNames();

}  // namespace d3t::core

#endif  // D3T_CORE_DISSEMINATOR_H_
