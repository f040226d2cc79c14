#include "core/disseminator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/coherency.h"

namespace d3t::core {

namespace {

/// Seed for the state covering an edge created after Initialize (a
/// scenario repair): -infinity makes the next update the serving node
/// processes unconditionally push, modeling the new parent bringing its
/// fresh dependent up to date.
constexpr double kForcedResyncSeed =
    -std::numeric_limits<double>::infinity();

/// Initialize body shared by the last-sent-keeping policies: one slot
/// per edge id the overlay has handed out, seeded from its item's
/// initial value.
void SeedEdgeState(const Overlay& overlay,
                   const std::vector<double>& initial_values,
                   std::vector<double>& state) {
  state.resize(overlay.edge_id_limit());
  for (EdgeId id = 0; id < state.size(); ++id) {
    state[id] = initial_values[overlay.edge_item(id)];
  }
}

/// OnEdgeCreated body shared by the last-sent-keeping policies: admit
/// the id (growing the flat vector if it is fresh) and force a resync.
void ResetEdgeSlot(std::vector<double>& state, EdgeId id) {
  if (id >= state.size()) state.resize(id + 1, kForcedResyncSeed);
  state[id] = kForcedResyncSeed;
}

}  // namespace

// ---------------------------------------------------------------------------
// DistributedDisseminator

void DistributedDisseminator::Initialize(
    const Overlay& overlay, const std::vector<double>& initial_values) {
  overlay_ = &overlay;
  SeedEdgeState(overlay, initial_values, last_sent_);
}

void DistributedDisseminator::OnEdgeCreated(EdgeId id, ItemId /*item*/,
                                            Coherency /*c*/) {
  ResetEdgeSlot(last_sent_, id);
}

// d3t-lint: hot
bool DistributedDisseminator::ShouldPush(sim::SimTime, OverlayIndex node,
                                         ItemId item, const ItemEdge& edge,
                                         double value, double /*tag*/) {
  assert(edge.id < last_sent_.size() && "edge unknown to the policy");
  if (edge.id >= last_sent_.size()) return false;
  // c_serve is read live (a dense-matrix access, not a hash lookup): a
  // caller may retighten a node's serving tolerance between pushes.
  const Coherency parent_c =
      node == kSourceOverlayIndex ? 0.0
                                  : overlay_->Serving(node, item).c_serve;
  double& last = last_sent_[edge.id];
  if (ShouldForwardDistributed(value, last, edge.c, parent_c)) {
    last = value;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Eq3OnlyDisseminator

void Eq3OnlyDisseminator::Initialize(
    const Overlay& overlay, const std::vector<double>& initial_values) {
  SeedEdgeState(overlay, initial_values, last_sent_);
}

void Eq3OnlyDisseminator::OnEdgeCreated(EdgeId id, ItemId /*item*/,
                                        Coherency /*c*/) {
  ResetEdgeSlot(last_sent_, id);
}

// d3t-lint: hot
bool Eq3OnlyDisseminator::ShouldPush(sim::SimTime, OverlayIndex /*node*/,
                                     ItemId /*item*/, const ItemEdge& edge,
                                     double value, double /*tag*/) {
  assert(edge.id < last_sent_.size() && "edge unknown to the policy");
  if (edge.id >= last_sent_.size()) return false;
  double& last = last_sent_[edge.id];
  if (ViolatesEq3(value, last, edge.c)) {
    last = value;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// CentralizedDisseminator

void CentralizedDisseminator::Initialize(
    const Overlay& overlay, const std::vector<double>& initial_values) {
  per_item_.assign(overlay.item_count(), {});
  for (ItemId item = 0; item < overlay.item_count(); ++item) {
    std::vector<Coherency> tolerances;
    for (OverlayIndex m = 1; m < overlay.member_count(); ++m) {
      if (overlay.Holds(m, item)) {
        tolerances.push_back(overlay.Serving(m, item).c_serve);
      }
    }
    std::sort(tolerances.begin(), tolerances.end());
    tolerances.erase(std::unique(tolerances.begin(), tolerances.end()),
                     tolerances.end());
    auto& states = per_item_[item];
    states.reserve(tolerances.size());
    const double v0 =
        item < initial_values.size() ? initial_values[item] : 0.0;
    for (Coherency c : tolerances) states.push_back({c, v0});
  }
}

BeginDecision CentralizedDisseminator::BeginUpdate(sim::SimTime,
                                                   OverlayIndex node,
                                                   ItemId item, double value,
                                                   double incoming_tag) {
  if (node != kSourceOverlayIndex) {
    // Repositories just relay the source-assigned tag.
    return BeginDecision{incoming_tag, false, 0};
  }
  auto& states = per_item_[item];
  BeginDecision decision;
  decision.extra_checks = states.size();
  double max_violated = -1.0;
  for (const ToleranceState& s : states) {
    if (ViolatesEq3(value, s.last_sent, s.c)) {
      max_violated = std::max(max_violated, s.c);
    }
  }
  if (max_violated < 0.0) {
    decision.drop = true;
    return decision;
  }
  // Record this value as the last sent for every tolerance <= the tag
  // (all of them just received this value).
  for (ToleranceState& s : states) {
    if (s.c <= max_violated) s.last_sent = value;
  }
  decision.tag = max_violated;
  return decision;
}

bool CentralizedDisseminator::ShouldPush(sim::SimTime, OverlayIndex /*node*/,
                                         ItemId /*item*/,
                                         const ItemEdge& edge,
                                         double /*value*/, double tag) {
  return edge.c <= tag;
}

void CentralizedDisseminator::OnEdgeCreated(EdgeId /*id*/, ItemId item,
                                            Coherency c) {
  // The centralized source keys its state by tolerance class, not by
  // edge: priming the repaired edge's class with kForcedResyncSeed makes
  // the next source update violate the class and flow down every edge at
  // or below `c` — the resync reaches the re-attached child (the other
  // members of the class just see one redundant refresh).
  if (item >= per_item_.size()) return;
  auto& states = per_item_[item];
  auto it = std::lower_bound(
      states.begin(), states.end(), c,
      [](const ToleranceState& s, Coherency value) { return s.c < value; });
  if (it != states.end() && it->c == c) {
    it->last_sent = kForcedResyncSeed;
  } else {
    // Unknown class (a repair at a renegotiated tolerance): admit it,
    // already primed to fire.
    states.insert(it, ToleranceState{c, kForcedResyncSeed});
  }
}

void CentralizedDisseminator::OnToleranceAdded(ItemId item, Coherency c,
                                               double source_value) {
  if (item >= per_item_.size()) return;
  auto& states = per_item_[item];
  auto it = std::lower_bound(
      states.begin(), states.end(), c,
      [](const ToleranceState& s, Coherency value) { return s.c < value; });
  if (it != states.end() && it->c == c) return;  // class already tracked
  // A renegotiated tolerance joins the source's class table mid-run;
  // seeding last_sent with the current value means the class starts
  // violation-free from this instant (the repository renegotiating it
  // keeps its own stale copy accounted by its tracker).
  states.insert(it, ToleranceState{c, source_value});
}

// ---------------------------------------------------------------------------
// AllUpdatesDisseminator

bool AllUpdatesDisseminator::ShouldPush(sim::SimTime, OverlayIndex, ItemId,
                                        const ItemEdge&, double, double) {
  return true;
}

// ---------------------------------------------------------------------------
// TemporalDisseminator

void TemporalDisseminator::Initialize(const Overlay& overlay,
                                      const std::vector<double>&) {
  last_push_time_.assign(overlay.edge_id_limit(), -kPeriod);
}

// d3t-lint: hot
bool TemporalDisseminator::ShouldPush(sim::SimTime now,
                                      OverlayIndex /*node*/,
                                      ItemId /*item*/, const ItemEdge& edge,
                                      double /*value*/, double /*tag*/) {
  // Pushing every kPeriod bounds staleness in time: the "simpler
  // problem" of §1.1. The first change after a quiet stretch is pushed
  // immediately (every edge starts one full period in the past).
  assert(edge.id < last_push_time_.size() && "edge unknown to the policy");
  if (edge.id >= last_push_time_.size()) return false;
  sim::SimTime& last = last_push_time_[edge.id];
  if (now - last >= kPeriod) {
    last = now;
    return true;
  }
  return false;
}

void TemporalDisseminator::OnEdgeCreated(EdgeId id, ItemId /*item*/,
                                         Coherency /*c*/) {
  // A (re-)created edge starts one full period in the past so its first
  // update goes out immediately, exactly like an Initialize-time edge.
  if (id >= last_push_time_.size()) {
    last_push_time_.resize(id + 1, -kPeriod);
  }
  last_push_time_[id] = -kPeriod;
}

// ---------------------------------------------------------------------------

std::unique_ptr<Disseminator> MakeDisseminator(const std::string& name) {
  if (name == "distributed") {
    return std::make_unique<DistributedDisseminator>();
  }
  if (name == "centralized") {
    return std::make_unique<CentralizedDisseminator>();
  }
  if (name == "eq3-only") return std::make_unique<Eq3OnlyDisseminator>();
  if (name == "all-updates") {
    return std::make_unique<AllUpdatesDisseminator>();
  }
  if (name == "temporal") return std::make_unique<TemporalDisseminator>();
  return nullptr;
}

const std::vector<std::string>& KnownPolicyNames() {
  static const std::vector<std::string> names = {
      "distributed", "centralized", "eq3-only", "all-updates", "temporal"};
  return names;
}

}  // namespace d3t::core
