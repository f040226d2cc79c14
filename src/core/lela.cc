#include "core/lela.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/coherency.h"

namespace d3t::core {

namespace {

/// Sentinel serve level of a (member, item) the member does not hold.
/// NaN so that `serve <= c` is false for every tolerance — including an
/// infinite one — exactly like the Holds() check it replaces.
const double kNotServed = std::numeric_limits<double>::quiet_NaN();

/// Working state of one construction.
///
/// Join-time candidate evaluation is flattened for large memberships:
/// the joining repository's needs are copied out of the InterestSet map
/// once per join, CanServe reads a dense (member x item) serve-level
/// array instead of chasing the overlay's serving records, and each
/// level keeps a bucket of members that still offer spare cooperation
/// capacity (lazily compacted) so a join never rescans saturated
/// levels member by member.
class Builder {
 public:
  Builder(const net::OverlayDelayModel& delays, size_t member_count,
          size_t item_count, const LelaOptions& options, Rng& rng)
      : delays_(delays),
        options_(options),
        rng_(rng),
        overlay_(member_count, item_count),
        serve_c_(member_count * item_count, kNotServed) {}

  /// One-time validation of options and the delay model; also roots the
  /// source's holdings. Must be called (successfully) before any join.
  Status Initialize();

  /// Validates and places repository `q` (in [1, member count)).
  Status JoinMember(OverlayIndex q, const InterestSet& needs);

  Overlay TakeOverlay() { return std::move(overlay_); }
  LelaBuildInfo FinalInfo() {
    info_.levels = levels_.size();
    return info_;
  }

 private:
  /// Flat (item, tolerance) view of the joining member's needs.
  using FlatNeeds = std::vector<std::pair<ItemId, Coherency>>;

  /// True when `parent` can already serve `item` at tolerance `c`: one
  /// dense array read (kNotServed compares false against any c).
  bool CanServe(OverlayIndex parent, ItemId item, Coherency c) const {
    return serve_c_[static_cast<size_t>(parent) * overlay_.item_count() +
                    item] <= c;
  }

  /// Mirrors `m`'s serve level for `item` into the dense array after an
  /// overlay mutation that may have changed it.
  void SyncServe(OverlayIndex m, ItemId item) {
    serve_c_[static_cast<size_t>(m) * overlay_.item_count() + item] =
        overlay_.Holds(m, item) ? overlay_.Serving(m, item).c_serve
                                : kNotServed;
  }

  double Preference(OverlayIndex candidate, OverlayIndex q,
                    const FlatNeeds& needed) const;

  Status InsertRepository(OverlayIndex q, const InterestSet& needed);

  /// Ensures `node` can serve `item` at tolerance `c`, recursively
  /// augmenting ancestors along existing connections (paper §4's
  /// cascading effect). Returns the number of fresh per-item edges made.
  size_t AugmentServe(OverlayIndex node, ItemId item, Coherency c,
                      size_t depth);

  const net::OverlayDelayModel& delays_;
  const LelaOptions options_;
  Rng& rng_;
  Overlay overlay_;
  std::vector<std::vector<OverlayIndex>> levels_{{kSourceOverlayIndex}};
  /// Per level: the members still eligible as connection parents (spare
  /// capacity, reachable from the source). Members are appended on
  /// placement and lazily compacted out once their capacity fills —
  /// capacity never comes back, so eviction is permanent and a join
  /// skips saturated levels in O(1) instead of rescanning them.
  std::vector<std::vector<OverlayIndex>> open_{{kSourceOverlayIndex}};
  /// Dense (member x item) serve levels (c_serve, or kNotServed when the
  /// member does not hold the item) mirroring the overlay's serving
  /// records; lets join-time scoring read one flat double per check.
  std::vector<Coherency> serve_c_;
  LelaBuildInfo info_;
};

double Builder::Preference(OverlayIndex candidate, OverlayIndex q,
                           const FlatNeeds& needed) const {
  const double comm = static_cast<double>(delays_.Delay(candidate, q));
  const double dependents = static_cast<double>(
      overlay_.ConnectionChildren(candidate).size());
  if (options_.preference == PreferenceFunction::kP2) {
    return comm * (1.0 + dependents);
  }
  const Coherency* serve =
      &serve_c_[static_cast<size_t>(candidate) * overlay_.item_count()];
  size_t servable = 0;
  for (const auto& [item, c] : needed) {
    if (serve[item] <= c) ++servable;
  }
  return comm * (1.0 + dependents) /
         (1.0 + static_cast<double>(servable));
}

size_t Builder::AugmentServe(OverlayIndex node, ItemId item, Coherency c,
                             size_t depth) {
  if (node == kSourceOverlayIndex) return 0;  // source holds all at c=0
  // Guard against pathological recursion (a correct overlay's parent
  // chains are shorter than the member count).
  assert(depth <= overlay_.member_count());
  (void)depth;
  if (overlay_.Holds(node, item)) {
    const ItemServing& s = overlay_.Serving(node, item);
    if (s.c_serve <= c) return 0;  // already stringent enough
    const OverlayIndex parent = s.parent;
    size_t fresh = AugmentServe(parent, item, c, depth + 1);
    overlay_.SetServing(node, item, c, parent);
    overlay_.TightenItemEdge(parent, node, item, c);
    SyncServe(node, item);
    return fresh;
  }
  // The node does not hold the item: recruit a supplier among its
  // existing connection parents — prefer one already holding the item,
  // otherwise pick one at random (paper §4).
  const auto& parents = overlay_.ConnectionParents(node);
  assert(!parents.empty() && "placed repositories always have a parent");
  OverlayIndex supplier = kInvalidOverlayIndex;
  for (OverlayIndex p : parents) {
    if (overlay_.Holds(p, item)) {
      supplier = p;
      break;
    }
  }
  if (supplier == kInvalidOverlayIndex) {
    supplier = parents[rng_.NextBounded(parents.size())];
  }
  size_t fresh = AugmentServe(supplier, item, c, depth + 1);
  overlay_.AddItemEdge(supplier, node, item, c);
  SyncServe(node, item);
  return fresh + 1;
}

Status Builder::InsertRepository(OverlayIndex q, const InterestSet& needed) {
  if (needed.empty()) {
    // A repository with no data needs joins as a leaf of level 1 with no
    // connections; it has no path to the source, so it is never added to
    // the open (parent-eligible) bucket of its level.
    overlay_.set_level(q, 1);
    if (levels_.size() < 2) {
      levels_.emplace_back();
      open_.emplace_back();
    }
    levels_[1].push_back(q);
    return Status::Ok();
  }
  // One flat copy of the needs per join: every per-candidate scan below
  // walks this contiguous array instead of re-iterating the InterestSet
  // map per candidate.
  const FlatNeeds needs(needed.begin(), needed.end());
  for (size_t level = 0; level < levels_.size(); ++level) {
    // Candidates: the level's open bucket, compacted in place to evict
    // members whose capacity has filled since the last visit (capacity
    // never comes back, so eviction is permanent). A fully saturated
    // level costs O(1) from then on.
    std::vector<OverlayIndex>& candidates = open_[level];
    size_t keep = 0;
    for (OverlayIndex m : candidates) {
      if (overlay_.ConnectionChildren(m).size() >= options_.coop_degree) {
        continue;
      }
      candidates[keep++] = m;
    }
    candidates.resize(keep);
    if (candidates.empty()) continue;  // pass to the next load controller

    // Preference factors; keep those within the P% window of the best.
    std::vector<std::pair<double, OverlayIndex>> scored;
    scored.reserve(candidates.size());
    for (OverlayIndex m : candidates) {
      scored.emplace_back(Preference(m, q, needs), m);
    }
    std::sort(scored.begin(), scored.end());
    const double best = scored.front().first;
    const double cutoff = best * (1.0 + options_.p_window);
    std::vector<OverlayIndex> window;
    for (const auto& [pref, m] : scored) {
      if (pref <= cutoff || window.empty()) window.push_back(m);
    }

    // Assign each needed item to the most preferred parent that can
    // already serve it; the rest go to the most preferred parent overall
    // through cascading augmentation.
    std::vector<std::pair<OverlayIndex, std::pair<ItemId, Coherency>>>
        assignments;
    std::vector<std::pair<ItemId, Coherency>> leftovers;
    for (const auto& [item, c] : needs) {
      OverlayIndex server = kInvalidOverlayIndex;
      for (OverlayIndex m : window) {
        if (CanServe(m, item, c)) {
          server = m;
          break;
        }
      }
      if (server == kInvalidOverlayIndex) {
        leftovers.emplace_back(item, c);
      } else {
        assignments.emplace_back(server, std::make_pair(item, c));
      }
    }

    for (const auto& [item, c] : needs) {
      overlay_.SetOwnInterest(q, item, c);
      SyncServe(q, item);
    }
    for (const auto& [server, item_c] : assignments) {
      overlay_.AddItemEdge(server, q, item_c.first, item_c.second);
      SyncServe(q, item_c.first);
      ++info_.demand_edges;
    }
    if (!leftovers.empty()) {
      const OverlayIndex favorite = window.front();
      // The favorite may need items it never wanted; its own ancestors
      // are augmented transitively up to the source.
      for (const auto& [item, c] : leftovers) {
        // AugmentServe() requires an existing connection parent; attach
        // q to the favorite first if no edge exists yet so the favorite
        // counts q exactly once against its capacity.
        info_.augmented_edges += AugmentServe(favorite, item, c, 0);
        overlay_.AddItemEdge(favorite, q, item, c);
        SyncServe(q, item);
        ++info_.demand_edges;
      }
    }

    overlay_.set_level(q, static_cast<uint32_t>(level + 1));
    if (levels_.size() < level + 2) {
      levels_.emplace_back();
      open_.emplace_back();
    }
    levels_[level + 1].push_back(q);
    // q joined with needs, so it has a connection parent and is
    // source-reachable; with coop_degree >= 1 it is parent-eligible.
    open_[level + 1].push_back(q);
    if (overlay_.ConnectionParents(q).size() > 1) {
      ++info_.multi_parent_repositories;
    }
    return Status::Ok();
  }
  return Status::CapacityExhausted(
      "no level had spare cooperation capacity");
}

Status Builder::Initialize() {
  if (options_.coop_degree == 0) {
    return Status::InvalidArgument("cooperation degree must be >= 1");
  }
  if (!(std::isfinite(options_.p_window) && options_.p_window >= 0.0)) {
    return Status::InvalidArgument("p_window must be finite and >= 0");
  }
  if (delays_.member_count() != overlay_.member_count()) {
    return Status::InvalidArgument(
        "delay model must cover source + all repositories");
  }
  // The source holds every item at tolerance 0.
  for (ItemId item = 0; item < overlay_.item_count(); ++item) {
    overlay_.SetServing(kSourceOverlayIndex, item, 0.0,
                        kInvalidOverlayIndex);
    SyncServe(kSourceOverlayIndex, item);
  }
  return Status::Ok();
}

Status Builder::JoinMember(OverlayIndex q, const InterestSet& needs) {
  for (const auto& [item, c] : needs) {
    if (item >= overlay_.item_count()) {
      return Status::OutOfRange("interest references unknown item");
    }
    if (!IsValidTolerance(c)) {
      return Status::InvalidArgument(
          "coherency tolerances must be finite and > 0");
    }
  }
  return InsertRepository(q, needs);
}

}  // namespace

Result<LelaResult> BuildOverlay(const net::OverlayDelayModel& delays,
                                const std::vector<InterestSet>& interests,
                                size_t item_count,
                                const LelaOptions& options, Rng& rng) {
  Builder builder(delays, interests.size() + 1, item_count, options, rng);
  D3T_RETURN_IF_ERROR(builder.Initialize());

  // Insertion order.
  std::vector<OverlayIndex> order(interests.size());
  std::iota(order.begin(), order.end(), 1);
  switch (options.insertion_order) {
    case InsertionOrder::kStringentFirst:
      std::stable_sort(order.begin(), order.end(),
                       [&interests](OverlayIndex a, OverlayIndex b) {
                         return MeanCoherency(interests[a - 1]) <
                                MeanCoherency(interests[b - 1]);
                       });
      break;
    case InsertionOrder::kRandom:
      rng.Shuffle(order);
      break;
    case InsertionOrder::kIndexOrder:
      break;
  }

  for (OverlayIndex q : order) {
    D3T_RETURN_IF_ERROR(builder.JoinMember(q, interests[q - 1]));
  }
  LelaBuildInfo info = builder.FinalInfo();
  return LelaResult{builder.TakeOverlay(), info};
}

}  // namespace d3t::core
