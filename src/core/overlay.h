#ifndef D3T_CORE_OVERLAY_H_
#define D3T_CORE_OVERLAY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "core/types.h"

namespace d3t::core {

/// A per-item dissemination edge: this member pushes item updates to
/// `child`, which requires coherency `c` on the edge.
struct ItemEdge {
  OverlayIndex child = kInvalidOverlayIndex;
  Coherency c = 0.0;
  /// Dense edge identifier assigned by the owning Overlay; dissemination
  /// policies index their flat per-edge state (last-sent value, last
  /// push time) by it.
  EdgeId id = kInvalidEdgeId;
};

/// What one overlay member knows about one item.
struct ItemServing {
  /// Effective tolerance at which this member receives the item from its
  /// per-item parent: min(own requirement, all dependents' requirements).
  /// 0 at the source.
  Coherency c_serve = 0.0;
  /// The member's own (client-derived) requirement; only meaningful when
  /// `own_interest` is true.
  Coherency c_own = 0.0;
  bool own_interest = false;
  /// Per-item parent (kInvalidOverlayIndex at the source).
  OverlayIndex parent = kInvalidOverlayIndex;
  /// Dependents this member pushes the item to.
  std::vector<ItemEdge> children;
};

/// One per-item edge orphaned by a member's departure or failure: the
/// dependent `child` was receiving `item` at tolerance `c` and must be
/// re-attached somewhere. `fallback_parent` is the departed member's own
/// per-item parent — always a legal re-attachment target by Eq. (1)
/// transitivity when it is itself still alive.
struct OrphanEdge {
  ItemId item = kInvalidItem;
  OverlayIndex child = kInvalidOverlayIndex;
  Coherency c = 0.0;
  OverlayIndex fallback_parent = kInvalidOverlayIndex;
};

/// One own-interest need of a departing member, captured so a later
/// recovery can re-attach it: the member wanted `item` at `c_own` and
/// was last served by `parent`.
struct MemberNeed {
  ItemId item = kInvalidItem;
  Coherency c_own = 0.0;
  OverlayIndex parent = kInvalidOverlayIndex;
};

/// Everything DetachMember captures about a failed/departing member:
/// the dependents left without a parent (ordered by item, then tree
/// order — deterministic) and the member's own needs at detach time.
struct MemberDetachment {
  std::vector<OrphanEdge> orphans;
  std::vector<MemberNeed> needs;
};

/// Summary shape metrics of the d3g (paper §6.3.1 reports diameter and
/// average depth of the repository layout).
struct OverlayShape {
  /// Max over items of (1 + max tree depth), counting the source; equals
  /// 101 for a 100-repo chain and 2 for direct source dissemination.
  uint32_t diameter = 0;
  /// Mean over (item, member) pairs of the member's depth in that item's
  /// tree (source = 0).
  double avg_depth = 0.0;
  /// Mean number of connection dependents per member that has any.
  double avg_dependents = 0.0;
  /// Max connection fan-out over all members.
  size_t max_dependents = 0;
};

/// The dynamic data dissemination graph (d3g): the union over items of
/// the per-item dissemination trees (d3t), plus the connection (push
/// channel) structure. A connection parent->child carries every item the
/// parent serves the child; it consumes exactly one of the parent's
/// cooperation slots regardless of how many items ride on it (paper §6.3.3).
class Overlay {
 public:
  /// `member_count` includes the source (member 0). `item_count` is the
  /// size of the item universe.
  Overlay(size_t member_count, size_t item_count);

  size_t member_count() const { return member_count_; }
  size_t item_count() const { return item_count_; }

  /// Marks a member's own interest in an item (used for fidelity
  /// accounting, by LeLA and by recovery restating a captured need).
  /// Also tightens c_serve to c if the member already holds the item.
  void SetOwnInterest(OverlayIndex m, ItemId item, Coherency c);

  /// Declares that `m` holds `item`, served at tolerance `c_serve` by
  /// `parent` (kInvalidOverlayIndex for the source itself).
  void SetServing(OverlayIndex m, ItemId item, Coherency c_serve,
                  OverlayIndex parent);

  /// Adds (or retargets) the per-item edge parent->child at tolerance c.
  /// Creates the connection parent->child if absent. Returns the edge's
  /// EdgeId — freshly minted, recycled from a removed edge, or the
  /// existing id when the edge was already present (tolerance updated).
  EdgeId AddItemEdge(OverlayIndex parent, OverlayIndex child, ItemId item,
                     Coherency c);

  /// Updates the tolerance of the existing per-item edge parent->child.
  /// No-op if the edge does not exist.
  void TightenItemEdge(OverlayIndex parent, OverlayIndex child, ItemId item,
                       Coherency c);

  /// True when `m` holds `item` (either own interest or serving others).
  bool Holds(OverlayIndex m, ItemId item) const;

  /// Serving record; Holds() must be true.
  const ItemServing& Serving(OverlayIndex m, ItemId item) const;

  /// Items held by `m`, ascending.
  std::vector<ItemId> ItemsHeldBy(OverlayIndex m) const;

  /// Connection children of `m` (insertion order, deduplicated).
  const std::vector<OverlayIndex>& ConnectionChildren(OverlayIndex m) const {
    return connection_children_[m];
  }
  /// Connection parents of `m`.
  const std::vector<OverlayIndex>& ConnectionParents(OverlayIndex m) const {
    return connection_parents_[m];
  }

  /// One past the largest EdgeId handed out so far. Dense per-edge state
  /// vectors are sized by this. Ids of removed or retargeted edges are
  /// recycled through a free list, so long-lived dynamic overlays keep
  /// their flat per-edge vectors bounded by the number of *live* edges;
  /// a policy that caches per-edge state across a structural mutation
  /// must be told about the recycled ids (Disseminator::OnEdgeCreated).
  EdgeId edge_id_limit() const { return next_edge_id_; }
  /// Item the edge with this id carries (valid for every id ever handed
  /// out; recycled ids report the item of their current incarnation).
  /// Lets policies seed per-edge state at Initialize without rescanning
  /// the overlay.
  ItemId edge_item(EdgeId id) const { return edge_items_[id]; }

  /// Dense tracker id of the (m, item) own-interest pair, assigned by
  /// SetOwnInterest; kInvalidTrackerId when the member never declared
  /// interest in the item. Survives DetachMember so a re-attached
  /// member keeps its identity.
  TrackerId tracker_id(OverlayIndex m, ItemId item) const {
    return tracker_ids_[SlotIndex(m, item)];
  }
  /// One past the largest TrackerId handed out so far.
  TrackerId tracker_id_limit() const { return next_tracker_id_; }

  /// Level assigned by LeLA (source = 0); kInvalidLevel before placement.
  static constexpr uint32_t kInvalidLevel = UINT32_MAX;
  uint32_t level(OverlayIndex m) const { return level_[m]; }
  void set_level(OverlayIndex m, uint32_t level) { level_[m] = level; }

  /// Crash-style removal (a *failed* node, paper §4's resilience
  /// discussion): dependents are NOT re-parented — they keep their
  /// holdings and subtrees but are left orphaned (per-item parent =
  /// kInvalidOverlayIndex) and returned, together with the member's own
  /// needs, so the caller's repair policy decides where (and when) each
  /// orphan re-attaches. The member loses every holding and connection
  /// and its level resets to kInvalidLevel; all of its edge ids are
  /// recycled. The overlay does not Validate while orphans exist (their
  /// item trees are not rooted); repair restores validity. Removing the
  /// source or an unknown member fails.
  [[nodiscard]] Result<MemberDetachment> DetachMember(OverlayIndex m);

  /// Coherency renegotiation: `m`'s own tolerance for `item` becomes
  /// `c`, finite and > 0 (m must hold the item with own interest).
  /// Tightening and loosening both recompute c_serve = min(c_own,
  /// dependents) at every hop up the serving chain and keep each parent
  /// edge's tolerance equal to its child's c_serve, so Eq. (1) holds
  /// throughout.
  [[nodiscard]] Status UpdateOwnCoherency(OverlayIndex m, ItemId item, Coherency c);

  /// Structural validation:
  ///  * every per-item parent/children record is mutually consistent;
  ///  * every item tree is rooted at the source and acyclic;
  ///  * Eq. (1) holds along every per-item edge (parent c_serve <= edge c);
  ///  * edge tolerance equals the child's c_serve for the item;
  ///  * c_serve <= c_own wherever the member has own interest;
  ///  * connection fan-out respects `max_degree` if nonzero;
  ///  * every edge carries a valid EdgeId below edge_id_limit(), unique
  ///    across the whole d3g.
  [[nodiscard]] Status Validate(size_t max_degree = 0) const;

  OverlayShape ComputeShape() const;

 private:
  size_t SlotIndex(OverlayIndex m, ItemId item) const {
    return static_cast<size_t>(m) * item_count_ + item;
  }
  ItemServing* FindSlot(OverlayIndex m, ItemId item);
  const ItemServing* FindSlot(OverlayIndex m, ItemId item) const;
  void EnsureConnection(OverlayIndex parent, OverlayIndex child);
  /// Mints a fresh EdgeId or recycles one from the free list, recording
  /// the item the id now carries.
  EdgeId MintEdgeId(ItemId item);
  /// Erases the per-item edge parent->child (which must exist) and
  /// recycles its id. Does not touch the child's serving record.
  void EraseEdgeRecord(OverlayIndex parent, OverlayIndex child, ItemId item);
  /// Recomputes c_serve(m, item) = min(c_own if own, dependents' edge
  /// tolerances) and, when it changed, updates the parent's edge
  /// tolerance and recurses upward. Stops at the source, at an orphan or
  /// at the first unchanged hop. Every hop it visits holds the item for
  /// an own need or a dependent, so the minimum is always finite.
  void PropagateServe(OverlayIndex m, ItemId item);

  size_t member_count_ = 0;
  size_t item_count_ = 0;
  /// Dense (member x item) matrix; `held` gates validity.
  std::vector<ItemServing> servings_;
  std::vector<uint8_t> held_;
  /// Dense (member x item) matrix of own-interest tracker ids.
  std::vector<TrackerId> tracker_ids_;
  /// EdgeId -> item, appended as ids are minted.
  std::vector<ItemId> edge_items_;
  std::vector<std::vector<OverlayIndex>> connection_children_;
  std::vector<std::vector<OverlayIndex>> connection_parents_;
  std::vector<uint32_t> level_;
  /// Retired edge ids awaiting reuse (LIFO).
  std::vector<EdgeId> edge_free_;
  EdgeId next_edge_id_ = 0;
  TrackerId next_tracker_id_ = 0;
};

}  // namespace d3t::core

#endif  // D3T_CORE_OVERLAY_H_
