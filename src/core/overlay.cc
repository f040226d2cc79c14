#include "core/overlay.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/stats.h"
#include "core/coherency.h"

namespace d3t::core {

Overlay::Overlay(size_t member_count, size_t item_count)
    : member_count_(member_count),
      item_count_(item_count),
      servings_(member_count * item_count),
      held_(member_count * item_count, 0),
      tracker_ids_(member_count * item_count, kInvalidTrackerId),
      connection_children_(member_count),
      connection_parents_(member_count),
      level_(member_count, kInvalidLevel) {
  if (member_count > 0) level_[kSourceOverlayIndex] = 0;
}

ItemServing* Overlay::FindSlot(OverlayIndex m, ItemId item) {
  const size_t idx = SlotIndex(m, item);
  return held_[idx] ? &servings_[idx] : nullptr;
}

const ItemServing* Overlay::FindSlot(OverlayIndex m, ItemId item) const {
  const size_t idx = SlotIndex(m, item);
  return held_[idx] ? &servings_[idx] : nullptr;
}

void Overlay::SetOwnInterest(OverlayIndex m, ItemId item, Coherency c) {
  const size_t idx = SlotIndex(m, item);
  ItemServing& s = servings_[idx];
  s.own_interest = true;
  s.c_own = c;
  if (tracker_ids_[idx] == kInvalidTrackerId) {
    tracker_ids_[idx] = next_tracker_id_++;
  }
  if (held_[idx]) {
    s.c_serve = std::min(s.c_serve, c);
  }
}

void Overlay::SetServing(OverlayIndex m, ItemId item, Coherency c_serve,
                         OverlayIndex parent) {
  const size_t idx = SlotIndex(m, item);
  ItemServing& s = servings_[idx];
  s.c_serve = c_serve;
  s.parent = parent;
  held_[idx] = 1;
}

void Overlay::EnsureConnection(OverlayIndex parent, OverlayIndex child) {
  auto& children = connection_children_[parent];
  if (std::find(children.begin(), children.end(), child) == children.end()) {
    children.push_back(child);
    connection_parents_[child].push_back(parent);
  }
}

EdgeId Overlay::MintEdgeId(ItemId item) {
  if (!edge_free_.empty()) {
    const EdgeId id = edge_free_.back();
    edge_free_.pop_back();
    edge_items_[id] = item;
    return id;
  }
  edge_items_.push_back(item);
  return next_edge_id_++;
}

void Overlay::EraseEdgeRecord(OverlayIndex parent, OverlayIndex child,
                              ItemId item) {
  ItemServing* ps = FindSlot(parent, item);
  if (ps == nullptr) return;
  for (auto it = ps->children.begin(); it != ps->children.end(); ++it) {
    if (it->child == child) {
      edge_free_.push_back(it->id);
      ps->children.erase(it);
      return;
    }
  }
}

void Overlay::PropagateServe(OverlayIndex m, ItemId item) {
  OverlayIndex cursor = m;
  size_t steps = 0;
  while (cursor != kSourceOverlayIndex) {
    ItemServing* s = FindSlot(cursor, item);
    if (s == nullptr) return;
    Coherency target = s->own_interest
                           ? s->c_own
                           : std::numeric_limits<Coherency>::infinity();
    for (const ItemEdge& e : s->children) target = std::min(target, e.c);
    assert(target != std::numeric_limits<Coherency>::infinity() &&
           "a holding with neither an own need nor a dependent");
    if (target == s->c_serve) return;
    s->c_serve = target;
    const OverlayIndex parent = s->parent;
    if (parent == kInvalidOverlayIndex) return;  // orphan: fixed at repair
    TightenItemEdge(parent, cursor, item, target);
    cursor = parent;
    if (++steps > member_count_) {
      assert(false && "cycle while propagating serve tolerance");
      return;
    }
  }
}

EdgeId Overlay::AddItemEdge(OverlayIndex parent, OverlayIndex child,
                            ItemId item, Coherency c) {
  assert(parent != child);
  EnsureConnection(parent, child);
  ItemServing* ps = FindSlot(parent, item);
  assert(ps != nullptr && "parent must hold the item before serving it");
  EdgeId id;
  auto it = std::find_if(ps->children.begin(), ps->children.end(),
                         [child](const ItemEdge& e) {
                           return e.child == child;
                         });
  if (it == ps->children.end()) {
    id = MintEdgeId(item);
    ps->children.push_back(ItemEdge{child, c, id});
  } else {
    it->c = c;
    id = it->id;
  }
  // Record / retarget the child's per-item parent.
  const size_t idx = SlotIndex(child, item);
  ItemServing& cs = servings_[idx];
  if (held_[idx] && cs.parent != kInvalidOverlayIndex &&
      cs.parent != parent) {
    // Retargeting: remove the edge from the old parent and recycle its
    // id (the new edge minted above already has its own id, so a
    // retarget always hands out a fresh incarnation).
    EraseEdgeRecord(cs.parent, child, item);
  }
  cs.parent = parent;
  if (!held_[idx]) {
    // The caller passes the tolerance the child is served at; for a
    // fresh holding this becomes the child's c_serve.
    cs.c_serve = c;
    held_[idx] = 1;
  }
  return id;
}

void Overlay::TightenItemEdge(OverlayIndex parent, OverlayIndex child,
                              ItemId item, Coherency c) {
  ItemServing* ps = FindSlot(parent, item);
  if (ps == nullptr) return;
  for (ItemEdge& e : ps->children) {
    if (e.child == child) {
      e.c = c;
      return;
    }
  }
}

std::vector<ItemId> Overlay::ItemsHeldBy(OverlayIndex m) const {
  std::vector<ItemId> out;
  for (ItemId item = 0; item < item_count_; ++item) {
    if (Holds(m, item)) out.push_back(item);
  }
  return out;
}

Result<MemberDetachment> Overlay::DetachMember(OverlayIndex m) {
  if (m >= member_count_) return Status::OutOfRange("unknown member");
  if (m == kSourceOverlayIndex) {
    return Status::InvalidArgument("cannot detach the source");
  }
  MemberDetachment out;
  for (ItemId item = 0; item < item_count_; ++item) {
    ItemServing* s = FindSlot(m, item);
    if (s == nullptr) continue;
    if (s->own_interest) {
      out.needs.push_back(MemberNeed{item, s->c_own, s->parent});
    }
    // Orphan every dependent: it keeps its holding, c_serve and its own
    // subtree, but loses its per-item parent until a repair re-attaches
    // it. The dead edge's id is recycled.
    for (const ItemEdge& e : s->children) {
      out.orphans.push_back(OrphanEdge{item, e.child, e.c, s->parent});
      servings_[SlotIndex(e.child, item)].parent = kInvalidOverlayIndex;
      edge_free_.push_back(e.id);
    }
    if (s->parent != kInvalidOverlayIndex) EraseEdgeRecord(s->parent, m, item);
    held_[SlotIndex(m, item)] = 0;
    *s = ItemServing{};
  }
  // Erase m from every connection list in both directions.
  for (OverlayIndex parent : connection_parents_[m]) {
    auto& siblings = connection_children_[parent];
    siblings.erase(std::remove(siblings.begin(), siblings.end(), m),
                   siblings.end());
  }
  for (OverlayIndex child : connection_children_[m]) {
    auto& up = connection_parents_[child];
    up.erase(std::remove(up.begin(), up.end(), m), up.end());
  }
  connection_parents_[m].clear();
  connection_children_[m].clear();
  level_[m] = kInvalidLevel;
  return out;
}

Status Overlay::UpdateOwnCoherency(OverlayIndex m, ItemId item,
                                   Coherency c) {
  if (m >= member_count_ || item >= item_count_) {
    return Status::OutOfRange("unknown member or item");
  }
  if (m == kSourceOverlayIndex) {
    return Status::InvalidArgument("the source's tolerance is fixed at 0");
  }
  if (!IsValidTolerance(c)) {
    return Status::InvalidArgument("tolerance must be finite and > 0");
  }
  ItemServing* s = FindSlot(m, item);
  if (s == nullptr || !s->own_interest) {
    return Status::FailedPrecondition(
        "member has no own interest in the item");
  }
  s->c_own = c;
  PropagateServe(m, item);
  return Status::Ok();
}

Status Overlay::Validate(size_t max_degree) const {
  for (OverlayIndex m = 0; m < member_count_; ++m) {
    if (max_degree > 0 && connection_children_[m].size() > max_degree) {
      return Status::FailedPrecondition(
          "member exceeds cooperation degree");
    }
    for (ItemId item = 0; item < item_count_; ++item) {
      const ItemServing* s = FindSlot(m, item);
      if (s == nullptr) continue;
      if (m == kSourceOverlayIndex) {
        if (s->parent != kInvalidOverlayIndex) {
          return Status::FailedPrecondition("source has a parent");
        }
        if (s->c_serve != 0.0) {
          return Status::FailedPrecondition("source c_serve must be 0");
        }
      } else {
        if (s->parent == kInvalidOverlayIndex) {
          return Status::FailedPrecondition(
              "non-source member holds item without a parent");
        }
        const ItemServing* ps = FindSlot(s->parent, item);
        if (ps == nullptr) {
          return Status::FailedPrecondition(
              "per-item parent does not hold the item");
        }
        // The parent's edge record for this child must exist, its
        // tolerance must equal the child's c_serve, and Eq. (1) must
        // hold between the endpoints.
        const auto it =
            std::find_if(ps->children.begin(), ps->children.end(),
                         [m](const ItemEdge& e) { return e.child == m; });
        if (it == ps->children.end()) {
          return Status::FailedPrecondition(
              "parent is missing the child edge");
        }
        if (it->c != s->c_serve) {
          return Status::FailedPrecondition(
              "edge tolerance does not match child's c_serve");
        }
        if (!SatisfiesEq1(ps->c_serve, it->c)) {
          return Status::FailedPrecondition("Eq.(1) violated along edge");
        }
      }
      if (s->own_interest && s->c_serve > s->c_own) {
        return Status::FailedPrecondition(
            "c_serve looser than own requirement");
      }
      for (const ItemEdge& e : s->children) {
        const auto& conn = connection_children_[m];
        if (std::find(conn.begin(), conn.end(), e.child) == conn.end()) {
          return Status::FailedPrecondition(
              "item edge without a connection");
        }
      }
    }
  }
  // Edge-id integrity: every edge carries a valid, globally unique id
  // below edge_id_limit() (dense policy state is indexed by these).
  std::vector<uint8_t> id_seen(next_edge_id_, 0);
  for (OverlayIndex m = 0; m < member_count_; ++m) {
    for (ItemId item = 0; item < item_count_; ++item) {
      const ItemServing* s = FindSlot(m, item);
      if (s == nullptr) continue;
      for (const ItemEdge& e : s->children) {
        if (e.id == kInvalidEdgeId || e.id >= next_edge_id_) {
          return Status::FailedPrecondition("edge id out of range");
        }
        if (id_seen[e.id]) {
          return Status::FailedPrecondition("duplicate edge id");
        }
        id_seen[e.id] = 1;
      }
    }
  }
  // Acyclicity / rootedness: walk each member's per-item parent chain.
  for (ItemId item = 0; item < item_count_; ++item) {
    for (OverlayIndex m = 0; m < member_count_; ++m) {
      if (!Holds(m, item)) continue;
      OverlayIndex cursor = m;
      size_t steps = 0;
      while (cursor != kSourceOverlayIndex) {
        const ItemServing* s = FindSlot(cursor, item);
        if (s == nullptr || s->parent == kInvalidOverlayIndex) {
          return Status::FailedPrecondition("item tree not rooted at source");
        }
        cursor = s->parent;
        if (++steps > member_count_) {
          return Status::FailedPrecondition("cycle in item tree");
        }
      }
    }
  }
  return Status::Ok();
}

OverlayShape Overlay::ComputeShape() const {
  OverlayShape shape;
  StreamingStats depths;
  StreamingStats dependents;
  for (OverlayIndex m = 0; m < member_count_; ++m) {
    if (!connection_children_[m].empty()) {
      dependents.Add(static_cast<double>(connection_children_[m].size()));
      shape.max_dependents =
          std::max(shape.max_dependents, connection_children_[m].size());
    }
  }
  uint32_t max_depth = 0;
  for (ItemId item = 0; item < item_count_; ++item) {
    for (OverlayIndex m = 1; m < member_count_; ++m) {
      if (!Holds(m, item)) continue;
      uint32_t depth = 0;
      OverlayIndex cursor = m;
      while (cursor != kSourceOverlayIndex) {
        const ItemServing* s = FindSlot(cursor, item);
        if (s == nullptr || s->parent == kInvalidOverlayIndex) break;
        cursor = s->parent;
        ++depth;
      }
      depths.Add(static_cast<double>(depth));
      max_depth = std::max(max_depth, depth);
    }
  }
  shape.diameter = max_depth + (member_count_ > 0 ? 1 : 0);
  shape.avg_depth = depths.mean();
  shape.avg_dependents = dependents.mean();
  return shape;
}

}  // namespace d3t::core
