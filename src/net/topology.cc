#include "net/topology.h"

#include <vector>

namespace d3t::net {

Topology::Topology(size_t node_count)
    : kinds_(node_count, NodeKind::kRouter), adjacency_(node_count) {}

void Topology::set_kind(NodeId n, NodeKind kind) { kinds_[n] = kind; }

Status Topology::AddLink(NodeId a, NodeId b, sim::SimTime delay) {
  if (a >= node_count() || b >= node_count()) {
    return Status::OutOfRange("link endpoint out of range");
  }
  if (a == b) return Status::InvalidArgument("self-loop link");
  if (delay < 0) return Status::InvalidArgument("negative link delay");
  if (delay >= kPathDelayLimit - total_delay_) {
    return Status::OutOfRange(
        "link delays would sum past the path-delay limit");
  }
  total_delay_ += delay;
  links_.push_back(Link{a, b, delay});
  adjacency_[a].emplace_back(b, delay);
  adjacency_[b].emplace_back(a, delay);
  return Status::Ok();
}

std::vector<NodeId> Topology::RepositoryNodes() const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < kinds_.size(); ++n) {
    if (kinds_[n] == NodeKind::kRepository) out.push_back(n);
  }
  return out;
}

std::vector<NodeId> Topology::SourceNodes() const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < kinds_.size(); ++n) {
    if (kinds_[n] == NodeKind::kSource) out.push_back(n);
  }
  return out;
}

NodeId Topology::SourceNode() const {
  NodeId source = kInvalidNode;
  for (NodeId n = 0; n < kinds_.size(); ++n) {
    if (kinds_[n] == NodeKind::kSource) {
      if (source != kInvalidNode) return kInvalidNode;
      source = n;
    }
  }
  return source;
}

bool Topology::IsConnected() const {
  if (node_count() == 0) return true;
  std::vector<bool> seen(node_count(), false);
  std::vector<NodeId> stack = {0};
  seen[0] = true;
  size_t reached = 1;
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    for (const auto& [peer, delay] : adjacency_[n]) {
      (void)delay;
      if (!seen[peer]) {
        seen[peer] = true;
        ++reached;
        stack.push_back(peer);
      }
    }
  }
  return reached == node_count();
}

}  // namespace d3t::net
