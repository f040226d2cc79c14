#include "net/delay_model.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "common/thread_pool.h"

namespace d3t::net {

OverlayDelayModel::OverlayDelayModel(size_t count)
    : count_(count),
      delay_(count * count, 0),
      hops_(count * count, 0),
      physical_(count, kInvalidNode) {}

OverlayDelayModel::PackedDelay OverlayDelayModel::PackDelay(
    sim::SimTime delay) {
  assert(delay >= 0 && "pair delays are nonnegative");
  assert(delay <= std::numeric_limits<PackedDelay>::max() &&
         "pair delay overflows the compressed 32-bit store");
  if (delay < 0) return 0;
  if (delay > std::numeric_limits<PackedDelay>::max()) {
    return std::numeric_limits<PackedDelay>::max();
  }
  return static_cast<PackedDelay>(delay);
}

OverlayDelayModel::PackedHops OverlayDelayModel::PackHops(uint32_t hops) {
  assert(hops <= std::numeric_limits<PackedHops>::max() &&
         "pair hop count overflows the compressed 16-bit store");
  return static_cast<PackedHops>(
      std::min<uint32_t>(hops, std::numeric_limits<PackedHops>::max()));
}

namespace {

Status PairOutOfRange(NodeId from, NodeId to, sim::SimTime delay,
                      uint32_t hops) {
  return Status::OutOfRange(
      "path from node " + std::to_string(from) + " to node " +
      std::to_string(to) + " (" + std::to_string(delay) + " us, " +
      std::to_string(hops) +
      " hops) does not fit the delay model's 32-bit microsecond delays "
      "and 16-bit hop counts");
}

}  // namespace

Status OverlayDelayModel::StorePair(size_t index, NodeId from, NodeId to,
                                    sim::SimTime delay, uint32_t hops) {
  if (delay > std::numeric_limits<PackedDelay>::max() ||
      hops > std::numeric_limits<PackedHops>::max()) {
    return PairOutOfRange(from, to, delay, hops);
  }
  delay_[index] = static_cast<PackedDelay>(delay);
  hops_[index] = static_cast<PackedHops>(hops);
  return Status::Ok();
}

Result<OverlayDelayModel> OverlayDelayModel::FromRouting(
    const Topology& topo, const RoutingTables& routing) {
  const NodeId source = topo.SourceNode();
  if (source == kInvalidNode) {
    return Status::FailedPrecondition("topology must have exactly one source");
  }
  return FromRoutingWithSource(topo, routing, source);
}

Result<OverlayDelayModel> OverlayDelayModel::FromRoutingWithSource(
    const Topology& topo, const RoutingTables& routing, NodeId source) {
  if (source >= topo.node_count() ||
      topo.kind(source) != NodeKind::kSource) {
    return Status::InvalidArgument("node is not a source");
  }
  std::vector<NodeId> members;
  members.push_back(source);
  for (NodeId repo : topo.RepositoryNodes()) members.push_back(repo);

  OverlayDelayModel model(members.size());
  model.physical_ = members;
  for (OverlayIndex i = 0; i < members.size(); ++i) {
    if (!routing.HasRow(members[i])) {
      return Status::FailedPrecondition(
          "routing row missing for overlay member");
    }
    for (OverlayIndex j = 0; j < members.size(); ++j) {
      D3T_RETURN_IF_ERROR(model.StorePair(
          model.Idx(i, j), members[i], members[j],
          routing.Delay(members[i], members[j]),
          routing.Hops(members[i], members[j])));
    }
  }
  return model;
}

Result<std::vector<OverlayDelayModel>>
OverlayDelayModel::FromTopologyAllSources(const Topology& topo,
                                          size_t worker_threads) {
  const std::vector<NodeId> sources = topo.SourceNodes();
  if (sources.empty()) {
    return Status::FailedPrecondition("topology has no source node");
  }
  if (!topo.IsConnected()) {
    return Status::FailedPrecondition("topology is disconnected");
  }
  const std::vector<NodeId> repos = topo.RepositoryNodes();
  const size_t member_count = repos.size() + 1;

  // Every row is searched on the member core; members are its nodes
  // core_sources[s] and core_repos[r].
  const MemberCore core(topo);
  std::vector<NodeId> core_sources;
  std::vector<NodeId> core_repos;
  for (NodeId source : sources) {
    core_sources.push_back(core.CoreIndex(source));
  }
  for (NodeId repo : repos) core_repos.push_back(core.CoreIndex(repo));

  std::vector<OverlayDelayModel> models;
  models.reserve(sources.size());
  for (NodeId source : sources) {
    OverlayDelayModel model(member_count);
    model.physical_[0] = source;
    for (size_t r = 0; r < repos.size(); ++r) {
      model.physical_[r + 1] = repos[r];
    }
    models.push_back(std::move(model));
  }

  // One row task per distinct member node: a source fills row 0 of its
  // own model; a repository fills row r+1 of every model. Tasks write
  // disjoint rows, so fanning them out over the pool is deterministic
  // whichever worker claims which row.
  struct RowTask {
    NodeId node;
    /// Source index owning the row, or SIZE_MAX for a repository row.
    size_t source_index;
    /// Member row the task fills (0 for sources, r+1 for repositories).
    OverlayIndex member_row;
  };
  std::vector<RowTask> tasks;
  tasks.reserve(sources.size() + repos.size());
  for (size_t s = 0; s < sources.size(); ++s) {
    tasks.push_back({sources[s], s, 0});
  }
  for (size_t r = 0; r < repos.size(); ++r) {
    tasks.push_back({repos[r], SIZE_MAX, static_cast<OverlayIndex>(r + 1)});
  }

  /// A worker's search storage, reused by every row it routes.
  struct Scratch {
    std::vector<sim::SimTime> delay;
    std::vector<uint32_t> hops;
    RadixFrontier frontier;
  };
  auto run_task = [&](const RowTask& task, Scratch& scratch) -> Status {
    core.ShortestPathsFrom(core.CoreIndex(task.node), scratch.delay,
                           scratch.hops, scratch.frontier);
    const size_t first = task.source_index == SIZE_MAX ? 0 : task.source_index;
    const size_t last =
        task.source_index == SIZE_MAX ? models.size() : task.source_index + 1;
    for (size_t s = first; s < last; ++s) {
      OverlayDelayModel& model = models[s];
      const size_t base = model.Idx(task.member_row, 0);
      D3T_RETURN_IF_ERROR(model.StorePair(
          base, task.node, sources[s], scratch.delay[core_sources[s]],
          scratch.hops[core_sources[s]]));
      for (size_t r = 0; r < repos.size(); ++r) {
        D3T_RETURN_IF_ERROR(model.StorePair(
            base + r + 1, task.node, repos[r], scratch.delay[core_repos[r]],
            scratch.hops[core_repos[r]]));
      }
    }
    return Status::Ok();
  };

  if (worker_threads <= 1 || tasks.size() <= 1) {
    Scratch scratch;
    for (const RowTask& task : tasks) {
      D3T_RETURN_IF_ERROR(run_task(task, scratch));
    }
    return models;
  }

  // Workers claim rows from a shared cursor, so a slow worker routes
  // fewer rows instead of holding up a fixed share. Per-row statuses
  // keep the first (lowest-row) error deterministic.
  std::vector<Status> statuses(tasks.size(), Status::Ok());
  std::atomic<size_t> next_task{0};
  ThreadPool pool(std::min(worker_threads, tasks.size()));
  for (size_t worker = 0; worker < pool.thread_count(); ++worker) {
    pool.Submit([&] {
      Scratch scratch;
      for (size_t i = next_task.fetch_add(1, std::memory_order_relaxed);
           i < tasks.size();
           i = next_task.fetch_add(1, std::memory_order_relaxed)) {
        statuses[i] = run_task(tasks[i], scratch);
      }
    });
  }
  pool.Wait();
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return models;
}

OverlayDelayModel OverlayDelayModel::Uniform(size_t member_count,
                                             sim::SimTime delay,
                                             uint32_t hops) {
  OverlayDelayModel model(member_count);
  const PackedDelay packed_delay = PackDelay(delay);
  const PackedHops packed_hops = PackHops(hops);
  for (OverlayIndex i = 0; i < member_count; ++i) {
    for (OverlayIndex j = 0; j < member_count; ++j) {
      if (i == j) continue;
      model.delay_[model.Idx(i, j)] = packed_delay;
      model.hops_[model.Idx(i, j)] = packed_hops;
    }
  }
  return model;
}

OverlayDelayModel::PairStats OverlayDelayModel::ComputePairStats() const {
  // The delay and hop chains are independent, so interleaving them lets
  // one's divide overlap the other's; each still adds its pairs in
  // row-major order, so every bit matches two separate passes.
  StreamingStats delays;
  StreamingStats hops;
  for (OverlayIndex i = 0; i < count_; ++i) {
    for (OverlayIndex j = 0; j < count_; ++j) {
      if (i == j) continue;
      delays.Add(static_cast<double>(delay_[Idx(i, j)]));
      hops.Add(static_cast<double>(hops_[Idx(i, j)]));
    }
  }
  return PairStats{delays, hops.mean()};
}

Result<OverlayDelayModel> OverlayDelayModel::ScaledToMeanDelay(
    sim::SimTime target_mean) const {
  constexpr PackedDelay kMaxPacked = std::numeric_limits<PackedDelay>::max();
  auto out_of_range = [target_mean] {
    return Status::OutOfRange(
        "scaling to a mean pair delay of " + std::to_string(target_mean) +
        " us puts a pair delay past the delay model's 32-bit microsecond "
        "store");
  };
  OverlayDelayModel out = *this;
  const double current = PairDelayStats().mean();
  if (current <= 0.0 || target_mean <= 0) {
    for (auto& d : out.delay_) d = 0;
    if (target_mean <= 0) return out;
    // Degenerate input model: fall back to a uniform target delay.
    if (target_mean > kMaxPacked) return out_of_range();
    const PackedDelay packed = PackDelay(target_mean);
    for (OverlayIndex i = 0; i < count_; ++i) {
      for (OverlayIndex j = 0; j < count_; ++j) {
        if (i != j) out.delay_[Idx(i, j)] = packed;
      }
    }
    return out;
  }
  const double factor = static_cast<double>(target_mean) / current;
  for (auto& d : out.delay_) {
    const double scaled = std::round(static_cast<double>(d) * factor);
    if (scaled > kMaxPacked) return out_of_range();
    d = static_cast<PackedDelay>(scaled);
  }
  return out;
}

}  // namespace d3t::net
