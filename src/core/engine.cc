#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <map>
#include <numeric>

#include "core/coherency.h"

namespace d3t::core {

namespace {

// Whoever adds a field to EngineMetrics must publish it below as well,
// or it silently drops out of the cross-process identity check (a
// cluster node's results reach the collector only through this list).
static_assert(sizeof(EngineMetrics) ==
                  20 * sizeof(uint64_t) + sizeof(std::vector<double>),
              "EngineMetrics changed: publish the new field in "
              "PublishEngineMetrics");

/// Every EngineMetrics field under "engine.*", in declaration order.
/// Doubles are gauges (compared as raw bits), integers counters (SimTime
/// values keep their bits through the unsigned cast), and the per-member
/// vector a length plus an FNV-1a digest of its bytes.
void PublishEngineMetrics(const EngineMetrics& m, obs::Registry& reg) {
  reg.Set(reg.Gauge("engine.loss_percent"), m.loss_percent);
  reg.Set(reg.Gauge("engine.pair_loss_percent"), m.pair_loss_percent);
  reg.Add(reg.Counter("engine.tracked_pairs"), m.tracked_pairs);
  reg.Add(reg.Counter("engine.per_member_loss_len"),
          m.per_member_loss.size());
  reg.Add(reg.Counter("engine.per_member_loss_digest"),
          obs::HashBytes(m.per_member_loss.data(),
                         m.per_member_loss.size() * sizeof(double)));
  reg.Add(reg.Counter("engine.messages"), m.messages);
  reg.Add(reg.Counter("engine.source_messages"), m.source_messages);
  reg.Add(reg.Counter("engine.checks"), m.checks);
  reg.Add(reg.Counter("engine.source_checks"), m.source_checks);
  reg.Add(reg.Counter("engine.source_updates"), m.source_updates);
  reg.Add(reg.Counter("engine.events"), m.events);
  reg.Add(reg.Counter("engine.delivery_batches"), m.delivery_batches);
  reg.Add(reg.Counter("engine.coalesced_messages"), m.coalesced_messages);
  reg.Add(reg.Counter("engine.process_wakeups"), m.process_wakeups);
  reg.Add(reg.Counter("engine.scenario_ops"), m.scenario_ops);
  reg.Add(reg.Counter("engine.repairs"), m.repairs);
  reg.Add(reg.Counter("engine.orphaned_ticks"), m.orphaned_ticks);
  reg.Add(reg.Counter("engine.dropped_jobs"), m.dropped_jobs);
  reg.Add(reg.Counter("engine.outage_pair_time"),
          static_cast<uint64_t>(m.outage_pair_time));
  reg.Add(reg.Counter("engine.outage_out_of_sync_time"),
          static_cast<uint64_t>(m.outage_out_of_sync_time));
  reg.Set(reg.Gauge("engine.outage_loss_percent"), m.outage_loss_percent);
  reg.Add(reg.Counter("engine.horizon"), static_cast<uint64_t>(m.horizon));
}

}  // namespace

Engine::Engine(Overlay& overlay, const net::OverlayDelayModel& delays,
               const std::vector<trace::Trace>& traces,
               Disseminator& disseminator, const EngineOptions& options,
               const ChangeTimelines* change_timelines,
               const Scenario* scenario)
    : overlay_(overlay),
      delays_(delays),
      traces_(traces),
      disseminator_(disseminator),
      options_(options),
      change_timelines_(change_timelines),
      scenario_(scenario) {
  // Pre-reserve the run pools from overlay degree stats so the first run
  // does not pay reallocation churn: a node's steady-state backlog is
  // bounded by its incoming per-item edges (one in-flight update per
  // edge in the common regime), and the delivery-batch pool grows to the
  // maximum number of concurrently in-flight deliveries, itself bounded
  // by the total edge count.
  nodes_.resize(overlay_.member_count());
  std::vector<uint32_t> in_edges(overlay_.member_count(), 0);
  size_t total_edges = 0;
  for (OverlayIndex m = 0; m < overlay_.member_count(); ++m) {
    for (ItemId item = 0; item < overlay_.item_count(); ++item) {
      if (!overlay_.Holds(m, item)) continue;
      for (const ItemEdge& edge : overlay_.Serving(m, item).children) {
        ++in_edges[edge.child];
        ++total_edges;
      }
    }
  }
  for (OverlayIndex m = 0; m < overlay_.member_count(); ++m) {
    nodes_[m].queue.reserve(std::max<size_t>(4, in_edges[m]));
  }
  const size_t batch_estimate =
      std::min<size_t>(total_edges + 1, size_t{4096});
  batches_.reserve(batch_estimate);
  batch_free_.reserve(batch_estimate);
}

Result<EngineMetrics> Engine::Run() {
  if (traces_.size() != overlay_.item_count()) {
    return Status::InvalidArgument(
        "trace count must match overlay item count");
  }
  if (overlay_.member_count() != delays_.member_count()) {
    return Status::InvalidArgument(
        "overlay and delay model member counts differ");
  }
  if (options_.comp_delay < 0) {
    return Status::InvalidArgument("negative computational delay");
  }
  if (options_.wire_transport != nullptr &&
      options_.wire_transport->peer_count() < overlay_.member_count()) {
    return Status::InvalidArgument(
        "wire transport must address every overlay member");
  }
  // One job costs comp_delay per child plus its policy checks; bound
  // that busy period like the trace times below, so that no event
  // time can overflow.
  if (!(static_cast<double>(overlay_.member_count()) *
            static_cast<double>(options_.comp_delay) *
            (1.0 + std::max(0.0, options_.tag_check_cost_factor)) <
        static_cast<double>(sim::kSimTimeMax / 4))) {
    return Status::InvalidArgument(
        "comp_delay: member count x comp_delay x (1 + "
        "tag_check_cost_factor) must stay below kSimTimeMax / 4 us");
  }
  // A failure at or before the horizon defers its repair by
  // repair_delay; bound it the same way.
  if (options_.repair_delay < 0 ||
      options_.repair_delay >= sim::kSimTimeMax / 4) {
    return Status::InvalidArgument(
        "repair_delay must be in [0, kSimTimeMax / 4) us");
  }
  const Result<sim::SimTime> horizon_or = TraceHorizon(traces_);
  if (!horizon_or.ok()) return horizon_or.status();
  const sim::SimTime horizon = *horizon_or;
  std::vector<double> initial_values(traces_.size());
  for (size_t i = 0; i < traces_.size(); ++i) {
    initial_values[i] = traces_[i].ticks().front().value;
  }

  // Per-item change timelines for the lazy trackers: the shared cache
  // when one was supplied (a World-cached copy lets sweeps skip this
  // trace pass entirely), otherwise built here.
  Result<const ChangeTimelines*> resolved =
      ResolveChangeTimelines(change_timelines_, traces_, owned_timelines_);
  if (!resolved.ok()) return resolved.status();
  const ChangeTimelines* timelines = *resolved;

  if (scenario_ != nullptr && !scenario_->empty()) {
    D3T_RETURN_IF_ERROR(scenario_->ValidateAgainst(overlay_.member_count(),
                                                   overlay_.item_count()));
  }

  disseminator_.Initialize(overlay_, initial_values);
  for (NodeState& state : nodes_) {
    state.queue.clear();
    state.next = 0;
    state.busy_until = 0;
    state.processing_scheduled = false;
    state.open_batch = kNoBatch;
  }
  batches_.clear();
  batch_free_.clear();
  source_values_ = initial_values;
  metrics_ = EngineMetrics{};
  metrics_.horizon = horizon;
  simulator_ = sim::Simulator{};
  simulator_.set_handler(this);
  // Observability is attach-only: the recorder stamps logical points at
  // sim time and the registry receives final metrics after aggregation,
  // so neither can perturb EngineMetrics or the event order.
  span_jobs_hist_ = options_.registry != nullptr
                        ? options_.registry->Histogram("engine.span_jobs")
                        : obs::kInvalidMetricId;

  // Fidelity trackers for every (repository, own-interest item) pair,
  // indexed by the overlay-assigned dense TrackerId. Each is bound to
  // its item's change timeline and integrates the source process lazily.
  trackers_.assign(overlay_.tracker_id_limit(), FidelityTracker{});
  tracker_active_.assign(overlay_.tracker_id_limit(), 0);
  for (OverlayIndex m = 1; m < overlay_.member_count(); ++m) {
    for (ItemId item = 0; item < overlay_.item_count(); ++item) {
      if (!overlay_.Holds(m, item)) continue;
      const ItemServing& s = overlay_.Serving(m, item);
      if (!s.own_interest) continue;
      const TrackerId tid = overlay_.tracker_id(m, item);
      assert(tid != kInvalidTrackerId);
      trackers_[tid] = FidelityTracker(s.c_own, &(*timelines)[item]);
      tracker_active_[tid] = 1;
    }
  }
  // Every run ends with the log replayed, so it starts empty.
  tracked_values_.reserve(kTrackedValueLogCapacity);

  // Scenario runtime state. The liveness bitmap is always allocated (a
  // single byte test on the delivery path); everything else stays empty
  // without a scenario.
  failed_.assign(overlay_.member_count(), 0);
  fail_time_.assign(overlay_.member_count(), 0);
  captured_needs_.assign(overlay_.member_count(), {});
  outage_snap_.assign(overlay_.member_count(), {});
  fail_op_.assign(overlay_.member_count(), kNoFailOp);
  orphaned_pairs_ = 0;
  scenario_status_ = Status::Ok();
  wire_status_ = Status::Ok();
  scenario_pending_times_ = {};
  if (scenario_ != nullptr && !scenario_->empty()) {
    pending_orphans_.assign(scenario_->size(), {});
    for (size_t i = 0; i < scenario_->size(); ++i) {
      const ScenarioOp& op = scenario_->op(i);
      // Ops beyond the horizon can never fire; silently out of window.
      if (op.at > horizon) continue;
      simulator_.ScheduleAt(op.at,
                            sim::Event::Scenario(static_cast<uint32_t>(i)));
      scenario_pending_times_.push(op.at);
    }
  } else {
    pending_orphans_.clear();
  }

  // Per-trace tick chains (tick 0 is the synchronized initial value).
  for (ItemId item = 0; item < traces_.size(); ++item) {
    if (traces_[item].size() < 2) continue;
    const sim::SimTime first = traces_[item].ticks()[1].time;
    simulator_.ScheduleAt(first, sim::Event::SourceTick(item, 1));
  }

  simulator_.RunUntil(horizon);
  // Lazy trackers catch up with the tail of the trace timeline at the
  // horizon; the hook fires after every ordinary horizon event.
  simulator_.ScheduleAt(horizon, sim::Event::FinalizeHook());
  simulator_.RunUntil(horizon);
  if (!scenario_status_.ok()) return scenario_status_;
  if (!wire_status_.ok()) return wire_status_;
  if (metrics_.outage_pair_time > 0) {
    metrics_.outage_loss_percent =
        100.0 * static_cast<double>(metrics_.outage_out_of_sync_time) /
        static_cast<double>(metrics_.outage_pair_time);
  }

  std::vector<double> loss_sums(overlay_.member_count(), 0.0);
  std::vector<size_t> pair_counts(overlay_.member_count(), 0);
  for (OverlayIndex m = 1; m < overlay_.member_count(); ++m) {
    for (ItemId item = 0; item < overlay_.item_count(); ++item) {
      const TrackerId tid = overlay_.tracker_id(m, item);
      if (tid == kInvalidTrackerId || !tracker_active_[tid]) continue;
      loss_sums[m] += trackers_[tid].LossPercent();
      ++pair_counts[m];
    }
  }
  metrics_.loss_percent =
      AggregateLoss(loss_sums, pair_counts, metrics_.per_member_loss);
  // Pair loss weighs every tracked pair alike: all sums over all pairs.
  const double pair_loss_sum =
      std::accumulate(loss_sums.begin(), loss_sums.end(), 0.0);
  metrics_.tracked_pairs =
      std::accumulate(pair_counts.begin(), pair_counts.end(), uint64_t{0});
  metrics_.pair_loss_percent =
      metrics_.tracked_pairs == 0
          ? 0.0
          : pair_loss_sum / static_cast<double>(metrics_.tracked_pairs);
  if (options_.registry != nullptr) {
    PublishEngineMetrics(metrics_, *options_.registry);
  }
  return metrics_;
}

// d3t-lint: hot
void Engine::HandleEvent(sim::SimTime t, const sim::Event& event) {
  // The recorder's clock is the simulation clock: everything recorded
  // while this event runs stamps at its logical time, never wall time.
  if (options_.recorder != nullptr) options_.recorder->set_now(t);
  // metrics_.events counts *logical* events: one per source tick, per
  // delivered message and per processing step, regardless of how the
  // physical events batch (the FinalizeHook is bookkeeping, not load).
  switch (event.kind) {
    case sim::EventKind::kSourceTick:
      ++metrics_.events;
      HandleSourceTick(t, static_cast<ItemId>(event.a),
                       static_cast<uint32_t>(event.b));
      break;
    case sim::EventKind::kDelivery:
      HandleDeliveryBatch(t, static_cast<uint32_t>(event.b));
      break;
    case sim::EventKind::kNodeProcess:
      ++metrics_.process_wakeups;
      ProcessWakeup(t, static_cast<OverlayIndex>(event.a));
      break;
    case sim::EventKind::kScenario:
      // Control, not load: scenario ops never count into `events`, so
      // an empty scenario is byte-identical to no scenario at all.
      HandleScenario(t, event.a, event.b);
      break;
    case sim::EventKind::kFinalizeHook:
      FinalizeTrackers(t);
      break;
    default:
      assert(false && "unexpected event kind reached the engine");
      break;
  }
}

void Engine::ScheduleDelivery(sim::SimTime when, OverlayIndex node,
                              const Job& job) {
  NodeState& state = nodes_[node];
  if (options_.coalesce_deliveries && state.open_batch != kNoBatch) {
    DeliveryBatch& open = batches_[state.open_batch];
    if (open.arrival == when) {
      open.rest.push_back(job);
      ++metrics_.coalesced_messages;
      return;
    }
  }
  uint32_t slot;
  if (!batch_free_.empty()) {
    slot = batch_free_.back();
    batch_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(batches_.size());
    batches_.emplace_back();
  }
  DeliveryBatch& batch = batches_[slot];
  batch.node = node;
  batch.arrival = when;
  batch.first = job;
  state.open_batch = slot;
  simulator_.ScheduleAt(when, sim::Event::Delivery(node, slot));
}

void Engine::HandleDeliveryBatch(sim::SimTime t, uint32_t slot) {
  DeliveryBatch& batch = batches_[slot];
  const OverlayIndex node = batch.node;
  // The batch is closed for coalescing the moment it fires.
  if (nodes_[node].open_batch == slot) nodes_[node].open_batch = kNoBatch;
  ++metrics_.delivery_batches;
  metrics_.events += 1 + batch.rest.size();
  // Messages hitting a failed repository are lost (the logical delivery
  // happened — the host just was not there to take it).
  if (failed_[node]) {
    metrics_.dropped_jobs += 1 + batch.rest.size();
    batch.rest.clear();
    batch_free_.push_back(slot);
    return;
  }
  // Deliver only enqueues jobs and schedules NodeProcess events, so the
  // batch pool cannot be touched (and `batch` cannot dangle) mid-loop.
  Deliver(t, node, batch.first);
  if (!batch.rest.empty()) {
    for (const Job& job : batch.rest) Deliver(t, node, job);
    batch.rest.clear();
  }
  batch_free_.push_back(slot);
}

void Engine::HandleSourceTick(sim::SimTime t, ItemId item,
                              uint32_t tick_index) {
  const trace::Tick& tick = traces_[item].ticks()[tick_index];
  assert(tick.time == t);
  if (orphaned_pairs_ > 0) ++metrics_.orphaned_ticks;
  // A poll that repeats the previous value is not an update: nothing
  // changed at the source, so nothing is checked or disseminated. The
  // true source value changes now independent of dissemination backlog,
  // but no tracker is told — each integrates the trace timeline lazily.
  if (tick.value != source_values_[item]) {
    source_values_[item] = tick.value;
    ++metrics_.source_updates;
    if (options_.recorder != nullptr) {
      options_.recorder->RecordAt(t, obs::TraceEventKind::kSourceTick, item,
                                  obs::DoubleBits(tick.value));
    }
    Deliver(t, kSourceOverlayIndex, Job{item, tick.value, 0.0});
  }

  if (tick_index + 1 < traces_[item].size()) {
    const sim::SimTime next = traces_[item].ticks()[tick_index + 1].time;
    simulator_.ScheduleAt(next, sim::Event::SourceTick(item, tick_index + 1));
  }
}

void Engine::Deliver(sim::SimTime t, OverlayIndex node, const Job& job) {
  // One record per logical delivery, stamped at its arrival time — the
  // same set of (t, node, job) triples whether or not deliveries were
  // coalesced into batches on the way here.
  if (options_.recorder != nullptr) {
    options_.recorder->RecordAt(t, obs::TraceEventKind::kDelivery, node,
                                job.item, obs::DoubleBits(job.value));
  }
  NodeState& state = nodes_[node];
  state.queue.push_back(job);
  if (!state.processing_scheduled) {
    state.processing_scheduled = true;
    const sim::SimTime start = std::max(t, state.busy_until);
    simulator_.ScheduleAt(start, sim::Event::NodeProcess(node));
  }
}

// d3t-lint: hot
void Engine::ProcessWakeup(sim::SimTime t, OverlayIndex node) {
  NodeState& state = nodes_[node];
  // A failure can empty the backlog between scheduling and firing;
  // scenario-free runs never take this branch.
  if (state.pending() == 0 || failed_[node]) {
    state.processing_scheduled = false;
    return;
  }
  // The span is the backlog snapshot at wake time. Draining it here is
  // exactly the per-job event chain collapsed into one pass: job k of
  // the span starts when job k-1's busy period ends — the very time its
  // own NodeProcess event would have fired — and nothing a job does can
  // append to its own node's queue (pushes go to children, never self),
  // so the snapshot cannot grow mid-pass. The one thing that CAN change
  // mid-span is the world itself: a pending scenario op firing inside
  // the span would, under per-job processing, run before the later
  // jobs' events. Capping the drain at the earliest pending scenario
  // time keeps the two processing modes byte-identical under dynamics
  // — the remaining jobs get their own wakeup after the op. The run
  // horizon caps it the same way: per-job processing never starts a
  // job after the horizon, because that job's own event lies beyond
  // RunUntil(horizon).
  const sim::SimTime barrier =
      scenario_pending_times_.empty()
          ? metrics_.horizon + 1
          : std::min(metrics_.horizon + 1, scenario_pending_times_.top());
  size_t span = options_.drain_process_spans ? state.pending() : 1;
  sim::SimTime busy = t;
  uint64_t drained = 0;
  while (span-- > 0) {
    const Job job = state.queue[state.next++];
    ++metrics_.events;
    ++drained;
    busy = ProcessOneJob(busy, node, job);
    // The next job would start after the world mutates or the run ends.
    if (busy >= barrier) break;
  }
  if (span_jobs_hist_ != obs::kInvalidMetricId) {
    options_.registry->Observe(span_jobs_hist_, drained);
  }
  if (state.next == state.queue.size()) {
    state.queue.clear();
    state.next = 0;
  } else if (state.next > 64 && state.next * 2 > state.queue.size()) {
    // Per-job mode can leave a long consumed prefix on a continuously
    // backlogged node; compact it so memory tracks the live backlog,
    // not every job ever delivered (drain mode always empties above).
    state.queue.erase(state.queue.begin(),
                      state.queue.begin() +
                          static_cast<std::ptrdiff_t>(state.next));
    state.next = 0;
  }
  state.busy_until = busy;
  if (state.pending() > 0) {
    simulator_.ScheduleAt(busy, sim::Event::NodeProcess(node));
  } else {
    state.processing_scheduled = false;
  }
}

sim::SimTime Engine::ProcessOneJob(sim::SimTime start, OverlayIndex node,
                                   const Job& job) {
  // Stamped at the job's own start, not the wakeup's fire time, so the
  // record is identical whether the span was drained or stepped per-job.
  if (options_.recorder != nullptr) {
    options_.recorder->RecordAt(start, obs::TraceEventKind::kJobProcessed,
                                node, job.item, obs::DoubleBits(job.value));
  }
  // Apply the value locally (refreshes this repository's copy); its
  // tracker hears of it when the log is next replayed.
  if (node != kSourceOverlayIndex) {
    const TrackerId tid = overlay_.tracker_id(node, job.item);
    if (tid != kInvalidTrackerId && tracker_active_[tid]) {
      tracked_values_.push_back(TrackedValue{tid, start, job.value});
      if (tracked_values_.size() == kTrackedValueLogCapacity) {
        FlushTrackedValues();
      }
    }
  }

  sim::SimTime busy = start;
  const BeginDecision decision =
      disseminator_.BeginUpdate(start, node, job.item, job.value, job.tag);
  if (decision.extra_checks > 0) {
    metrics_.checks += decision.extra_checks;
    if (node == kSourceOverlayIndex) {
      metrics_.source_checks += decision.extra_checks;
    }
    if (options_.tag_check_cost_factor > 0.0) {
      busy += static_cast<sim::SimTime>(
          std::llround(options_.tag_check_cost_factor *
                       static_cast<double>(options_.comp_delay) *
                       static_cast<double>(decision.extra_checks)));
    }
  }

  if (!decision.drop && overlay_.Holds(node, job.item)) {
    const ItemServing& serving = overlay_.Serving(node, job.item);
    for (const ItemEdge& edge : serving.children) {
      busy += options_.comp_delay;
      ++metrics_.checks;
      if (node == kSourceOverlayIndex) ++metrics_.source_checks;
      if (disseminator_.ShouldPush(busy, node, job.item, edge, job.value,
                                   decision.tag)) {
        ++metrics_.messages;
        if (node == kSourceOverlayIndex) ++metrics_.source_messages;
        const sim::SimTime arrival = busy + delays_.Delay(node, edge.child);
        if (options_.wire_transport == nullptr) {
          ScheduleDelivery(arrival, edge.child,
                           Job{job.item, job.value, decision.tag});
        } else {
          // Frame records made inside the transport stamp at the send's
          // logical busy time — a per-job point identical across the
          // drain/per-job processing modes.
          if (options_.recorder != nullptr) {
            options_.recorder->set_now(busy);
          }
          SendFramedUpdate(node, edge.child, arrival,
                           Job{job.item, job.value, decision.tag});
        }
      }
    }
  }
  return busy;
}

// d3t-lint: hot
void Engine::SendFramedUpdate(OverlayIndex from, OverlayIndex to,
                              sim::SimTime arrival, const Job& job) {
  if (!wire_status_.ok()) return;  // first failure wins; push path inert
  net::Transport& transport = *options_.wire_transport;
  const net::wire::Frame frame =
      net::wire::Frame::Update(from, to, arrival, job.item, job.value,
                               job.tag);
  Status sent = transport.Send(from, to, frame);
  if (sent.IsCapacityExhausted()) {
    // Backpressure: the destination ring is full of frames we have not
    // yet turned into events. Drain it (a counted stall, no growth)
    // and retry once — after a drain the ring cannot still be full.
    DrainWireFrames(to);
    sent = transport.Send(from, to, frame);
  }
  if (!sent.ok()) {
    wire_status_ = sent;
    return;
  }
  // Drain immediately so the delivery lands on the event queue at this
  // exact call point: the queue breaks time ties by insertion sequence,
  // and deferring the drain would reorder same-instant deliveries
  // relative to the direct path.
  DrainWireFrames(to);
}

// d3t-lint: hot
void Engine::DrainWireFrames(OverlayIndex to) {
  net::Transport& transport = *options_.wire_transport;
  net::wire::Frame frame;
  net::PeerId from = net::kInvalidPeerId;
  // The first malformed frame poisons the run; later frames stay queued.
  while (wire_status_.ok() && transport.Poll(to, &frame, &from)) {
    if (frame.type != net::wire::FrameType::kUpdate) {
      wire_status_ = Status::Internal("unexpected frame type on data ring");
      continue;
    }
    const net::wire::UpdatePayload& p = frame.u.update;
    if (p.dst != to || p.src != from || p.item >= overlay_.item_count() ||
        p.arrival_us < simulator_.now()) {
      wire_status_ = Status::Internal("malformed update frame");
      continue;
    }
    ScheduleDelivery(p.arrival_us, static_cast<OverlayIndex>(p.dst),
                     Job{static_cast<ItemId>(p.item), p.value, p.tag});
  }
}

void Engine::FlushTrackedValues() {
  for (const TrackedValue& logged : tracked_values_) {
    trackers_[logged.tracker].OnRepositoryValue(logged.start, logged.value);
  }
  tracked_values_.clear();
}

void Engine::FinalizeTrackers(sim::SimTime t) {
  FlushTrackedValues();
  // Close the outage windows of members still down at the horizon
  // before finalizing (SyncTo inside needs live trackers).
  for (OverlayIndex m = 0; m < failed_.size(); ++m) {
    if (failed_[m]) CloseOutageWindow(t, m);
  }
  for (TrackerId tid = 0; tid < trackers_.size(); ++tid) {
    if (tracker_active_[tid]) trackers_[tid].Finalize(t);
  }
}

// ---------------------------------------------------------------------------
// Scenario runtime

size_t Engine::CountOrphanedPairs() const {
  size_t count = 0;
  for (OverlayIndex m = 1; m < overlay_.member_count(); ++m) {
    for (ItemId item = 0; item < overlay_.item_count(); ++item) {
      if (overlay_.Holds(m, item) &&
          overlay_.Serving(m, item).parent == kInvalidOverlayIndex) {
        ++count;
      }
    }
  }
  return count;
}

void Engine::HandleScenario(sim::SimTime t, uint32_t op_index,
                            uint64_t phase) {
  // Ops read trackers and rewrite the overlay their ids came from, so
  // every logged value lands first.
  FlushTrackedValues();
  // One heap entry per scheduled scenario event; events fire in time
  // order, so the top is this event's own time.
  assert(!scenario_pending_times_.empty() &&
         scenario_pending_times_.top() == t);
  scenario_pending_times_.pop();
  if (!scenario_status_.ok()) return;  // first failure wins; drain inert
  const ScenarioOp& op = scenario_->op(op_index);
  if (phase == 1) {
    // Deferred repair of the orphans op `op_index`'s failure produced.
    const std::vector<OrphanEdge> orphans =
        std::move(pending_orphans_[op_index]);
    pending_orphans_[op_index].clear();
    RepairOrphans(t, orphans);
    assert(orphaned_pairs_ == CountOrphanedPairs());
    return;
  }
  ++metrics_.scenario_ops;
  if (options_.recorder != nullptr) {
    options_.recorder->RecordAt(t, obs::TraceEventKind::kScenarioOp,
                                op.member, static_cast<uint64_t>(op.kind),
                                op.item);
  }
  scenario_status_ = CheckLiveness(op, failed_[op.member] != 0);
  if (!scenario_status_.ok()) return;
  switch (op.kind) {
    case ScenarioOpKind::kRepoFail:
      ApplyFail(t, op_index, op.member);
      break;
    case ScenarioOpKind::kRepoRecover:
      ApplyRecover(t, op.member);
      break;
    case ScenarioOpKind::kCoherencyChange:
      ApplyCoherencyChange(t, op.member, op.item, op.c);
      break;
  }
  // The census is maintained incrementally (detach adds, repair
  // subtracts); a full recount per op would cost O(members x items) at
  // 10k-world churn scale.
  assert(orphaned_pairs_ == CountOrphanedPairs());
}

void Engine::ApplyFail(sim::SimTime t, uint32_t op_index, OverlayIndex m) {
  // Pairs of m that were themselves still orphaned vanish with m's
  // holdings — take them out of the census before the detach.
  for (ItemId item : overlay_.ItemsHeldBy(m)) {
    if (overlay_.Serving(m, item).parent == kInvalidOverlayIndex) {
      --orphaned_pairs_;
    }
  }
  failed_[m] = 1;
  fail_time_[m] = t;
  fail_op_[m] = op_index;
  // The crashed node's backlog is lost; a pending NodeProcess wakeup
  // finds the queue empty and parks.
  NodeState& state = nodes_[m];
  metrics_.dropped_jobs += state.pending();
  state.queue.clear();
  state.next = 0;
  state.open_batch = kNoBatch;

  Result<MemberDetachment> det = overlay_.DetachMember(m);
  if (!det.ok()) {
    scenario_status_ = det.status();
    return;
  }
  captured_needs_[m] = std::move(det->needs);
  // Snapshot each tracked pair's staleness at the failure instant so
  // the recovery (or the horizon) can attribute the outage's share.
  assert(tracked_values_.empty());
  outage_snap_[m].clear();
  outage_snap_[m].reserve(captured_needs_[m].size());
  for (const MemberNeed& need : captured_needs_[m]) {
    const TrackerId tid = overlay_.tracker_id(m, need.item);
    sim::SimTime snap = 0;
    if (tid != kInvalidTrackerId && tracker_active_[tid]) {
      trackers_[tid].SyncTo(t);
      snap = trackers_[tid].out_of_sync_time();
    }
    outage_snap_[m].push_back(snap);
  }

  orphaned_pairs_ += det->orphans.size();
  if (det->orphans.empty()) return;
  if (options_.repair_policy == RepairPolicy::kOnRecovery) {
    // Orphans wait for their parent to come back (ApplyRecover).
    pending_orphans_[op_index] = std::move(det->orphans);
  } else if (options_.repair_delay > 0) {
    pending_orphans_[op_index] = std::move(det->orphans);
    simulator_.ScheduleAt(t + options_.repair_delay,
                          sim::Event::Scenario(op_index, 1));
    scenario_pending_times_.push(t + options_.repair_delay);
  } else {
    RepairOrphans(t, det->orphans);
  }
}

void Engine::CloseOutageWindow(sim::SimTime t, OverlayIndex m) {
  assert(tracked_values_.empty());
  const sim::SimTime dt = t - fail_time_[m];
  for (size_t i = 0; i < captured_needs_[m].size(); ++i) {
    const TrackerId tid =
        overlay_.tracker_id(m, captured_needs_[m][i].item);
    if (tid == kInvalidTrackerId || !tracker_active_[tid]) continue;
    trackers_[tid].SyncTo(t);
    metrics_.outage_out_of_sync_time +=
        trackers_[tid].out_of_sync_time() - outage_snap_[m][i];
    metrics_.outage_pair_time += dt;
  }
}

void Engine::ApplyRecover(sim::SimTime t, OverlayIndex m) {
  CloseOutageWindow(t, m);
  failed_[m] = 0;
  for (const MemberNeed& need : captured_needs_[m]) AttachNeed(m, need);
  captured_needs_[m].clear();
  outage_snap_[m].clear();
  // Orphans that waited for this member (RepairPolicy::kOnRecovery, or
  // a deferred repair still inside its window) re-join under it.
  if (fail_op_[m] != kNoFailOp) {
    const std::vector<OrphanEdge> orphans =
        std::move(pending_orphans_[fail_op_[m]]);
    pending_orphans_[fail_op_[m]].clear();
    fail_op_[m] = kNoFailOp;
    RepairOrphans(t, orphans, m);
  }
}

void Engine::AttachNeed(OverlayIndex m, const MemberNeed& need) {
  // The failure detached every holding of `m`, nothing attaches under a
  // failed member, and ApplyRecover restores relay holdings only after
  // the needs.
  assert(!overlay_.Holds(m, need.item));
  // Old parent first (the paper's repositories remember their parents),
  // the closest live legal holder otherwise. The repaired edge forces a
  // resync push so the recovered member catches up on the next update
  // its parent processes.
  OverlayIndex parent = need.parent;
  if (!IsLegalParent(parent, need.item, m, need.c_own)) {
    parent = FindBackupParent(need.item, m, need.c_own);
    if (parent == kInvalidOverlayIndex) return;
  }
  AttachRepairedEdge(parent, m, need.item, need.c_own);
  // The fresh holding has no dependents and already serves at c_own, so
  // restating the need changes no serve tolerance.
  overlay_.SetOwnInterest(m, need.item, need.c_own);
  // The re-join serves at c_own, which can be a tolerance class the
  // source never tracked (the pre-failure serve was tighter when
  // dependents rode the edge) — admit it.
  disseminator_.OnToleranceAdded(need.item,
                                 overlay_.Serving(m, need.item).c_serve,
                                 source_values_[need.item]);
  ++metrics_.repairs;
  // Stamps at the scenario event being handled (the recorder clock was
  // set on entry to HandleEvent).
  if (options_.recorder != nullptr) {
    options_.recorder->Record(obs::TraceEventKind::kRepair, m, need.item);
  }
}

bool Engine::IsLegalParent(OverlayIndex parent, ItemId item,
                           OverlayIndex child, Coherency c) const {
  if (parent == kInvalidOverlayIndex || parent == child) return false;
  if (parent < failed_.size() && failed_[parent]) return false;
  if (!overlay_.Holds(parent, item)) return false;
  if (!SatisfiesEq1(overlay_.Serving(parent, item).c_serve, c)) return false;
  // Walk the candidate's parent chain: it must not pass through `child`
  // (that would close a cycle) and must reach the source — a candidate
  // hanging off a still-detached subtree receives no data itself, so
  // attaching under it would silently starve the orphan.
  OverlayIndex cursor = parent;
  size_t steps = 0;
  while (cursor != kSourceOverlayIndex) {
    if (cursor == child) return false;
    if (!overlay_.Holds(cursor, item)) return false;
    cursor = overlay_.Serving(cursor, item).parent;
    if (cursor == kInvalidOverlayIndex) return false;  // detached subtree
    if (++steps > overlay_.member_count()) return false;
  }
  return true;
}

OverlayIndex Engine::FindBackupParent(ItemId item, OverlayIndex child,
                                      Coherency c) {
  // LeLA-style placement, restricted to what a repair can know: among
  // the live legal holders, the one closest to the orphan (preference
  // is pure comm delay at repair time; ascending index breaks ties, so
  // the choice is deterministic).
  OverlayIndex best = kInvalidOverlayIndex;
  sim::SimTime best_delay = 0;
  for (OverlayIndex m = 0; m < overlay_.member_count(); ++m) {
    if (!IsLegalParent(m, item, child, c)) continue;
    const sim::SimTime delay = delays_.Delay(m, child);
    if (best == kInvalidOverlayIndex || delay < best_delay) {
      best = m;
      best_delay = delay;
    }
  }
  if (best == kInvalidOverlayIndex && scenario_status_.ok()) {
    scenario_status_ = Status::FailedPrecondition(
        "scenario repair: no live parent can serve member " +
        std::to_string(child) + " item " + std::to_string(item) +
        " (is the overlay rooted at the source?)");
  }
  return best;
}

void Engine::AttachRepairedEdge(OverlayIndex parent, OverlayIndex child,
                                ItemId item, Coherency c) {
  const EdgeId id = overlay_.AddItemEdge(parent, child, item, c);
  disseminator_.OnEdgeCreated(id, item, c);
}

void Engine::RepairOrphans(sim::SimTime t,
                           const std::vector<OrphanEdge>& orphans,
                           OverlayIndex preferred) {
  (void)t;  // repairs are instantaneous; `t` only stamps trace records
  // The recovered member may have relayed items it never needed itself
  // (LeLA's cascading augmentation); those holdings are not captured as
  // needs, so restore them here — at the tightest tolerance its waiting
  // orphans require — or its old dependents could never re-join under
  // it as the on-recovery policy promises.
  if (preferred != kInvalidOverlayIndex) {
    std::map<ItemId, Coherency> relay_c;
    for (const OrphanEdge& orphan : orphans) {
      if (orphan.child < failed_.size() && failed_[orphan.child]) continue;
      if (!overlay_.Holds(orphan.child, orphan.item)) continue;
      const ItemServing& serving =
          overlay_.Serving(orphan.child, orphan.item);
      if (serving.parent != kInvalidOverlayIndex) continue;
      auto [it, inserted] = relay_c.emplace(orphan.item, serving.c_serve);
      if (!inserted) it->second = std::min(it->second, serving.c_serve);
    }
    for (const auto& [item, c] : relay_c) {
      if (overlay_.Holds(preferred, item)) continue;
      const OverlayIndex grand = FindBackupParent(item, preferred, c);
      if (grand == kInvalidOverlayIndex) continue;
      AttachRepairedEdge(grand, preferred, item, c);
      ++metrics_.repairs;
      if (options_.recorder != nullptr) {
        options_.recorder->RecordAt(t, obs::TraceEventKind::kRepair,
                                    preferred, item);
      }
    }
  }
  for (const OrphanEdge& orphan : orphans) {
    // The orphan may itself have failed or been repaired since it was
    // captured.
    if (orphan.child < failed_.size() && failed_[orphan.child]) continue;
    if (!overlay_.Holds(orphan.child, orphan.item)) continue;
    const ItemServing& serving = overlay_.Serving(orphan.child, orphan.item);
    if (serving.parent != kInvalidOverlayIndex) continue;
    // Re-attach at the child's *current* serve tolerance (it may have
    // renegotiated while orphaned).
    const Coherency c = serving.c_serve;
    OverlayIndex parent = kInvalidOverlayIndex;
    if (preferred != kInvalidOverlayIndex &&
        IsLegalParent(preferred, orphan.item, orphan.child, c)) {
      parent = preferred;
    } else if (options_.repair_policy == RepairPolicy::kFallback &&
               IsLegalParent(orphan.fallback_parent, orphan.item,
                             orphan.child, c)) {
      parent = orphan.fallback_parent;
    } else {
      parent = FindBackupParent(orphan.item, orphan.child, c);
    }
    if (parent == kInvalidOverlayIndex) continue;
    AttachRepairedEdge(parent, orphan.child, orphan.item, c);
    ++metrics_.repairs;
    if (options_.recorder != nullptr) {
      options_.recorder->RecordAt(t, obs::TraceEventKind::kRepair,
                                  orphan.child, orphan.item);
    }
    --orphaned_pairs_;
  }
}

void Engine::ApplyCoherencyChange(sim::SimTime t, OverlayIndex m,
                                  ItemId item, Coherency c) {
  const Status status = overlay_.UpdateOwnCoherency(m, item, c);
  if (!status.ok()) {
    scenario_status_ = status;
    return;
  }
  disseminator_.OnToleranceAdded(item, overlay_.Serving(m, item).c_serve,
                                 source_values_[item]);
  const TrackerId tid = overlay_.tracker_id(m, item);
  if (tid != kInvalidTrackerId && tracker_active_[tid]) {
    assert(tracked_values_.empty());
    // Old tolerance covers [.., t), the renegotiated one applies onward.
    trackers_[tid].SyncTo(t);
    trackers_[tid].set_coherency(c);
  }
}

}  // namespace d3t::core
