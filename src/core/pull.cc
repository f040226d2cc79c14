#include "core/pull.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/coherency.h"

namespace d3t::core {

PullEngine::PullEngine(const net::OverlayDelayModel& delays,
                       const std::vector<InterestSet>& interests,
                       const std::vector<trace::Trace>& traces,
                       const PullOptions& options,
                       const ChangeTimelines* change_timelines,
                       const Scenario* scenario)
    : delays_(delays),
      interests_(interests),
      traces_(traces),
      options_(options),
      change_timelines_(change_timelines),
      scenario_(scenario) {}

Result<PullMetrics> PullEngine::Run() {
  if (interests_.size() + 1 != delays_.member_count()) {
    return Status::InvalidArgument(
        "delay model must cover source + all repositories");
  }
  if (options_.ttr_min <= 0 || options_.ttr_max < options_.ttr_min) {
    return Status::InvalidArgument("need 0 < ttr_min <= ttr_max");
  }
  if (options_.initial_ttr < options_.ttr_min ||
      options_.initial_ttr > options_.ttr_max) {
    return Status::InvalidArgument("initial_ttr outside [ttr_min, ttr_max]");
  }
  if (options_.grow_factor < 1.0 || options_.safety <= 0.0) {
    return Status::InvalidArgument("need grow_factor >= 1 and safety > 0");
  }
  if (options_.comp_delay < 0) {
    return Status::InvalidArgument("negative computational delay");
  }
  if (options_.wire_transport != nullptr &&
      options_.wire_transport->peer_count() < interests_.size() + 1) {
    return Status::InvalidArgument(
        "wire transport must address source + all repositories");
  }
  sim::SimTime horizon = 0;
  for (const trace::Trace& trace : traces_) {
    if (trace.empty()) return Status::InvalidArgument("empty trace");
    horizon = std::max(horizon, trace.ticks().back().time);
  }
  metrics_ = PullMetrics{};
  metrics_.horizon = horizon;
  source_busy_until_ = 0;
  source_busy_total_ = 0;
  simulator_ = sim::Simulator{};
  simulator_.set_handler(this);

  // One poll loop and one timeline-bound lazy fidelity tracker per
  // (repository, item); the source process needs no events of its own.
  // The timelines come from the caller's shared cache when one was
  // supplied, sparing every run its own trace pass.
  Result<const ChangeTimelines*> resolved =
      ResolveChangeTimelines(change_timelines_, traces_, owned_timelines_);
  if (!resolved.ok()) return resolved.status();
  const ChangeTimelines* timelines = *resolved;
  resolved_timelines_ = timelines;
  states_.clear();
  trackers_.clear();
  for (size_t i = 0; i < interests_.size(); ++i) {
    for (const auto& [item, c] : interests_[i]) {
      if (item >= traces_.size()) {
        return Status::OutOfRange("interest references unknown item");
      }
      PollState state;
      state.member = static_cast<OverlayIndex>(i + 1);
      state.item = item;
      state.c = c;
      state.ttr = options_.initial_ttr;
      state.last_value = traces_[item].ticks().front().value;
      state.tracker = trackers_.size();
      trackers_.emplace_back(c, &(*timelines)[item]);
      states_.push_back(state);
    }
  }

  // Scenario runtime state; the per-member index lets fail/recover ops
  // find their loops without scanning every state.
  const size_t member_count = interests_.size() + 1;
  failed_.assign(member_count, 0);
  fail_time_.assign(member_count, 0);
  outage_snap_.assign(states_.size(), 0);
  member_states_.assign(member_count, {});
  scenario_status_ = Status::Ok();
  wire_status_ = Status::Ok();
  if (scenario_ != nullptr && !scenario_->empty()) {
    D3T_RETURN_IF_ERROR(
        scenario_->ValidateAgainst(member_count, traces_.size()));
    for (size_t i = 0; i < states_.size(); ++i) {
      member_states_[states_[i].member].push_back(i);
    }
    for (size_t i = 0; i < scenario_->size(); ++i) {
      if (scenario_->op(i).at > horizon) continue;
      simulator_.ScheduleAt(scenario_->op(i).at,
                            sim::Event::Scenario(static_cast<uint32_t>(i)));
    }
  }

  // Kick off the poll loops, staggered inside the first TTR so the
  // source is not hit by a synchronized thundering herd at t=0.
  Rng stagger(states_.size() * 0x9E3779B97F4A7C15ULL + 1);
  for (size_t i = 0; i < states_.size(); ++i) {
    SchedulePoll(states_[i],
                 static_cast<sim::SimTime>(stagger.NextBounded(
                     static_cast<uint64_t>(options_.initial_ttr) + 1)));
  }

  simulator_.RunUntil(horizon);
  simulator_.ScheduleAt(horizon, sim::Event::FinalizeHook());
  simulator_.RunUntil(horizon);
  if (!scenario_status_.ok()) return scenario_status_;
  if (!wire_status_.ok()) return wire_status_;
  if (metrics_.outage_pair_time > 0) {
    metrics_.outage_loss_percent =
        100.0 * static_cast<double>(metrics_.outage_out_of_sync_time) /
        static_cast<double>(metrics_.outage_pair_time);
  }

  metrics_.per_member_loss.assign(interests_.size() + 1, -1.0);
  metrics_.per_member_loss[kSourceOverlayIndex] = 0.0;
  std::vector<double> sums(interests_.size() + 1, 0.0);
  std::vector<size_t> counts(interests_.size() + 1, 0);
  for (const PollState& state : states_) {
    if (state.superseded) continue;  // re-joined pair: newer window only
    sums[state.member] += trackers_[state.tracker].LossPercent();
    ++counts[state.member];
  }
  double total = 0.0;
  size_t repos = 0;
  for (size_t m = 1; m < sums.size(); ++m) {
    if (counts[m] == 0) continue;
    const double loss = sums[m] / static_cast<double>(counts[m]);
    metrics_.per_member_loss[m] = loss;
    total += loss;
    ++repos;
  }
  metrics_.loss_percent =
      repos > 0 ? total / static_cast<double>(repos) : 0.0;
  metrics_.wire_messages = metrics_.polls * 2;
  metrics_.source_utilization =
      horizon > 0 ? static_cast<double>(source_busy_total_) /
                        static_cast<double>(horizon)
                  : 0.0;
  if (options_.registry != nullptr) {
    obs::Registry& reg = *options_.registry;
    reg.Add(reg.Counter("pull.polls"), metrics_.polls);
    reg.Add(reg.Counter("pull.changed_polls"), metrics_.changed_polls);
    reg.Add(reg.Counter("pull.suppressed_polls"),
            metrics_.suppressed_polls);
    reg.Add(reg.Counter("pull.scenario_ops"), metrics_.scenario_ops);
    reg.Add(reg.Counter("pull.wire_messages"), metrics_.wire_messages);
    reg.Set(reg.Gauge("pull.loss_percent"), metrics_.loss_percent);
    reg.Set(reg.Gauge("pull.source_utilization"),
            metrics_.source_utilization);
  }
  return metrics_;
}

// d3t-lint: hot
void PullEngine::HandleEvent(sim::SimTime t, const sim::Event& event) {
  // Trace records stamp at the event's logical time, never wall time.
  if (options_.recorder != nullptr) options_.recorder->set_now(t);
  if (event.kind == sim::EventKind::kFinalizeHook) {
    // Close the outage windows of members still down at the horizon.
    for (OverlayIndex m = 0; m < failed_.size(); ++m) {
      if (failed_[m]) CloseOutageWindow(t, m);
    }
    for (FidelityTracker& tracker : trackers_) tracker.Finalize(t);
    return;
  }
  if (event.kind == sim::EventKind::kScenario) {
    HandleScenario(t, event.a);
    return;
  }
  assert(event.kind == sim::EventKind::kPullPoll);
  const size_t state_index = event.a;
  switch (event.b) {
    case kPollRequest:
      if (SuppressPhase(state_index)) break;
      HandleRequestAtSource(t, state_index);
      break;
    case kPollServiced:
      HandleServiced(t, state_index);
      break;
    case kPollResponse:
      if (SuppressPhase(state_index)) break;
      HandleResponse(t, state_index);
      break;
    default:
      assert(false && "unexpected poll phase");
      break;
  }
}

void PullEngine::SchedulePoll(PollState& state, sim::SimTime when) {
  const size_t index = static_cast<size_t>(&state - states_.data());
  // Request travels repository -> source.
  const sim::SimTime arrival =
      when + delays_.Delay(state.member, kSourceOverlayIndex);
  if (options_.wire_transport == nullptr) {
    simulator_.ScheduleAt(
        arrival, sim::Event::PullPoll(static_cast<uint32_t>(index),
                                      kPollRequest));
  } else {
    SendFramedPoll(state.member, kSourceOverlayIndex, arrival, index,
                   kPollRequest, 0.0);
  }
}

// d3t-lint: hot
void PullEngine::SendFramedPoll(OverlayIndex from, OverlayIndex to,
                                sim::SimTime at, size_t state_index,
                                uint64_t phase, double value) {
  if (!wire_status_.ok()) return;  // first failure wins; poll path inert
  net::Transport& transport = *options_.wire_transport;
  const net::wire::Frame frame = net::wire::Frame::Poll(
      from, to, at, static_cast<uint32_t>(state_index),
      static_cast<uint32_t>(phase), value);
  Status sent = transport.Send(from, to, frame);
  if (sent.IsCapacityExhausted()) {
    // Backpressure: drain the destination ring (counted stall) and
    // retry once — a drained ring cannot still be full.
    DrainWireFrames(to);
    sent = transport.Send(from, to, frame);
  }
  if (!sent.ok()) {
    wire_status_ = sent;
    return;
  }
  // Drain immediately so the poll event is inserted at this exact call
  // point — the queue breaks time ties by insertion sequence, and a
  // deferred drain would reorder same-instant polls against the direct
  // path.
  DrainWireFrames(to);
}

// d3t-lint: hot
void PullEngine::DrainWireFrames(OverlayIndex to) {
  net::Transport& transport = *options_.wire_transport;
  net::wire::Frame frame;
  net::PeerId from = net::kInvalidPeerId;
  // The first malformed frame poisons the run; later frames stay queued.
  while (wire_status_.ok() && transport.Poll(to, &frame, &from)) {
    if (frame.type != net::wire::FrameType::kPoll) {
      wire_status_ = Status::Internal("unexpected frame type on poll ring");
      continue;
    }
    const net::wire::PollPayload& p = frame.u.poll;
    if (p.dst != to || p.src != from || p.state_index >= states_.size() ||
        (p.phase != kPollRequest && p.phase != kPollResponse) ||
        p.at_us < simulator_.now()) {
      wire_status_ = Status::Internal("malformed poll frame");
      continue;
    }
    if (p.phase == kPollResponse) {
      // The sampled value rides the frame; it lands in the one in-
      // flight slot of the loop at the service instant, exactly when
      // the direct path writes it.
      states_[p.state_index].inflight_value = p.value;
    }
    simulator_.ScheduleAt(p.at_us,
                          sim::Event::PullPoll(p.state_index, p.phase));
  }
}

void PullEngine::HandleRequestAtSource(sim::SimTime t, size_t state_index) {
  // Busy-server model at the source: responses are serialized and each
  // costs comp_delay.
  const sim::SimTime start = std::max(t, source_busy_until_);
  const sim::SimTime done = start + options_.comp_delay;
  source_busy_until_ = done;
  source_busy_total_ += options_.comp_delay;
  ++metrics_.polls;
  simulator_.ScheduleAt(
      done, sim::Event::PullPoll(static_cast<uint32_t>(state_index),
                                 kPollServiced));
}

void PullEngine::HandleServiced(sim::SimTime t, size_t state_index) {
  // The response carries the source value at service time.
  PollState& state = states_[state_index];
  const double value = traces_[state.item].ValueAt(t);
  const sim::SimTime back =
      t + delays_.Delay(kSourceOverlayIndex, state.member);
  if (options_.wire_transport == nullptr) {
    state.inflight_value = value;
    simulator_.ScheduleAt(
        back, sim::Event::PullPoll(static_cast<uint32_t>(state_index),
                                   kPollResponse));
  } else {
    // The sample travels inside the frame instead of being written
    // locally; the receiver-side drain stores it (at this same
    // instant) before scheduling the response arrival.
    SendFramedPoll(kSourceOverlayIndex, state.member, back, state_index,
                   kPollResponse, value);
  }
}

void PullEngine::HandleResponse(sim::SimTime t, size_t state_index) {
  PollState& state = states_[state_index];
  const double value = state.inflight_value;
  // One record per completed round trip, at the response arrival (the
  // request/service phases are implementation detail of the same poll).
  if (options_.recorder != nullptr) {
    options_.recorder->RecordAt(t, obs::TraceEventKind::kPullPoll,
                                state.member, state.item,
                                obs::DoubleBits(value),
                                static_cast<uint16_t>(kPollResponse));
  }
  trackers_[state.tracker].OnRepositoryValue(t, value);
  AdaptTtr(state, t, value);
  SchedulePoll(state, t + state.ttr);
}

void PullEngine::AdaptTtr(PollState& state, sim::SimTime now,
                          double value) {
  const double change = std::abs(value - state.last_value);
  const sim::SimTime elapsed = now - state.last_response_time;
  if (change > 0.0) ++metrics_.changed_polls;
  if (options_.adaptive && elapsed > 0) {
    if (change > 0.0) {
      // Rate-based target: time for the item to drift past c at the
      // observed rate, derated by the safety factor.
      const double rate = change / static_cast<double>(elapsed);
      const double target = options_.safety * state.c / rate;
      state.ttr = static_cast<sim::SimTime>(std::llround(target));
    } else {
      state.ttr = static_cast<sim::SimTime>(std::llround(
          static_cast<double>(state.ttr) * options_.grow_factor));
    }
    state.ttr = std::clamp(state.ttr, options_.ttr_min, options_.ttr_max);
  }
  state.last_value = value;
  state.last_response_time = now;
}

// ---------------------------------------------------------------------------
// Scenario runtime

bool PullEngine::SuppressPhase(size_t state_index) {
  PollState& state = states_[state_index];
  if (state.status == LoopStatus::kLeft) {
    ++metrics_.suppressed_polls;
    return true;
  }
  if (failed_[state.member]) {
    // The owner is down: swallow the phase and suspend the loop until
    // the repository recovers.
    state.status = LoopStatus::kSuspended;
    ++metrics_.suppressed_polls;
    return true;
  }
  return false;
}

size_t PullEngine::FindActiveState(OverlayIndex member, ItemId item) const {
  for (size_t index : member_states_[member]) {
    if (states_[index].item == item &&
        states_[index].status != LoopStatus::kLeft) {
      return index;
    }
  }
  return SIZE_MAX;
}

void PullEngine::CloseOutageWindow(sim::SimTime t, OverlayIndex m) {
  const sim::SimTime dt = t - fail_time_[m];
  for (size_t index : member_states_[m]) {
    PollState& state = states_[index];
    if (state.status == LoopStatus::kLeft) continue;
    FidelityTracker& tracker = trackers_[state.tracker];
    tracker.SyncTo(t);
    metrics_.outage_out_of_sync_time +=
        tracker.out_of_sync_time() - outage_snap_[index];
    metrics_.outage_pair_time += dt;
  }
}

void PullEngine::HandleScenario(sim::SimTime t, uint32_t op_index) {
  if (!scenario_status_.ok()) return;
  const ScenarioOp& op = scenario_->op(op_index);
  const OverlayIndex m = op.member;
  ++metrics_.scenario_ops;
  if (options_.recorder != nullptr) {
    options_.recorder->RecordAt(t, obs::TraceEventKind::kScenarioOp, m,
                                static_cast<uint64_t>(op.kind), op.item);
  }
  scenario_status_ = CheckLiveness(op, failed_[m] != 0);
  if (!scenario_status_.ok()) return;
  switch (op.kind) {
    case ScenarioOpKind::kRepoFail: {
      failed_[m] = 1;
      fail_time_[m] = t;
      // Snapshot each pair's staleness at the failure instant; loops
      // suspend lazily when their next phase fires.
      for (size_t index : member_states_[m]) {
        if (states_[index].status == LoopStatus::kLeft) continue;
        FidelityTracker& tracker = trackers_[states_[index].tracker];
        tracker.SyncTo(t);
        outage_snap_[index] = tracker.out_of_sync_time();
      }
      break;
    }
    case ScenarioOpKind::kRepoRecover: {
      CloseOutageWindow(t, m);
      failed_[m] = 0;
      // Suspended loops restart immediately; loops whose in-flight
      // round trip happened to span the whole outage just continue.
      for (size_t index : member_states_[m]) {
        PollState& state = states_[index];
        if (state.status != LoopStatus::kSuspended) continue;
        state.status = LoopStatus::kRunning;
        state.ttr = options_.initial_ttr;  // stale rate estimate
        SchedulePoll(state, t);
      }
      break;
    }
    case ScenarioOpKind::kInterestJoin: {
      if (FindActiveState(m, op.item) != SIZE_MAX) {
        scenario_status_ = Status::FailedPrecondition(
            "scenario join: member " + std::to_string(m) +
            " already polls item " + std::to_string(op.item));
        return;
      }
      // A re-join after a leave restarts the pair's accounting window;
      // the left loop's truncated window no longer aggregates (same
      // semantics as the push engine's tracker restart).
      for (size_t index : member_states_[m]) {
        if (states_[index].item == op.item) {
          states_[index].superseded = true;
        }
      }
      PollState state;
      state.member = m;
      state.item = op.item;
      state.c = op.c;
      state.ttr = options_.initial_ttr;
      state.last_response_time = t;
      state.last_value = traces_[op.item].ValueAt(t);
      state.tracker = trackers_.size();
      trackers_.emplace_back(op.c, &(*resolved_timelines_)[op.item], t);
      member_states_[m].push_back(states_.size());
      outage_snap_.push_back(0);
      states_.push_back(state);
      SchedulePoll(states_.back(), t);
      break;
    }
    case ScenarioOpKind::kInterestLeave: {
      const size_t index = FindActiveState(m, op.item);
      if (index == SIZE_MAX) {
        scenario_status_ = Status::FailedPrecondition(
            "scenario leave: member " + std::to_string(m) +
            " does not poll item " + std::to_string(op.item));
        return;
      }
      states_[index].status = LoopStatus::kLeft;
      FidelityTracker& tracker = trackers_[states_[index].tracker];
      tracker.SyncTo(t);
      tracker.Finalize(t);
      break;
    }
    case ScenarioOpKind::kCoherencyChange: {
      const size_t index = FindActiveState(m, op.item);
      if (index == SIZE_MAX) {
        scenario_status_ = Status::FailedPrecondition(
            "scenario coherency change: member " + std::to_string(m) +
            " does not poll item " + std::to_string(op.item));
        return;
      }
      states_[index].c = op.c;
      FidelityTracker& tracker = trackers_[states_[index].tracker];
      tracker.SyncTo(t);
      tracker.set_coherency(op.c);
      break;
    }
  }
}

}  // namespace d3t::core
