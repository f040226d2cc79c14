#include "core/pull.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "core/coherency.h"

namespace d3t::core {

PullEngine::PullEngine(const net::OverlayDelayModel& delays,
                       const std::vector<InterestSet>& interests,
                       const std::vector<trace::Trace>& traces,
                       const PullOptions& options,
                       const ChangeTimelines* change_timelines)
    : delays_(delays),
      interests_(interests),
      traces_(traces),
      options_(options),
      change_timelines_(change_timelines) {}

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
  if (!(std::isfinite(options_.grow_factor) && options_.grow_factor >= 1.0)) {
    return Status::InvalidArgument("grow_factor must be finite and >= 1");
  }
  if (!(std::isfinite(options_.safety) && options_.safety > 0.0)) {
    return Status::InvalidArgument("safety must be finite and > 0");
  }
  if (options_.comp_delay < 0) {
    return Status::InvalidArgument("negative computational delay");
  }
  // A poll fires a response time plus a TTR after the last one; bound
  // the TTR like the trace times, so that no event time can overflow.
  if (options_.ttr_max >= sim::kSimTimeMax / 4) {
    return Status::InvalidArgument(
        "ttr_max must stay below kSimTimeMax / 4 us");
  }
  const Result<sim::SimTime> horizon_or = TraceHorizon(traces_);
  if (!horizon_or.ok()) return horizon_or.status();
  const sim::SimTime horizon = *horizon_or;
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
  states_.clear();
  trackers_.clear();
  for (size_t i = 0; i < interests_.size(); ++i) {
    for (const auto& [item, c] : interests_[i]) {
      if (item >= traces_.size()) {
        return Status::OutOfRange("interest references unknown item");
      }
      if (!IsValidTolerance(c)) {
        return Status::InvalidArgument(
            "member " + std::to_string(i + 1) + ", item " +
            std::to_string(item) + ": tolerance must be finite and > 0");
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
  // Each loop has at most one poll outstanding, so the source's backlog
  // stays below loops x comp_delay; bound it the same way.
  if (!(static_cast<double>(states_.size()) *
            static_cast<double>(options_.comp_delay) <
        static_cast<double>(sim::kSimTimeMax / 4))) {
    return Status::InvalidArgument(
        "comp_delay: poll loops x comp_delay must stay below "
        "kSimTimeMax / 4 us");
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

  // States run member by member, items ascending within each.
  std::vector<double> loss_sums(interests_.size() + 1, 0.0);
  std::vector<size_t> pair_counts(interests_.size() + 1, 0);
  for (const PollState& state : states_) {
    loss_sums[state.member] += trackers_[state.tracker].LossPercent();
    ++pair_counts[state.member];
  }
  metrics_.loss_percent =
      AggregateLoss(loss_sums, pair_counts, metrics_.per_member_loss);
  metrics_.wire_messages = metrics_.polls * 2;
  metrics_.source_utilization =
      horizon > 0 ? static_cast<double>(source_busy_total_) /
                        static_cast<double>(horizon)
                  : 0.0;
  if (options_.registry != nullptr) {
    obs::Registry& reg = *options_.registry;
    reg.Add(reg.Counter("pull.polls"), metrics_.polls);
    reg.Add(reg.Counter("pull.changed_polls"), metrics_.changed_polls);
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
    for (FidelityTracker& tracker : trackers_) tracker.Finalize(t);
    return;
  }
  assert(event.kind == sim::EventKind::kPullPoll);
  const size_t state_index = event.a;
  switch (event.b) {
    case kPollRequest:
      HandleRequestAtSource(t, state_index);
      break;
    case kPollServiced:
      HandleServiced(t, state_index);
      break;
    case kPollResponse:
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
  simulator_.ScheduleAt(
      when + delays_.Delay(state.member, kSourceOverlayIndex),
      sim::Event::PullPoll(static_cast<uint32_t>(index), kPollRequest));
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
  state.inflight_value = traces_[state.item].ValueAt(t);
  simulator_.ScheduleAt(
      t + delays_.Delay(kSourceOverlayIndex, state.member),
      sim::Event::PullPoll(static_cast<uint32_t>(state_index),
                           kPollResponse));
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
    // After a change, aim at the time the item needs to drift past c at
    // the observed rate, derated by the safety factor; after a quiet
    // poll, grow the TTR.
    const double rate = change / static_cast<double>(elapsed);
    const double target =
        change > 0.0 ? options_.safety * state.c / rate
                     : static_cast<double>(state.ttr) * options_.grow_factor;
    // Clamp before rounding: a target beyond the int64 range (inf when
    // the rate underflows) means "poll rarely", so it must not wrap.
    // The integer clamp absorbs the rounding of a ttr_max above 2^53.
    const double bounded =
        std::clamp(target, static_cast<double>(options_.ttr_min),
                   static_cast<double>(options_.ttr_max));
    state.ttr = std::clamp(static_cast<sim::SimTime>(std::llround(bounded)),
                           options_.ttr_min, options_.ttr_max);
  }
  state.last_value = value;
  state.last_response_time = now;
}

}  // namespace d3t::core
