#include "core/fidelity.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "core/coherency.h"

namespace d3t::core {

namespace {

/// Measured violations use the fidelity slack so that boundary-exact
/// deviations (which the forwarding predicates deliberately hold back)
/// do not register as loss. See kFidelitySlack in core/coherency.h.
bool MeasuredViolation(double source_value, double repo_value, Coherency c) {
  return std::abs(source_value - repo_value) > c + kFidelitySlack;
}

}  // namespace

FidelityTracker::FidelityTracker(
    Coherency c, const std::vector<trace::Tick>* source_timeline)
    : c_(c), source_timeline_(source_timeline) {
  assert(source_timeline != nullptr && !source_timeline->empty());
  source_value_ = repo_value_ = source_timeline->front().value;
}

void FidelityTracker::SyncTo(sim::SimTime t) {
  if (finalized_) return;
  IntegrateSourceTo(t);
  if (t > last_event_) Advance(t);
}

void FidelityTracker::set_coherency(Coherency c) {
  c_ = c;
  if (!finalized_) {
    violated_ = MeasuredViolation(source_value_, repo_value_, c_);
  }
}

void FidelityTracker::Advance(sim::SimTime t) {
  if (finalized_) return;
  assert(t >= last_event_);
  if (violated_) out_of_sync_time_ += t - last_event_;
  last_event_ = t;
}

void FidelityTracker::IntegrateSourceTo(sim::SimTime t) {
  // Every caller returns first once finalized, so the walk runs on
  // locals with no check per tick. A poll repeating the previous value
  // (absent from a compacted timeline) only splits a constant interval,
  // which leaves the integer sum and the violation flag as they were.
  const std::vector<trace::Tick>& ticks = *source_timeline_;
  const size_t end = ticks.size();
  const double bound = c_ + kFidelitySlack;
  const double repo = repo_value_;
  size_t cursor = source_cursor_;
  double source = source_value_;
  sim::SimTime last = last_event_;
  sim::SimTime out = out_of_sync_time_;
  bool violated = violated_;
  for (; cursor < end && ticks[cursor].time <= t; ++cursor) {
    const trace::Tick& tick = ticks[cursor];
    out += violated ? tick.time - last : 0;
    last = tick.time;
    source = tick.value;
    violated = std::abs(source - repo) > bound;
  }
  source_cursor_ = cursor;
  source_value_ = source;
  last_event_ = last;
  out_of_sync_time_ = out;
  violated_ = violated;
}

void FidelityTracker::OnRepositoryValue(sim::SimTime t, double value) {
  if (finalized_) return;
  IntegrateSourceTo(t);
  Advance(t);
  repo_value_ = value;
  violated_ = MeasuredViolation(source_value_, repo_value_, c_);
}

void FidelityTracker::Finalize(sim::SimTime end) {
  if (finalized_) return;
  IntegrateSourceTo(end);
  if (end > last_event_) Advance(end);
  window_ = end;
  finalized_ = true;
}

ChangeTimelines BuildChangeTimelines(
    const std::vector<trace::Trace>& traces) {
  ChangeTimelines timelines(traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    const std::vector<trace::Tick>& ticks = traces[i].ticks();
    assert(!ticks.empty());
    std::vector<trace::Tick>& timeline = timelines[i];
    timeline.push_back(ticks.front());
    for (size_t k = 1; k < ticks.size(); ++k) {
      if (ticks[k].value != timeline.back().value) {
        timeline.push_back(ticks[k]);
      }
    }
  }
  return timelines;
}

Status ValidateChangeTimelines(const ChangeTimelines& timelines,
                               const std::vector<trace::Trace>& traces) {
  if (timelines.size() != traces.size()) {
    return Status::InvalidArgument(
        "change-timeline cache does not cover every trace");
  }
  for (size_t i = 0; i < traces.size(); ++i) {
    const std::vector<trace::Tick>& timeline = timelines[i];
    const std::vector<trace::Tick>& ticks = traces[i].ticks();
    const bool consistent =
        !timeline.empty() && !ticks.empty() &&
        timeline.size() <= ticks.size() &&
        timeline.front().time == ticks.front().time &&
        timeline.front().value == ticks.front().value &&
        timeline.back().time <= ticks.back().time;
    if (!consistent) {
      return Status::InvalidArgument(
          "change-timeline cache does not match trace " + std::to_string(i));
    }
  }
  return Status::Ok();
}

Result<sim::SimTime> TraceHorizon(const std::vector<trace::Trace>& traces) {
  sim::SimTime horizon = 0;
  for (size_t i = 0; i < traces.size(); ++i) {
    const std::vector<trace::Tick>& ticks = traces[i].ticks();
    if (ticks.empty()) {
      return Status::InvalidArgument("empty trace for item " +
                                     std::to_string(i));
    }
    // Tick times strictly increase, so the two ends bound them all.
    if (ticks.front().time < 0 || ticks.back().time >= sim::kSimTimeMax / 4) {
      return Status::InvalidArgument(
          "trace for item " + std::to_string(i) +
          " has a tick outside [0, kSimTimeMax / 4) us");
    }
    horizon = std::max(horizon, ticks.back().time);
  }
  return horizon;
}

double AggregateLoss(const std::vector<double>& loss_sums,
                     const std::vector<size_t>& pair_counts,
                     std::vector<double>& per_member_loss) {
  per_member_loss.assign(loss_sums.size(), -1.0);
  per_member_loss[kSourceOverlayIndex] = 0.0;
  double total = 0.0;
  size_t members = 0;
  for (size_t m = 1; m < loss_sums.size(); ++m) {
    if (pair_counts[m] == 0) continue;
    const double loss = loss_sums[m] / static_cast<double>(pair_counts[m]);
    per_member_loss[m] = loss;
    total += loss;
    ++members;
  }
  return members > 0 ? total / static_cast<double>(members) : 0.0;
}

Result<const ChangeTimelines*> ResolveChangeTimelines(
    const ChangeTimelines* cache, const std::vector<trace::Trace>& traces,
    ChangeTimelines& owned) {
  if (cache == nullptr) {
    owned = BuildChangeTimelines(traces);
    return static_cast<const ChangeTimelines*>(&owned);
  }
  D3T_RETURN_IF_ERROR(ValidateChangeTimelines(*cache, traces));
  return cache;
}

double FidelityTracker::LossPercent() const {
  assert(finalized_);
  if (window_ <= 0) return 0.0;
  return 100.0 * static_cast<double>(out_of_sync_time_) /
         static_cast<double>(window_);
}

}  // namespace d3t::core
