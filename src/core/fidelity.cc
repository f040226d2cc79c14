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

FidelityTracker::FidelityTracker(
    Coherency c, const std::vector<trace::Tick>* source_timeline,
    sim::SimTime start)
    : c_(c), start_(start), last_event_(start),
      source_timeline_(source_timeline) {
  assert(source_timeline != nullptr && !source_timeline->empty());
  // A join-time fetch: both processes start at the source's value as of
  // `start`; the cursor resumes at the first strictly later tick.
  const std::vector<trace::Tick>& ticks = *source_timeline;
  source_value_ = ticks.front().value;
  source_cursor_ = 1;
  while (source_cursor_ < ticks.size() &&
         ticks[source_cursor_].time <= start) {
    source_value_ = ticks[source_cursor_++].value;
  }
  repo_value_ = source_value_;
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
  const std::vector<trace::Tick>& ticks = *source_timeline_;
  while (source_cursor_ < ticks.size() && ticks[source_cursor_].time <= t) {
    const trace::Tick& tick = ticks[source_cursor_++];
    // A poll repeating the previous value is not a source update
    // (already absent from a compacted timeline).
    if (tick.value == source_value_) continue;
    Advance(tick.time);
    source_value_ = tick.value;
    violated_ = MeasuredViolation(source_value_, repo_value_, c_);
  }
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
  window_ = end - start_;
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
