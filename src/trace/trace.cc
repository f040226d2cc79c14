#include "trace/trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace d3t::trace {

Trace::Trace(std::string name, std::vector<Tick> ticks)
    : name_(std::move(name)), ticks_(std::move(ticks)) {
#ifndef NDEBUG
  for (size_t i = 1; i < ticks_.size(); ++i) {
    assert(ticks_[i].time > ticks_[i - 1].time);
  }
#endif
}

double Trace::ValueAt(sim::SimTime t) const {
  if (ticks_.empty()) return 0.0;
  // First tick strictly after t, then step back one.
  auto it = std::upper_bound(
      ticks_.begin(), ticks_.end(), t,
      [](sim::SimTime lhs, const Tick& tick) { return lhs < tick.time; });
  if (it == ticks_.begin()) return ticks_.front().value;
  return std::prev(it)->value;
}

TraceStats Trace::ComputeStats() const {
  TraceStats stats;
  stats.tick_count = ticks_.size();
  if (ticks_.empty()) return stats;
  StreamingStats values;
  StreamingStats changed_deltas;
  StreamingStats intervals;
  size_t changes = 0;
  for (size_t i = 0; i < ticks_.size(); ++i) {
    values.Add(ticks_[i].value);
    if (i > 0) {
      const double delta = std::abs(ticks_[i].value - ticks_[i - 1].value);
      intervals.Add(
          static_cast<double>(ticks_[i].time - ticks_[i - 1].time));
      if (delta > 0.0) {
        ++changes;
        changed_deltas.Add(delta);
      }
    }
  }
  stats.min_value = values.min();
  stats.max_value = values.max();
  stats.change_fraction =
      ticks_.size() > 1
          ? static_cast<double>(changes) /
                static_cast<double>(ticks_.size() - 1)
          : 0.0;
  stats.mean_abs_change = changed_deltas.mean();
  stats.mean_interval_us = intervals.mean();
  return stats;
}

}  // namespace d3t::trace
