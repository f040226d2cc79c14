#ifndef D3T_TRACE_TRACE_H_
#define D3T_TRACE_TRACE_H_

#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/time.h"

namespace d3t::trace {

/// One polled observation of a dynamic data item: the source's value at a
/// point in simulated time.
struct Tick {
  sim::SimTime time = 0;
  double value = 0.0;
};

/// Summary statistics of a trace, mirroring the columns of the paper's
/// Table 1 plus change-dynamics measures used for calibration.
struct TraceStats {
  size_t tick_count = 0;
  double min_value = 0.0;
  double max_value = 0.0;
  /// Fraction of ticks whose value differs from the previous tick.
  double change_fraction = 0.0;
  /// Mean |delta| over the ticks that changed (dollars).
  double mean_abs_change = 0.0;
  /// Mean inter-tick interval (microseconds).
  double mean_interval_us = 0.0;
};

/// A time series of values for one data item (e.g. one stock ticker).
/// Ticks are strictly increasing in time.
class Trace {
 public:
  Trace() = default;
  Trace(std::string name, std::vector<Tick> ticks);

  const std::string& name() const { return name_; }
  const std::vector<Tick>& ticks() const { return ticks_; }
  size_t size() const { return ticks_.size(); }
  bool empty() const { return ticks_.empty(); }

  /// Value in effect at time `t` (last tick at or before `t`); the first
  /// tick's value for earlier times. Returns 0 for an empty trace.
  double ValueAt(sim::SimTime t) const;

  TraceStats ComputeStats() const;

 private:
  std::string name_;
  std::vector<Tick> ticks_;
};

}  // namespace d3t::trace

#endif  // D3T_TRACE_TRACE_H_
