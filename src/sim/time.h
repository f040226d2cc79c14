#ifndef D3T_SIM_TIME_H_
#define D3T_SIM_TIME_H_

#include <cstdint>

namespace d3t::sim {

/// Simulated time in microseconds. int64 covers ~292k years; the paper's
/// traces span ~10^10 us (10,000 ticks at ~1 tick/second).
using SimTime = int64_t;

inline constexpr SimTime kSimTimeMax = INT64_MAX;

/// Conversion helpers. Delays in the paper are quoted in milliseconds.
constexpr SimTime Millis(double ms) {
  return static_cast<SimTime>(ms * 1000.0);
}
constexpr SimTime Seconds(double s) {
  return static_cast<SimTime>(s * 1e6);
}
constexpr double ToMillis(SimTime t) { return static_cast<double>(t) / 1e3; }
constexpr double ToSeconds(SimTime t) { return static_cast<double>(t) / 1e6; }

}  // namespace d3t::sim

#endif  // D3T_SIM_TIME_H_
