#ifndef D3T_SIM_SIMULATOR_H_
#define D3T_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace d3t::sim {

/// Discrete-event simulation driver: owns the clock and the event queue
/// and advances time by handing events, in order, to the registered
/// EventHandler. Events run in (time, scheduling order); one scheduled
/// for now() runs after every event already due at now().
class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Registers the receiver of every event. Must be set before the
  /// first RunUntil.
  void set_handler(EventHandler* handler) { handler_ = handler; }

  /// Schedules `event` at absolute time `when` (>= now()).
  void ScheduleAt(SimTime when, Event event) {
    assert(when >= now_);
    queue_.Schedule(when, event);
  }

  /// Runs events until none is left or `horizon` is passed (events
  /// scheduled strictly after `horizon` are left pending). Returns the
  /// number of events executed.
  uint64_t RunUntil(SimTime horizon);

 private:
  SimTime now_ = 0;
  EventQueue queue_;
  EventHandler* handler_ = nullptr;
};

}  // namespace d3t::sim

#endif  // D3T_SIM_SIMULATOR_H_
