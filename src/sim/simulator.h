#ifndef D3T_SIM_SIMULATOR_H_
#define D3T_SIM_SIMULATOR_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace d3t::sim {

/// Discrete-event simulation driver: owns the clock and the event queue
/// and advances time by handing events, in order, to the registered
/// EventHandler.
///
/// Events run in (time, scheduling order). An event scheduled for the
/// current instant skips the heap and joins a FIFO lane. The lane keeps
/// that order: every heap event due at now() was scheduled before the
/// clock reached now(), so it precedes every lane event, and RunUntil
/// runs the heap's events for an instant before the lane's.
class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Registers the receiver of every event. Must be set before the
  /// first RunUntil.
  void set_handler(EventHandler* handler) { handler_ = handler; }

  /// Schedules `event` at absolute time `when` (>= now()).
  void ScheduleAt(SimTime when, Event event) {
    assert(when >= now_);
    if (when == now_) {
      lane_.push_back(event);
    } else {
      queue_.Schedule(when, event);
    }
  }

  /// Runs events until none is left or `horizon` is passed (events
  /// scheduled strictly after `horizon` are left pending). Returns the
  /// number of events executed.
  uint64_t RunUntil(SimTime horizon);

 private:
  SimTime now_ = 0;
  /// Events due after now(); the heap never holds one due at now()
  /// outside RunUntil.
  EventQueue queue_;
  /// Events due at now(), in scheduling order; lane_[lane_head_..] are
  /// pending. Emptied (keeping its capacity) before the clock advances.
  std::vector<Event> lane_;
  size_t lane_head_ = 0;
  EventHandler* handler_ = nullptr;
};

}  // namespace d3t::sim

#endif  // D3T_SIM_SIMULATOR_H_
