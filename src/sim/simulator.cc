#include "sim/simulator.h"

namespace d3t::sim {

// d3t-lint: hot
uint64_t Simulator::RunUntil(SimTime horizon) {
  assert(handler_ != nullptr);
  // Lane events fire at now(); past the horizon they stay pending.
  if (now_ > horizon) return 0;
  uint64_t executed = 0;
  while (true) {
    while (lane_head_ < lane_.size()) {
      // Copied out: the handler may append to the lane and move it.
      const Event event = lane_[lane_head_++];
      handler_->HandleEvent(now_, event);
      ++executed;
    }
    lane_.clear();
    lane_head_ = 0;
    // Test empty() first: an empty heap's PeekTime() is kSimTimeMax,
    // which a kSimTimeMax horizon does not pass.
    if (queue_.empty() || queue_.PeekTime() > horizon) break;
    // Advance the clock before running the event so that now() is the
    // event's firing time inside the handler. The heap's events for
    // this instant run before any the handlers add to the lane.
    now_ = queue_.PeekTime();
    do {
      queue_.RunNext(*handler_);
      ++executed;
    } while (!queue_.empty() && queue_.PeekTime() == now_);
  }
  if (now_ < horizon && horizon != kSimTimeMax) now_ = horizon;
  return executed;
}

}  // namespace d3t::sim
