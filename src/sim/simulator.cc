#include "sim/simulator.h"

namespace d3t::sim {

// d3t-lint: hot
uint64_t Simulator::RunUntil(SimTime horizon) {
  assert(handler_ != nullptr);
  uint64_t executed = 0;
  // Test empty() first: an empty queue's PeekTime() is kSimTimeMax,
  // which a kSimTimeMax horizon does not pass.
  while (!queue_.empty() && queue_.PeekTime() <= horizon) {
    // Advance the clock before running the event so that now() is the
    // event's firing time inside the handler.
    now_ = queue_.PeekTime();
    queue_.RunNext(*handler_);
    ++executed;
  }
  if (now_ < horizon && horizon != kSimTimeMax) now_ = horizon;
  return executed;
}

}  // namespace d3t::sim
