#include "sim/simulator.h"

namespace d3t::sim {

uint64_t Simulator::RunUntil(SimTime horizon) {
  assert(handler_ != nullptr);
  uint64_t executed = 0;
  while (!queue_.empty()) {
    const SimTime next = queue_.PeekTime();
    if (next > horizon) break;
    // Advance the clock before running the event so that now() is the
    // event's firing time inside the handler.
    now_ = next;
    queue_.RunNext(*handler_);
    ++executed;
  }
  if (now_ < horizon && horizon != kSimTimeMax) now_ = horizon;
  return executed;
}

}  // namespace d3t::sim
