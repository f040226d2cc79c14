#include "sim/event_queue.h"

#include <cassert>

namespace d3t::sim {

// d3t-lint: hot
void EventQueue::Schedule(SimTime when, Event event) {
  assert(when >= 0);
  heap_.push(Item{when, next_seq_++, event});
}

// d3t-lint: hot
SimTime EventQueue::RunNext(EventHandler& handler) {
  assert(!heap_.empty());
  // Copied out before the pop: the handler may schedule further events.
  const Item top = heap_.top();
  heap_.pop();
  handler.HandleEvent(top.when, top.event);
  return top.when;
}

}  // namespace d3t::sim
