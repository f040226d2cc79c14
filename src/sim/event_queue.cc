#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace d3t::sim {

// d3t-lint: hot
void EventQueue::Schedule(SimTime when, Event event) {
  assert(when >= 0);
  const Item item{when, next_seq_++, event};
  size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const size_t parent = (hole - 1) / kArity;
    if (!item.Before(heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = item;
}

// d3t-lint: hot
SimTime EventQueue::RunNext(EventHandler& handler) {
  assert(!heap_.empty());
  // Copied out before the sift: the handler may schedule further events.
  const Item top = heap_.front();
  const Item last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n > 0) {
    size_t hole = 0;
    for (size_t first = 1; first < n; first = hole * kArity + 1) {
      const size_t end = std::min(first + kArity, n);
      size_t best = first;
      for (size_t c = first + 1; c < end; ++c) {
        if (heap_[c].Before(heap_[best])) best = c;
      }
      if (!heap_[best].Before(last)) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = last;
  }
  handler.HandleEvent(top.when, top.event);
  return top.when;
}

}  // namespace d3t::sim
