#include "sim/event_queue.h"

#include <cassert>

namespace d3t::sim {

size_t EventQueue::size() const {
  size_t n = 0;
  for (const std::vector<Item>& bucket : buckets_) n += bucket.size();
  return n - head_;
}

// d3t-lint: hot
void EventQueue::Refill() {
  // Every event in bucket i agrees with its minimum on bits i-1 and up,
  // so each lands in a lower bucket, never back in the one being read.
  const int i = __builtin_ctzll(mask_);
  std::vector<Item>& bucket = buckets_[i];
  const SimTime base = base_ = min_[i];
  min_[i] = kSimTimeMax;
  uint64_t mask = mask_ & ~(uint64_t{1} << i);
  for (const Item& item : bucket) mask |= Push(item, base);
  mask_ = mask;
  bucket.clear();
}

}  // namespace d3t::sim
