#include "common/stats.h"

#include <algorithm>

namespace d3t {

void StreamingStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
}

double StreamingStats::min() const { return count_ == 0 ? 0.0 : min_; }
double StreamingStats::max() const { return count_ == 0 ? 0.0 : max_; }

}  // namespace d3t
