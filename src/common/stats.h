#ifndef D3T_COMMON_STATS_H_
#define D3T_COMMON_STATS_H_

#include <cstddef>

namespace d3t {

/// Constant-memory running count, mean, min and max. Used for trace
/// calibration, delay reporting and experiment metrics.
class StreamingStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const;
  double max() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace d3t

#endif  // D3T_COMMON_STATS_H_
