#include "core/coop_degree.h"

#include <algorithm>
#include <cmath>

namespace d3t::core {

size_t ComputeCooperationDegree(const CoopDegreeInputs& inputs) {
  if (inputs.max_resources == 0) return 1;
  if (inputs.avg_comp_delay <= 0) return inputs.max_resources;
  const double ratio = static_cast<double>(inputs.avg_comm_delay) /
                       static_cast<double>(inputs.avg_comp_delay);
  const double f = std::max(1.0, inputs.f);
  const double degree = std::sqrt(std::max(0.0, ratio)) * (f / 14.0);
  // Clamp before rounding, so a product past the integer range saturates
  // instead of wrapping; NaN (zero comm delay x infinite f) counts as 1.
  if (!(degree >= 1.0)) return 1;
  if (degree >= static_cast<double>(inputs.max_resources)) {
    return inputs.max_resources;
  }
  return static_cast<size_t>(std::llround(degree));
}

}  // namespace d3t::core
