#include "core/interest.h"

#include <cmath>
#include <limits>

namespace d3t::core {

Coherency DrawTolerance(bool stringent, Rng& rng) {
  const double c = stringent ? rng.NextDoubleInRange(0.01, 0.099)
                             : rng.NextDoubleInRange(0.1, 0.999);
  return std::round(c * 1000.0) / 1000.0;
}

std::vector<InterestSet> GenerateInterests(const InterestOptions& options,
                                           Rng& rng) {
  std::vector<InterestSet> interests(options.repository_count);
  for (auto& interest : interests) {
    for (ItemId item = 0; item < options.item_count; ++item) {
      if (!rng.NextBernoulli(options.item_probability)) continue;
      const bool stringent = rng.NextBernoulli(options.stringent_fraction);
      interest.emplace(item, DrawTolerance(stringent, rng));
    }
    if (interest.empty() && options.item_count > 0) {
      const ItemId item =
          static_cast<ItemId>(rng.NextBounded(options.item_count));
      interest.emplace(item, DrawTolerance(/*stringent=*/false, rng));
    }
  }
  return interests;
}

double MeanCoherency(const InterestSet& interest) {
  if (interest.empty()) return std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (const auto& [item, c] : interest) {
    (void)item;
    sum += c;
  }
  return sum / static_cast<double>(interest.size());
}

}  // namespace d3t::core
