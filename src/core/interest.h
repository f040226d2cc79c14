#ifndef D3T_CORE_INTEREST_H_
#define D3T_CORE_INTEREST_H_

#include <map>
#include <vector>

#include "common/random.h"
#include "core/types.h"

namespace d3t::core {

/// A repository's data needs: the items it wants and the coherency
/// requirement for each. The map is ordered so iteration (and therefore
/// LeLA construction) is deterministic.
using InterestSet = std::map<ItemId, Coherency>;

/// Parameters of the paper's workload generator (§6.1): every repository
/// requests each item with probability `item_probability`, and a
/// fraction `stringent_fraction` (the paper's T%) of its chosen items
/// get a stringent tolerance, the rest a loose one (DrawTolerance).
struct InterestOptions {
  size_t repository_count = 100;
  size_t item_count = 100;
  double item_probability = 0.5;
  double stringent_fraction = 0.5;  // T in [0,1]
};

/// Draws one tolerance from §6.1's ranges, stringent $0.01–$0.099 or
/// loose $0.1–$0.999, quantized to the ranges' $0.001 steps.
Coherency DrawTolerance(bool stringent, Rng& rng);

/// Generates the interest sets for all repositories. Index i of the
/// result corresponds to overlay member i+1 (member 0 is the source).
/// A repository whose draws chose no item gets one uniform item with a
/// loose tolerance, so every repository stays inside the overlay.
std::vector<InterestSet> GenerateInterests(const InterestOptions& options,
                                           Rng& rng);

/// Mean coherency tolerance of a set (used to order insertions by
/// stringency). Returns +inf for an empty set so empty sets sort last.
double MeanCoherency(const InterestSet& interest);

}  // namespace d3t::core

#endif  // D3T_CORE_INTEREST_H_
