#ifndef D3T_CORE_COOP_DEGREE_H_
#define D3T_CORE_COOP_DEGREE_H_

#include <cstddef>

#include "sim/time.h"

namespace d3t::core {

/// Inputs to the Eq. (2) heuristic for the "optimal" degree of
/// cooperation.
struct CoopDegreeInputs {
  /// Average repository-to-repository communication delay.
  sim::SimTime avg_comm_delay = sim::Millis(25);
  /// Average computational delay to disseminate one update to one
  /// dependent (the paper's 12.5 ms).
  sim::SimTime avg_comp_delay = sim::Millis(12.5);
  /// The paper's constant f: on average only 1/f of a node's dependents
  /// are interested in a given update, which discounts the effective
  /// computational delay. The paper reports fidelity is insensitive for
  /// f >= 50; 50 is the default.
  double f = 50.0;
  /// Upper bound on the cooperative resources a node can offer
  /// (the paper's `Resources` cap).
  size_t max_resources = 100;
};

/// Computes the degree of cooperation per Eq. (2) of the paper: growing
/// in the communication delay, shrinking in the computational delay,
/// scaled by the interest-fraction constant f and capped by
/// `max_resources`. The exact form in the published text is
/// typographically garbled; this reconstruction
///     degree = clamp(round(sqrt(comm/comp) * (f/14)), 1, max_resources)
/// reproduces the paper's stated operating point (degree ~= 5 for
/// comm ~= 25 ms, comp = 12.5 ms, f = 50), the documented
/// monotonicities, and — like the paper's Fig. 7(b,c) — keeps the chosen
/// degree below the regime where a node's per-dependent computational
/// delay saturates it (which a linear response to a 10x communication-
/// delay sweep does not). A zero computational delay yields
/// `max_resources` (communication fully dominates).
size_t ComputeCooperationDegree(const CoopDegreeInputs& inputs);

}  // namespace d3t::core

#endif  // D3T_CORE_COOP_DEGREE_H_
