#ifndef D3T_CORE_COHERENCY_H_
#define D3T_CORE_COHERENCY_H_

#include <cmath>

#include "core/types.h"

namespace d3t::core {

/// The update-filtering predicates of Section 5 of the paper. `value` is
/// the update just received by the parent, `last_sent` the value the
/// parent last pushed to the dependent.

/// Deviations must exceed a tolerance by more than this slack to count
/// as a coherency violation in the forwarding predicates. Prices are
/// quantized to cents and tolerances to $0.001, so exact boundary hits
/// (|1.7 - 1.4| vs c = 0.3) are common and must not be decided by
/// floating-point rounding noise.
inline constexpr double kForwardingSlack = 1e-9;

/// Slack used when *measuring* fidelity. Strictly larger than twice the
/// forwarding slack so that the forwarding rules' guarantees (deviation
/// bounded by c plus accumulated forwarding slack along a path) never
/// register as measured violations. Far below the $0.001 tolerance
/// quantum, so no real violation is masked.
inline constexpr double kFidelitySlack = 1e-6;

/// True for a tolerance a repository may ask for: finite and > 0. Every
/// entry that takes a tolerance rejects the rest.
inline bool IsValidTolerance(Coherency c) {
  return std::isfinite(c) && c > 0.0;
}

/// Eq. (1): a parent may serve a dependent only when its own coherency
/// requirement is at least as stringent.
inline bool SatisfiesEq1(Coherency parent_c, Coherency child_c) {
  return parent_c <= child_c;
}

/// Eq. (3): the dependent's coherency is violated by the new value —
/// necessary condition for forwarding.
inline bool ViolatesEq3(double value, double last_sent, Coherency child_c) {
  return std::abs(value - last_sent) > child_c + kForwardingSlack;
}

/// Eq. (7): the missed-updates guard. Even when Eq. (3) does not fire,
/// the *next* source update could violate the dependent without being
/// delivered to the parent (Fig. 4). That happens when
///   child_c - |value - last_sent| < parent_c,
/// i.e. the dependent's remaining slack is smaller than the parent's own
/// tolerance, so a violation of the dependent can hide inside the
/// parent's dead zone.
inline bool MissedUpdateGuard(double value, double last_sent,
                              Coherency child_c, Coherency parent_c) {
  return child_c - std::abs(value - last_sent) <
         parent_c - kForwardingSlack;
}

/// The distributed dissemination rule: forward iff Eq. (3) or Eq. (7)
/// holds — equivalently iff |value - last_sent| > child_c - parent_c.
/// With parent_c == 0 (the source) this reduces to Eq. (3).
inline bool ShouldForwardDistributed(double value, double last_sent,
                                     Coherency child_c, Coherency parent_c) {
  return ViolatesEq3(value, last_sent, child_c) ||
         MissedUpdateGuard(value, last_sent, child_c, parent_c);
}

}  // namespace d3t::core

#endif  // D3T_CORE_COHERENCY_H_
