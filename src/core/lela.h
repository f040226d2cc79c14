#ifndef D3T_CORE_LELA_H_
#define D3T_CORE_LELA_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/interest.h"
#include "core/overlay.h"
#include "net/delay_model.h"

namespace d3t::core {

/// Preference-factor variants studied in the paper (Fig. 10).
enum class PreferenceFunction {
  /// P1 = comm_delay * (1 + #dependents) / (1 + #servable items).
  kP1,
  /// P2 = comm_delay * (1 + #dependents); ignores data availability.
  kP2,
};

/// Order in which repositories are inserted into the d3g.
enum class InsertionOrder {
  /// Most stringent (smallest mean tolerance) first — the paper's
  /// observation that stringent repositories must sit closer to the
  /// source.
  kStringentFirst,
  /// Uniformly random order (ablation).
  kRandom,
  /// Given index order.
  kIndexOrder,
};

/// Options of the Level-by-Level Algorithm (paper §4).
struct LelaOptions {
  /// Maximum number of connection dependents any member (including the
  /// source) will serve — the degree of cooperation. Must be >= 1.
  size_t coop_degree = 5;
  /// The P% closeness window: candidates within (1 + p_window) of the
  /// smallest preference become parents. Must be finite and >= 0.
  double p_window = 0.05;
  PreferenceFunction preference = PreferenceFunction::kP1;
  InsertionOrder insertion_order = InsertionOrder::kStringentFirst;
};

/// Diagnostics of one construction.
struct LelaBuildInfo {
  size_t levels = 0;
  /// Per-item edges created for repositories' own needs.
  size_t demand_edges = 0;
  /// Per-item edges created by cascading augmentation (a parent taking
  /// on data it did not itself need).
  size_t augmented_edges = 0;
  /// Repositories served by more than one connection parent.
  size_t multi_parent_repositories = 0;
};

/// Result of BuildOverlay.
struct LelaResult {
  Overlay overlay;
  LelaBuildInfo info;
};

/// Builds the d3g with LeLA. `interests[i]` belongs to overlay member
/// i + 1; member 0 is the source, which holds every item at tolerance 0.
/// `delays` supplies repository-to-repository communication delays for
/// the preference factor and must cover all members. Every tolerance
/// must be finite and > 0. `rng` breaks the random choices the paper
/// leaves open (supplier selection during cascading augmentation, random
/// insertion order).
Result<LelaResult> BuildOverlay(const net::OverlayDelayModel& delays,
                                const std::vector<InterestSet>& interests,
                                size_t item_count, const LelaOptions& options,
                                Rng& rng);

}  // namespace d3t::core

#endif  // D3T_CORE_LELA_H_
