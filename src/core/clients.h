#ifndef D3T_CORE_CLIENTS_H_
#define D3T_CORE_CLIENTS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/interest.h"
#include "core/types.h"

namespace d3t::core {

/// An end client of the architecture (paper §1.2 / Fig. 2): it connects
/// to one repository and states a coherency requirement for one item.
struct Client {
  /// Overlay member the client is attached to (1-based; never the
  /// source).
  OverlayIndex repository = kInvalidOverlayIndex;
  ItemId item = kInvalidItem;
  Coherency c = 0.0;
};

/// Parameters of the client workload generator. Tolerances come from
/// the paper's stringent/loose ranges (DrawTolerance).
struct ClientWorkloadOptions {
  size_t repository_count = 100;
  size_t item_count = 100;
  /// Clients attached to each repository (uniform in [min, max]).
  size_t min_clients_per_repository = 1;
  size_t max_clients_per_repository = 10;
  /// Fraction of clients with a stringent tolerance (the paper's T).
  double stringent_fraction = 0.5;
};

/// Generates a random population of clients. Every repository gets at
/// least `min_clients_per_repository` clients; each client picks a
/// uniform item and a tolerance from the configured mix.
std::vector<Client> GenerateClients(const ClientWorkloadOptions& options,
                                    Rng& rng);

/// Derives each repository's data needs from its clients: the paper's
/// rule that "the coherency requirement for data item x at a repository
/// is the most stringent requirement across all clients that obtain x
/// from it". Result index i belongs to overlay member i + 1. Clients
/// referencing the source or out-of-range repositories are ignored.
std::vector<InterestSet> DeriveInterests(const std::vector<Client>& clients,
                                         size_t repository_count);

}  // namespace d3t::core

#endif  // D3T_CORE_CLIENTS_H_
