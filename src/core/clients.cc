#include "core/clients.h"

#include <algorithm>

namespace d3t::core {

std::vector<Client> GenerateClients(const ClientWorkloadOptions& options,
                                    Rng& rng) {
  std::vector<Client> clients;
  if (options.item_count == 0) return clients;
  const size_t lo = options.min_clients_per_repository;
  const size_t hi =
      std::max(lo, options.max_clients_per_repository);
  for (size_t r = 0; r < options.repository_count; ++r) {
    const size_t count =
        lo + static_cast<size_t>(rng.NextBounded(hi - lo + 1));
    for (size_t k = 0; k < count; ++k) {
      Client client;
      client.repository = static_cast<OverlayIndex>(r + 1);
      client.item =
          static_cast<ItemId>(rng.NextBounded(options.item_count));
      const bool stringent =
          rng.NextBernoulli(options.stringent_fraction);
      client.c = DrawTolerance(stringent, rng);
      clients.push_back(client);
    }
  }
  return clients;
}

std::vector<InterestSet> DeriveInterests(const std::vector<Client>& clients,
                                         size_t repository_count) {
  std::vector<InterestSet> interests(repository_count);
  for (const Client& client : clients) {
    if (client.repository == kSourceOverlayIndex ||
        client.repository == kInvalidOverlayIndex ||
        client.repository > repository_count) {
      continue;
    }
    InterestSet& needs = interests[client.repository - 1];
    auto [it, inserted] = needs.emplace(client.item, client.c);
    if (!inserted) it->second = std::min(it->second, client.c);
  }
  return interests;
}

}  // namespace d3t::core
