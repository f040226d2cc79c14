#include "exp/multi_source.h"

#include <algorithm>

namespace d3t::exp {

std::vector<RunSpec> MultiSourceSpecs(const RunSpec& base,
                                      size_t source_count) {
  std::vector<RunSpec> specs(source_count, base);
  for (size_t s = 0; s < source_count; ++s) {
    RunSpec& spec = specs[s];
    spec.source_index = s;
    // Each shard gets its own stream: deriving every source's overlay
    // randomness from the one base seed would correlate the shards.
    spec.seed = PerSourceSeed(base.seed, s);
    spec.label = "source " + std::to_string(s);
  }
  return specs;
}

Result<MultiSourceResult> RunMultiSource(const SimulationSession& session,
                                         const RunSpec& base) {
  const size_t source_count = session.world().source_count();
  const std::vector<Result<ExperimentResult>> runs =
      session.RunAll(MultiSourceSpecs(base, source_count));

  MultiSourceResult result;
  result.per_source.resize(source_count);
  double pair_loss_weighted = 0.0;
  uint64_t total_pairs = 0;
  for (size_t s = 0; s < runs.size(); ++s) {
    if (!runs[s].ok()) return runs[s].status();
    const core::EngineMetrics& metrics = runs[s]->metrics;

    SourceSlice& slice = result.per_source[s];
    slice.items = session.world().OwnedItemCount(s);
    slice.messages = metrics.messages;
    slice.source_checks = metrics.source_checks;
    slice.pair_loss_percent = metrics.pair_loss_percent;
    slice.tracked_pairs = metrics.tracked_pairs;

    result.messages += metrics.messages;
    result.checks += metrics.checks;
    result.max_source_checks =
        std::max(result.max_source_checks, metrics.source_checks);
    pair_loss_weighted += metrics.pair_loss_percent *
                          static_cast<double>(metrics.tracked_pairs);
    total_pairs += metrics.tracked_pairs;
  }
  result.loss_percent =
      total_pairs > 0 ? pair_loss_weighted / static_cast<double>(total_pairs)
                      : 0.0;
  return result;
}

}  // namespace d3t::exp
