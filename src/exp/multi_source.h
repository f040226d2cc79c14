#ifndef D3T_EXP_MULTI_SOURCE_H_
#define D3T_EXP_MULTI_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exp/session.h"

namespace d3t::exp {

/// Multi-source deployment (paper §4: "the extension to deal with
/// multiple sources is fairly straightforward"). Data items are
/// partitioned round-robin across the World's sources
/// (NetworkConfig::source_count); each source roots an independent
/// dissemination graph built by LeLA over the same repositories, and the
/// per-item trees of different sources coexist on the shared physical
/// network (the peer-to-peer reading of §8: a repository can serve item
/// x while being served item y).

/// Per-source slice of the aggregate result.
struct SourceSlice {
  size_t items = 0;
  uint64_t messages = 0;
  uint64_t source_checks = 0;
  double pair_loss_percent = 0.0;
  uint64_t tracked_pairs = 0;
};

struct MultiSourceResult {
  /// Pair-weighted loss of fidelity across all sources' items.
  double loss_percent = 0.0;
  uint64_t messages = 0;
  uint64_t checks = 0;
  /// Largest per-source check count — the hottest source.
  uint64_t max_source_checks = 0;
  std::vector<SourceSlice> per_source;
};

/// Builds the RunSpecs RunMultiSource executes: one copy of `base` per
/// source, each rooted at its source with a decorrelated
/// PerSourceSeed(base.seed, s) stream. Exposed so callers can tweak
/// specs before running them on a session.
std::vector<RunSpec> MultiSourceSpecs(const RunSpec& base,
                                      size_t source_count);

/// Runs the multi-source experiment on `session`'s World: one engine run
/// per world().source_count() source, each serving the items that
/// source owns over its own LeLA overlay, sharded across the session's
/// worker pool. Metrics are aggregated pair-weighted in source order
/// (deterministic regardless of scheduling).
Result<MultiSourceResult> RunMultiSource(const SimulationSession& session,
                                         const RunSpec& base);

}  // namespace d3t::exp

#endif  // D3T_EXP_MULTI_SOURCE_H_
