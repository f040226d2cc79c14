#ifndef D3T_EXP_SCENARIO_H_
#define D3T_EXP_SCENARIO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/scenario.h"
#include "sim/time.h"

namespace d3t::exp {

/// Fluent authoring of a core::Scenario — the scripted mid-run dynamics
/// a RunSpec carries. Ops may be added in any time order; Build() sorts
/// (stable) and validates.
///
///   auto scenario = ScenarioBuilder()
///       .FailRepo(sim::Seconds(30), 7).RecoverAt(sim::Seconds(90))
///       .FailRepo(sim::Seconds(45), 12)             // never recovers
///       .ChangeCoherency(sim::Seconds(75), 4, 0, 0.5)
///       .Build();
///
/// Members are overlay indices: 0 is the source (never a legal target),
/// repository i of the World is member i + 1.
class ScenarioBuilder {
 public:
  /// Repository `member` crashes at `at`.
  ScenarioBuilder& FailRepo(sim::SimTime at, core::OverlayIndex member);
  /// The member of the most recent FailRepo recovers at `at` (chained
  /// form). Must follow a FailRepo.
  ScenarioBuilder& RecoverAt(sim::SimTime at);
  /// Explicit-member recovery (when the chained form reads poorly).
  ScenarioBuilder& RecoverRepo(sim::SimTime at, core::OverlayIndex member);
  /// Coherency renegotiation: `member`'s own tolerance for `item`
  /// becomes `c`.
  ScenarioBuilder& ChangeCoherency(sim::SimTime at,
                                   core::OverlayIndex member,
                                   core::ItemId item, core::Coherency c);

  /// Sorts and statically validates the script (core::Scenario::Create).
  /// A RecoverAt with no preceding FailRepo fails here.
  Result<core::Scenario> Build() const;

 private:
  std::vector<core::ScenarioOp> ops_;
  core::OverlayIndex last_failed_ = core::kInvalidOverlayIndex;
  bool dangling_recover_ = false;
};

/// Random-churn generation: `failures` fail/recover episodes spread
/// over the run, each repository down for a uniform fraction of the
/// horizon. Episodes of one repository never overlap; the generated
/// script is a deterministic function of the options.
struct ChurnOptions {
  /// Repositories in the world (members 1..repositories are eligible).
  size_t repositories = 0;
  /// Fail/recover episodes to generate.
  size_t failures = 4;
  /// Observation horizon (trace end) the episodes are placed within.
  sim::SimTime horizon = 0;
  /// Outage duration bounds as fractions of the horizon.
  double min_outage_fraction = 0.05;
  double max_outage_fraction = 0.25;
  /// Base seed; the generator decorrelates its stream from the run's
  /// other RNG consumers the same way PerSourceSeed does, so attaching
  /// churn to a run never perturbs LeLA's or the workload's randomness.
  uint64_t seed = 42;
};

/// Builds the churn scenario. Fails when the options cannot produce a
/// valid script (no repositories, horizon too small, bad fractions).
Result<core::Scenario> MakeChurnScenario(const ChurnOptions& options);

}  // namespace d3t::exp

#endif  // D3T_EXP_SCENARIO_H_
