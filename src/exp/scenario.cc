#include "exp/scenario.h"

#include <algorithm>
#include <utility>

#include "common/random.h"

namespace d3t::exp {

using core::ScenarioOp;
using core::ScenarioOpKind;

ScenarioBuilder& ScenarioBuilder::FailRepo(sim::SimTime at,
                                           core::OverlayIndex member) {
  ScenarioOp op;
  op.at = at;
  op.kind = ScenarioOpKind::kRepoFail;
  op.member = member;
  ops_.push_back(op);
  last_failed_ = member;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::RecoverAt(sim::SimTime at) {
  if (last_failed_ == core::kInvalidOverlayIndex) {
    // No FailRepo to chain off; remembered and surfaced at Build().
    dangling_recover_ = true;
    return *this;
  }
  return RecoverRepo(at, last_failed_);
}

ScenarioBuilder& ScenarioBuilder::RecoverRepo(sim::SimTime at,
                                              core::OverlayIndex member) {
  ScenarioOp op;
  op.at = at;
  op.kind = ScenarioOpKind::kRepoRecover;
  op.member = member;
  ops_.push_back(op);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::ChangeCoherency(sim::SimTime at,
                                                  core::OverlayIndex member,
                                                  core::ItemId item,
                                                  core::Coherency c) {
  ScenarioOp op;
  op.at = at;
  op.kind = ScenarioOpKind::kCoherencyChange;
  op.member = member;
  op.item = item;
  op.c = c;
  ops_.push_back(op);
  return *this;
}

Result<core::Scenario> ScenarioBuilder::Build() const {
  if (dangling_recover_) {
    return Status::FailedPrecondition(
        "RecoverAt called before any FailRepo");
  }
  return core::Scenario::Create(ops_);
}

Result<core::Scenario> MakeChurnScenario(const ChurnOptions& options) {
  if (options.repositories == 0) {
    return Status::InvalidArgument("churn needs at least one repository");
  }
  if (options.horizon <= 0) {
    return Status::InvalidArgument("churn needs a positive horizon");
  }
  // Written so that a NaN bound fails: it compares false either way.
  if (!(options.min_outage_fraction > 0.0) ||
      !(options.max_outage_fraction >= options.min_outage_fraction) ||
      !(options.max_outage_fraction < 1.0)) {
    return Status::InvalidArgument(
        "need 0 < min_outage_fraction <= max_outage_fraction < 1");
  }

  // Decorrelated stream, PerSourceSeed-style: mix the base seed with a
  // subsystem constant through SplitMix64 so churn randomness never
  // collides with the Fork() stream family other consumers of the same
  // seed draw from.
  uint64_t state =
      options.seed ^ 0xc2b2ae3d27d4eb4fULL;  // churn subsystem salt
  Rng rng(SplitMix64(state));

  // Per-repository outage intervals already placed, to keep one
  // repository's episodes disjoint (a double-fail is an invalid script).
  std::vector<std::vector<std::pair<sim::SimTime, sim::SimTime>>> busy(
      options.repositories + 1);
  ScenarioBuilder builder;
  const double h = static_cast<double>(options.horizon);
  size_t placed = 0;
  // Bounded rejection sampling: an episode landing on an already-down
  // repository window is redrawn; pathological option combinations end
  // with fewer episodes rather than looping forever.
  for (size_t attempt = 0;
       attempt < options.failures * 16 && placed < options.failures;
       ++attempt) {
    const core::OverlayIndex member = static_cast<core::OverlayIndex>(
        1 + rng.NextBounded(options.repositories));
    const double fraction = rng.NextDoubleInRange(
        options.min_outage_fraction, options.max_outage_fraction);
    const sim::SimTime duration =
        std::max<sim::SimTime>(1, static_cast<sim::SimTime>(fraction * h));
    if (duration >= options.horizon) continue;
    const sim::SimTime start = static_cast<sim::SimTime>(rng.NextBounded(
        static_cast<uint64_t>(options.horizon - duration)));
    const sim::SimTime end = start + duration;
    bool overlaps = false;
    for (const auto& [s, e] : busy[member]) {
      if (start <= e && s <= end) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) continue;
    busy[member].emplace_back(start, end);
    builder.FailRepo(start, member).RecoverAt(end);
    ++placed;
  }
  if (placed == 0) {
    return Status::FailedPrecondition(
        "churn options could not place any outage episode");
  }
  return builder.Build();
}

}  // namespace d3t::exp
