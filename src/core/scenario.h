#ifndef D3T_CORE_SCENARIO_H_
#define D3T_CORE_SCENARIO_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "core/types.h"
#include "sim/time.h"

namespace d3t::core {

/// One kind of scripted mid-run world mutation. The paper's cooperative
/// repositories are explicitly resilient — repositories fail mid-
/// dissemination, dependents detect the silence and re-attach to backup
/// parents, and coherency needs are renegotiated live (§4: a repository
/// "specifies the list of data items of interest, their c values, and
/// its degree of cooperation" when it enters; changed requirements
/// reapply the algorithm). A Scenario scripts those dynamics against a
/// run deterministically.
enum class ScenarioOpKind : uint32_t {
  /// `member` crashes: its queued and in-flight deliveries are dropped,
  /// it is detached from every item tree (dependents are orphaned until
  /// repaired; see RepairPolicy) and its own needs are captured for a
  /// later kRepoRecover.
  kRepoFail = 0,
  /// `member` comes back: its captured needs are re-attached to live
  /// parents and — under RepairPolicy::kOnRecovery — its orphaned
  /// former dependents re-join under it.
  kRepoRecover,
  /// `member` declares a new own interest in `item` at tolerance `c`
  /// and is attached to a live holder (its copy is assumed synchronized
  /// at join time, as a join-time fetch would leave it).
  kInterestJoin,
  /// `member` drops its own interest in `item`. A childless holding is
  /// removed outright (the edge id is recycled); a relaying member
  /// keeps serving its dependents at the loosened effective tolerance.
  kInterestLeave,
  /// Coherency renegotiation: `member`'s own tolerance for `item`
  /// becomes `c`. Tightening and loosening both propagate up the
  /// serving chain (c_serve = min(own, dependents) at every hop).
  kCoherencyChange,
};

/// Human-readable op name for diagnostics.
const char* ScenarioOpKindName(ScenarioOpKind kind);

/// One scripted world-mutation op. A 32-byte POD row of the scenario
/// table; the event kernel carries only an index into that table
/// (sim::EventKind::kScenario), so nothing on the hot path allocates or
/// type-erases.
// d3t-lint: pod-event
struct ScenarioOp {
  sim::SimTime at = 0;
  ScenarioOpKind kind = ScenarioOpKind::kRepoFail;
  /// Overlay member the op targets (0 is the source and is never a
  /// legal target).
  OverlayIndex member = kInvalidOverlayIndex;
  /// Item of an interest/coherency op; ignored by fail/recover.
  ItemId item = kInvalidItem;
  /// Tolerance of a join/coherency op; ignored by the others.
  Coherency c = 0.0;
};
static_assert(sizeof(ScenarioOp) == 32,
              "scenario ops are 32-byte table rows; growing them grows "
              "every script and the event kernel's cache footprint");
static_assert(std::is_trivially_copyable_v<ScenarioOp>,
              "scenario ops must stay PODs — the event kernel carries "
              "indexes into the op table across (future) thread "
              "boundaries");

/// An immutable, time-sorted script of world-mutation ops, attached to
/// a run (exp::RunSpec::scenario) and delivered through the typed event
/// kernel. Statically validated at Create: ops are sorted by time
/// (stable, so same-instant ops apply in authoring order), fail/recover
/// alternate per member, no op targets the source, and no interest op
/// targets a member while the script has it failed. An empty Scenario
/// is the no-dynamics baseline and is guaranteed byte-identical to a
/// run without any scenario at all.
class Scenario {
 public:
  Scenario() = default;

  /// Sorts `ops` by time (stable) and validates the schedule's static
  /// invariants (see class comment). Range checks against a concrete
  /// world happen later in ValidateAgainst.
  static Result<Scenario> Create(std::vector<ScenarioOp> ops);

  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }
  const ScenarioOp& op(size_t index) const { return ops_[index]; }
  const std::vector<ScenarioOp>& ops() const { return ops_; }

  /// Checks every op's member/item against a concrete world's sizes
  /// (`member_count` includes the source). Engines call this before
  /// scheduling any kScenario event.
  Status ValidateAgainst(size_t member_count, size_t item_count) const;

 private:
  explicit Scenario(std::vector<ScenarioOp> ops) : ops_(std::move(ops)) {}

  std::vector<ScenarioOp> ops_;
};

/// The liveness precondition the engine checks before applying `op`,
/// given whether `op.member` is failed right now: a fail needs a live
/// member, a recover a failed one, and interest-join, interest-leave and
/// coherency-change ops a live one. FailedPrecondition names the op and
/// the member otherwise.
Status CheckLiveness(const ScenarioOp& op, bool member_failed);

/// How the push engine re-attaches the subtree a failed repository
/// orphans (paper: children detect the silence and re-attach to backup
/// parents).
enum class RepairPolicy : uint32_t {
  /// Re-attach each orphan to the failed member's own per-item parent —
  /// always a legal target by Eq. (1) transitivity — falling back to a
  /// LeLA-style search when that parent is itself down.
  kFallback = 0,
  /// LeLA-style backup-parent placement: among live holders of the item
  /// whose c_serve satisfies Eq. (1) and that are not in the orphan's
  /// own subtree, pick the one with the smallest communication delay to
  /// the orphan (ties broken by member index — deterministic).
  kLela,
  /// No mid-outage repair: orphans wait, integrating staleness, and
  /// re-join under their original parent when it recovers.
  kOnRecovery,
};

/// Parses "fallback" / "lela" / "on-recovery"; the error lists the
/// known names (mirrors exp::ValidatePolicyName for dissemination
/// policies).
Result<RepairPolicy> ParseRepairPolicy(const std::string& name);

/// Every name ParseRepairPolicy accepts, in enum order.
const std::vector<std::string>& KnownRepairPolicyNames();

}  // namespace d3t::core

#endif  // D3T_CORE_SCENARIO_H_
