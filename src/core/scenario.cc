#include "core/scenario.h"

#include <algorithm>
#include <map>

#include "core/coherency.h"

namespace d3t::core {

const char* ScenarioOpKindName(ScenarioOpKind kind) {
  switch (kind) {
    case ScenarioOpKind::kRepoFail:
      return "repo-fail";
    case ScenarioOpKind::kRepoRecover:
      return "repo-recover";
    case ScenarioOpKind::kCoherencyChange:
      return "coherency-change";
  }
  return "unknown";
}

namespace {

std::string OpLabel(const ScenarioOp& op, size_t index) {
  return std::string(ScenarioOpKindName(op.kind)) + " op #" +
         std::to_string(index) + " (member " + std::to_string(op.member) +
         ", t=" + std::to_string(op.at) + ")";
}

}  // namespace

Result<Scenario> Scenario::Create(std::vector<ScenarioOp> ops) {
  // Stable by-time sort: same-instant ops keep authoring order, so a
  // script is a total order and every run replays it identically.
  std::stable_sort(ops.begin(), ops.end(),
                   [](const ScenarioOp& a, const ScenarioOp& b) {
                     return a.at < b.at;
                   });
  // `failed` tracks the script's own fail/recover schedule so static
  // validation can reject contradictory scripts (double fail, recover
  // of a live member, renegotiation on a down member) without knowing
  // anything about the world the scenario will run against.
  std::map<OverlayIndex, bool> failed;
  for (size_t i = 0; i < ops.size(); ++i) {
    const ScenarioOp& op = ops[i];
    if (op.at < 0) {
      return Status::InvalidArgument(OpLabel(op, i) +
                                     ": negative firing time");
    }
    if (op.member == kSourceOverlayIndex) {
      return Status::InvalidArgument(OpLabel(op, i) +
                                     ": the source cannot be a target");
    }
    if (op.member == kInvalidOverlayIndex) {
      return Status::InvalidArgument(OpLabel(op, i) + ": invalid member");
    }
    switch (op.kind) {
      case ScenarioOpKind::kRepoFail:
        if (failed[op.member]) {
          return Status::FailedPrecondition(
              OpLabel(op, i) + ": member is already failed");
        }
        failed[op.member] = true;
        break;
      case ScenarioOpKind::kRepoRecover:
        if (!failed[op.member]) {
          return Status::FailedPrecondition(
              OpLabel(op, i) + ": member is not failed");
        }
        failed[op.member] = false;
        break;
      case ScenarioOpKind::kCoherencyChange:
        if (!IsValidTolerance(op.c)) {
          return Status::InvalidArgument(
              OpLabel(op, i) + ": tolerance must be finite and > 0");
        }
        if (op.item == kInvalidItem) {
          return Status::InvalidArgument(OpLabel(op, i) + ": invalid item");
        }
        if (failed[op.member]) {
          return Status::FailedPrecondition(
              OpLabel(op, i) + ": member is failed at this time");
        }
        break;
      default:
        return Status::InvalidArgument(
            OpLabel(op, i) + ": unknown op kind " +
            std::to_string(static_cast<uint32_t>(op.kind)));
    }
  }
  return Scenario(std::move(ops));
}

Status Scenario::ValidateAgainst(size_t member_count,
                                 size_t item_count) const {
  for (size_t i = 0; i < ops_.size(); ++i) {
    const ScenarioOp& op = ops_[i];
    if (op.member >= member_count) {
      return Status::OutOfRange(OpLabel(op, i) + ": member out of range (" +
                                std::to_string(member_count) + " members)");
    }
    if (op.kind == ScenarioOpKind::kCoherencyChange &&
        op.item >= item_count) {
      return Status::OutOfRange(OpLabel(op, i) + ": item out of range (" +
                                std::to_string(item_count) + " items)");
    }
  }
  return Status::Ok();
}

Status CheckLiveness(const ScenarioOp& op, bool member_failed) {
  const bool recover = op.kind == ScenarioOpKind::kRepoRecover;
  if (member_failed == recover) return Status::Ok();
  const char* what = "coherency change";
  const char* state = " is failed";
  if (op.kind == ScenarioOpKind::kRepoFail) {
    what = "fail";
    state = " already failed";
  } else if (recover) {
    what = "recover";
    state = " is not failed";
  }
  return Status::FailedPrecondition(std::string("scenario ") + what +
                                    ": member " + std::to_string(op.member) +
                                    state);
}

Result<RepairPolicy> ParseRepairPolicy(const std::string& name) {
  const std::vector<std::string>& known = KnownRepairPolicyNames();
  for (size_t i = 0; i < known.size(); ++i) {
    if (name == known[i]) return static_cast<RepairPolicy>(i);
  }
  std::string message =
      "unknown repair policy '" + name + "'; known policies:";
  for (const std::string& policy : known) message += " " + policy;
  return Status::InvalidArgument(message);
}

const std::vector<std::string>& KnownRepairPolicyNames() {
  static const std::vector<std::string> names = {"fallback", "lela",
                                                 "on-recovery"};
  return names;
}

}  // namespace d3t::core
