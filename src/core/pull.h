#ifndef D3T_CORE_PULL_H_
#define D3T_CORE_PULL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/fidelity.h"
#include "core/interest.h"
#include "core/scenario.h"
#include "net/delay_model.h"
#include "net/transport.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace d3t::core {

/// Pull-based coherency maintenance with adaptive TTR (time-to-refresh),
/// the alternative mechanism the paper's §8 points to (its refs [22]
/// Srinivasan et al. and [4] Bhide et al.). Every repository polls the
/// source directly for each item of interest; the interval between
/// polls adapts to the observed rate of change of the item relative to
/// the repository's tolerance:
///
///   * after a poll that returned a changed value, estimate the change
///     rate r = |v_new - v_old| / elapsed and aim the next TTR at
///     `safety * c / r` (time for the item to plausibly drift past c);
///   * after a quiet poll, grow the TTR multiplicatively;
///   * always clamp to [ttr_min, ttr_max].
///
/// With `adaptive = false` the TTR is pinned at `initial_ttr`,
/// reproducing the classic fixed-period polling baseline.
struct PullOptions {
  sim::SimTime ttr_min = sim::Millis(250);
  sim::SimTime ttr_max = sim::Seconds(30);
  sim::SimTime initial_ttr = sim::Seconds(1);
  /// Fraction of the rate-derived deadline actually used (< 1 polls
  /// early, hedging against acceleration).
  double safety = 0.5;
  /// Multiplicative TTR growth after a poll that observed no violation.
  double grow_factor = 1.3;
  bool adaptive = true;
  /// Server cost to produce one poll response (busy-server model, like
  /// the push engine's per-dependent cost).
  sim::SimTime comp_delay = sim::Millis(12.5);
  /// When non-null, both inter-node legs of every poll round trip
  /// (request toward the source, response back) are serialized through
  /// the wire format over this transport (peer ids = overlay indices;
  /// peer_count() must cover source + repositories). Send is followed
  /// by an immediate receiver-side drain, so events land on the queue
  /// at the same instant and in the same insertion order as the direct
  /// path — metrics are byte-identical either way (pinned by
  /// DeterminismTest). The source-internal service phase never crosses
  /// the wire. The transport must outlive the engine.
  net::Transport* wire_transport = nullptr;
  /// Optional flight recorder: completed poll round trips and scenario
  /// ops are recorded at their logical sim times. Attach-only — never
  /// touches PullMetrics or event order. Must outlive the engine.
  obs::Recorder* recorder = nullptr;
  /// Optional metrics registry: Run() publishes final PullMetrics under
  /// "pull.*" names after aggregation. Must outlive the engine.
  obs::Registry* registry = nullptr;
};

/// Results of a pull simulation. Poll traffic counts two messages per
/// poll (request + response) so it is comparable with the push engine's
/// one-way message counter.
struct PullMetrics {
  double loss_percent = 0.0;
  std::vector<double> per_member_loss;
  uint64_t polls = 0;
  uint64_t wire_messages = 0;  // 2 * polls
  /// Polls whose response carried a value differing from the previous
  /// poll's (useful polls).
  uint64_t changed_polls = 0;
  /// Scenario ops applied (0 without a scenario).
  uint64_t scenario_ops = 0;
  /// Poll phases swallowed because the polling repository was failed
  /// (or had left) when they fired; each suspends that pair's loop
  /// until the repository recovers.
  uint64_t suppressed_polls = 0;
  /// Failure-aware fidelity accounting over failed members' pairs —
  /// same semantics as EngineMetrics' outage fields.
  sim::SimTime outage_pair_time = 0;
  sim::SimTime outage_out_of_sync_time = 0;
  double outage_loss_percent = 0.0;
  sim::SimTime horizon = 0;
  /// Fraction of the horizon the source spent serving poll responses.
  double source_utilization = 0.0;
};

/// Simulates direct source polling for every (repository, item) pair in
/// `interests` (repository i is overlay member i + 1). `delays` supplies
/// request/response one-way delays; `traces[item]` is the source value
/// process. No overlay is involved: pull is the non-cooperative
/// baseline the push architecture is compared against.
///
/// Runs entirely on typed POD kPullPoll events (one per poll phase:
/// request arrival, service completion, response arrival); fidelity
/// trackers are trace-bound and integrate the source process lazily, so
/// no per-tick source events exist at all.
class PullEngine final : public sim::EventHandler {
 public:
  /// `change_timelines`, when non-null, must be the compacted per-item
  /// timelines of exactly `traces` (BuildChangeTimelines output, e.g. a
  /// World-cached copy shared across runs) and lets Run() skip its own
  /// trace pass; null rebuilds them per run.
  ///
  /// `scenario`, when non-null and non-empty, scripts mid-run dynamics:
  /// failed repositories stop polling (their in-flight phases are
  /// swallowed, suspending each pair's loop) and resume at recovery;
  /// interest churn starts/stops poll loops; coherency renegotiation
  /// retargets a loop's tolerance and TTR adaptation. A null or empty
  /// scenario is byte-identical to the scenario-free engine.
  PullEngine(const net::OverlayDelayModel& delays,
             const std::vector<InterestSet>& interests,
             const std::vector<trace::Trace>& traces,
             const PullOptions& options,
             const ChangeTimelines* change_timelines = nullptr,
             const Scenario* scenario = nullptr);

  Result<PullMetrics> Run();

 private:
  /// Phases of one poll round trip, carried in Event::b.
  enum PollPhase : uint64_t {
    kPollRequest = 0,   // request reaches the source
    kPollServiced = 1,  // source finished producing the response
    kPollResponse = 2,  // response reaches the repository
  };

  /// Lifecycle of one (repository, item) poll loop under a scenario.
  enum class LoopStatus : uint8_t {
    kRunning = 0,   // loop live (always the case without a scenario)
    kSuspended = 1, // owner failed; resumes at recovery
    kLeft = 2,      // interest dropped; never resumes
  };

  struct PollState {
    OverlayIndex member = kInvalidOverlayIndex;
    ItemId item = kInvalidItem;
    Coherency c = 0.0;
    sim::SimTime ttr = 0;
    sim::SimTime last_response_time = 0;
    double last_value = 0.0;
    /// Value sampled at service time, in flight toward the repository.
    /// One slot suffices: each poll loop has at most one outstanding
    /// round trip.
    double inflight_value = 0.0;
    size_t tracker = 0;
    LoopStatus status = LoopStatus::kRunning;
    /// A later kInterestJoin re-opened this (member, item) pair: the
    /// pair reports only its most recent observation window (exactly
    /// the push engine's re-join semantics), so this left loop's
    /// tracker is excluded from aggregation.
    bool superseded = false;
  };

  void HandleEvent(sim::SimTime t, const sim::Event& event) override;

  void SchedulePoll(PollState& state, sim::SimTime when);
  /// Wire-mode leg transfer: encodes a kPoll frame (`phase` is the
  /// PollPhase the leg lands in, `value` the in-flight sample on
  /// responses), sends it to `to`, and immediately drains `to`'s ring
  /// so the event is inserted at this exact call point. A full ring is
  /// drained and retried once; persistent failure poisons
  /// `wire_status_`.
  void SendFramedPoll(OverlayIndex from, OverlayIndex to, sim::SimTime at,
                      size_t state_index, uint64_t phase, double value);
  /// Decodes every frame pending for `to`, applying response payloads
  /// and scheduling the poll events they carry. The first malformed
  /// frame (wrong type, address, loop or phase, arrival before the
  /// clock) poisons `wire_status_`.
  void DrainWireFrames(OverlayIndex to);
  void HandleRequestAtSource(sim::SimTime t, size_t state_index);
  void HandleServiced(sim::SimTime t, size_t state_index);
  void HandleResponse(sim::SimTime t, size_t state_index);
  void AdaptTtr(PollState& state, sim::SimTime now, double value);

  /// Scenario runtime (inert without a scenario).
  void HandleScenario(sim::SimTime t, uint32_t op_index);
  /// Swallows a poll phase whose owner is failed/left; returns true
  /// when the phase must not proceed.
  bool SuppressPhase(size_t state_index);
  /// Index of `member`'s active (non-kLeft) loop for `item`; SIZE_MAX
  /// when none exists.
  size_t FindActiveState(OverlayIndex member, ItemId item) const;
  /// Folds the outage staleness of `m`'s pairs into the metrics.
  void CloseOutageWindow(sim::SimTime t, OverlayIndex m);

  const net::OverlayDelayModel& delays_;
  const std::vector<InterestSet>& interests_;
  const std::vector<trace::Trace>& traces_;
  PullOptions options_;

  sim::Simulator simulator_;
  std::vector<PollState> states_;
  std::vector<FidelityTracker> trackers_;
  /// Per-item compacted source timelines the lazy trackers bind to:
  /// either the caller-supplied shared copy or `owned_timelines_`,
  /// built by Run() when no cache was provided.
  const ChangeTimelines* change_timelines_ = nullptr;
  ChangeTimelines owned_timelines_;
  const Scenario* scenario_ = nullptr;
  const ChangeTimelines* resolved_timelines_ = nullptr;
  /// Member liveness plus per-member loop indices (scenario only).
  std::vector<uint8_t> failed_;
  std::vector<sim::SimTime> fail_time_;
  std::vector<std::vector<size_t>> member_states_;
  /// Out-of-sync snapshot per state at its member's failure instant.
  std::vector<sim::SimTime> outage_snap_;
  Status scenario_status_;
  /// First wire-transport failure; Run() surfaces it after the event
  /// loop. Always Ok without a transport.
  Status wire_status_;
  sim::SimTime source_busy_until_ = 0;
  sim::SimTime source_busy_total_ = 0;
  PullMetrics metrics_;
};

}  // namespace d3t::core

#endif  // D3T_CORE_PULL_H_
