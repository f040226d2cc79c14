#ifndef D3T_CORE_PULL_H_
#define D3T_CORE_PULL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/fidelity.h"
#include "core/interest.h"
#include "net/delay_model.h"
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
  /// Optional flight recorder: completed poll round trips are recorded
  /// at their logical sim times. Attach-only — never touches
  /// PullMetrics or event order. Must outlive the engine.
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
  /// Always 0: the pull baseline runs on a static world. These five
  /// fields stay only because bench/e2e pins this struct's layout.
  uint64_t scenario_ops = 0;
  uint64_t suppressed_polls = 0;
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
  PullEngine(const net::OverlayDelayModel& delays,
             const std::vector<InterestSet>& interests,
             const std::vector<trace::Trace>& traces,
             const PullOptions& options,
             const ChangeTimelines* change_timelines = nullptr);

  Result<PullMetrics> Run();

 private:
  /// Phases of one poll round trip, carried in Event::b.
  enum PollPhase : uint64_t {
    kPollRequest = 0,   // request reaches the source
    kPollServiced = 1,  // source finished producing the response
    kPollResponse = 2,  // response reaches the repository
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
  };

  void HandleEvent(sim::SimTime t, const sim::Event& event) override;

  void SchedulePoll(PollState& state, sim::SimTime when);
  void HandleRequestAtSource(sim::SimTime t, size_t state_index);
  void HandleServiced(sim::SimTime t, size_t state_index);
  void HandleResponse(sim::SimTime t, size_t state_index);
  void AdaptTtr(PollState& state, sim::SimTime now, double value);

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
  sim::SimTime source_busy_until_ = 0;
  sim::SimTime source_busy_total_ = 0;
  PullMetrics metrics_;
};

}  // namespace d3t::core

#endif  // D3T_CORE_PULL_H_
