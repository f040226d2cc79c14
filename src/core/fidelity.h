#ifndef D3T_CORE_FIDELITY_H_
#define D3T_CORE_FIDELITY_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/types.h"
#include "sim/time.h"
#include "trace/trace.h"

namespace d3t::core {

/// Measures the fidelity of one (repository, item) pair: the fraction of
/// observed time for which |repo value - source value| <= c (paper §1.1
/// and §6.2). The tracker is bound to the source's tick timeline and
/// integrates the source process directly against it — catching up
/// through a cursor whenever the *repository* value changes and at
/// Finalize — so nothing has to push O(holders) source updates on every
/// tick. Callers that track many pairs per item should bind a
/// *compacted* timeline (initial tick plus value changes only, e.g.
/// Engine's per-item change timeline) so the per-tracker walk skips
/// value-repeating polls; a raw Trace::ticks() works too, at one extra
/// step per repeat, and gives bit-identical results: splitting a
/// constant-violation interval at extra event points never changes the
/// integer out-of-sync sum. The walk keeps its state in locals and adds
/// each interval with a conditional add, not a branch, so its cost is
/// one dependent step per source change it crosses.
///
/// Results depend only on the order of one tracker's own calls, never
/// on when they are made: Engine logs the repository values its event
/// loop produces and replays them in batches, before anything reads a
/// tracker (PullEngine calls its trackers directly).
class FidelityTracker {
 public:
  FidelityTracker() = default;

  /// `c` is the user-facing coherency requirement; the source process
  /// is the tick sequence `source_timeline` (strictly increasing times,
  /// non-empty, must outlive the tracker); both processes start at its
  /// first value at time 0 (in sync).
  FidelityTracker(Coherency c,
                  const std::vector<trace::Tick>* source_timeline);

  void OnRepositoryValue(sim::SimTime t, double value);

  /// Integrates both processes up to `t` without closing the window, so
  /// out_of_sync_time() is exact through `t`. Scenario accounting uses
  /// this to snapshot staleness at failure/recovery instants. No-op
  /// after Finalize.
  void SyncTo(sim::SimTime t);

  /// Coherency renegotiation: the requirement becomes `c` from the last
  /// synced instant onward (callers SyncTo(t) first so the old `c`
  /// covers everything before `t`).
  void set_coherency(Coherency c);
  Coherency coherency() const { return c_; }

  /// Closes the observation window at `end`, first integrating any
  /// remaining source-timeline segment. Idempotent; later events are
  /// ignored.
  void Finalize(sim::SimTime end);

  /// Out-of-tolerance time accumulated so far (through the last event or
  /// Finalize()).
  sim::SimTime out_of_sync_time() const { return out_of_sync_time_; }

  /// Loss of fidelity in percent of the window [0, end]; Finalize()
  /// must have been called.
  double LossPercent() const;

  bool violated() const { return violated_; }

 private:
  void Advance(sim::SimTime t);
  /// Consumes source-timeline ticks with time <= t, integrating each
  /// changed value from its tick time on.
  void IntegrateSourceTo(sim::SimTime t);

  Coherency c_ = 0.0;
  double source_value_ = 0.0;
  double repo_value_ = 0.0;
  sim::SimTime last_event_ = 0;
  sim::SimTime out_of_sync_time_ = 0;
  sim::SimTime window_ = 0;
  bool violated_ = false;
  bool finalized_ = false;
  /// Source timeline; null only in a default-constructed placeholder.
  const std::vector<trace::Tick>* source_timeline_ = nullptr;
  /// Next timeline tick to consume (tick 0 is the initial value).
  size_t source_cursor_ = 1;
};

/// Per-item compacted source timelines (index = item id): each timeline
/// keeps the trace's initial tick plus the ticks whose value differs
/// from the previous kept one. Trace-invariant, so a set built once
/// (e.g. at exp::SessionBuilder::Build) can be shared read-only by
/// every engine run against the same traces.
using ChangeTimelines = std::vector<std::vector<trace::Tick>>;

/// Builds the per-item compacted source timelines the lazy trackers
/// bind to: each timeline keeps `traces[i]`'s initial tick plus the
/// ticks whose value differs from the previous kept one (value-
/// repeating polls are not source updates). Every trace must be
/// non-empty; shared by all trackers of an item so the per-tracker walk
/// only ever visits genuine changes.
ChangeTimelines BuildChangeTimelines(const std::vector<trace::Trace>& traces);

/// Cheap structural consistency check binding a timeline cache to the
/// traces it claims to compact (used by Engine/PullEngine when a caller
/// supplies a shared cache): per item, the timeline must be non-empty,
/// no longer than the trace, start at the trace's initial tick (time
/// and value) and end no later than its final tick. O(items) — it
/// cannot prove the cache was built from exactly these traces; callers
/// own that contract (exp::World builds and stores the two together).
Status ValidateChangeTimelines(const ChangeTimelines& timelines,
                               const std::vector<trace::Trace>& traces);

/// Run horizon shared by Engine and PullEngine: the latest final tick
/// over `traces`. Rejects an empty trace and a tick before 0 or at or
/// after kSimTimeMax / 4, naming the item: every event time is a tick
/// time plus delays and busy periods that are each held below that
/// bound, so no event time can overflow.
Result<sim::SimTime> TraceHorizon(const std::vector<trace::Trace>& traces);

/// Loss aggregation of paper §6.2, shared by Engine and PullEngine:
/// `loss_sums[m]` sums member m's per-item loss percents in item order
/// and `pair_counts[m]` counts them (index 0 is the source; both the
/// same size). Fills `per_member_loss` with each member's mean (0 for
/// the source, -1 for a member that tracks nothing) and returns the
/// mean over the members that track anything, 0 when none does.
double AggregateLoss(const std::vector<double>& loss_sums,
                     const std::vector<size_t>& pair_counts,
                     std::vector<double>& per_member_loss);

/// Borrow-or-build resolution shared by Engine and PullEngine: returns
/// `cache` after validating it against `traces`, or — when no cache was
/// supplied — builds the timelines into `owned` and returns its
/// address. Every trace must be non-empty. The returned pointer is
/// valid as long as both `cache` (if used) and `owned` live.
Result<const ChangeTimelines*> ResolveChangeTimelines(
    const ChangeTimelines* cache, const std::vector<trace::Trace>& traces,
    ChangeTimelines& owned);

}  // namespace d3t::core

#endif  // D3T_CORE_FIDELITY_H_
