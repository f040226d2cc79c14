#ifndef D3T_CORE_ENGINE_H_
#define D3T_CORE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "core/disseminator.h"
#include "core/fidelity.h"
#include "core/overlay.h"
#include "core/scenario.h"
#include "net/delay_model.h"
#include "net/transport.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace d3t::core {

/// Timing parameters of the dissemination simulation.
struct EngineOptions {
  /// Computational delay charged for each dependent edge a node examines
  /// while processing one update (the paper's 12.5 ms: check + prepare).
  sim::SimTime comp_delay = sim::Millis(12.5);
  /// Fraction of `comp_delay` charged per policy-internal check (the
  /// centralized source's unique-tolerance scan). The paper models these
  /// as part of source load; 0 excludes them from the time model while
  /// still counting them in the check metric.
  double tag_check_cost_factor = 0.0;
  /// Coalesce messages arriving at the same (node, time) into one
  /// batched delivery event carrying a span of pooled jobs. Off = one
  /// event per message (the per-message dispatch baseline of
  /// bench/event_kernel.cc). Metrics are byte-identical either way;
  /// only the physical event count differs.
  bool coalesce_deliveries = true;
  /// Drain a node's whole pending job backlog in one busy-server pass
  /// per wakeup instead of scheduling one NodeProcess event per job.
  /// Per-job accounting (comp_delay accrual, check/message counters,
  /// push times) is unchanged — each drained job starts exactly when its
  /// own NodeProcess event would have fired — so metrics are
  /// byte-identical to per-job processing; only the physical
  /// process-wakeup count drops (see EngineMetrics::process_wakeups).
  /// A drained span stops where per-job processing would: before a job
  /// that would start after the horizon or a pending scenario event.
  /// (Caveat for synthetic delay models: when two *different* parents
  /// push to one child with arrivals at the exact same microsecond,
  /// draining can reorder those jobs within the instant; with nonzero
  /// comp_delay that shifts which job starts first. Routed topologies'
  /// continuous delays make such cross-parent ties vanishingly rare,
  /// and DeterminismTest pins byte-identity on the golden fixtures.)
  bool drain_process_spans = true;
  /// How orphaned subtrees re-attach when a scripted Scenario fails a
  /// repository mid-run (no effect without a scenario).
  RepairPolicy repair_policy = RepairPolicy::kFallback;
  /// Silence-detection window: orphans stay detached (integrating
  /// staleness) for this long after their parent fails before the
  /// repair policy re-attaches them. 0 repairs at the failure instant.
  /// Must be in [0, kSimTimeMax / 4).
  sim::SimTime repair_delay = 0;
  /// When non-null, every inter-node update push is serialized through
  /// the wire format over this transport (peer ids = overlay indices,
  /// so peer_count() must cover member_count()): the sender encodes a
  /// kUpdate frame, Send moves the bytes, and the receiver's drain
  /// decodes and schedules the delivery — at the same instant and in
  /// the same order a direct ScheduleDelivery call would, so metrics
  /// are byte-identical either way (pinned by DeterminismTest) while
  /// every message genuinely round-trips wire::Encode/Decode. Null
  /// keeps the historical direct path. The transport must outlive the
  /// engine.
  net::Transport* wire_transport = nullptr;
  /// When non-null, the run's logical points — source ticks, deliveries,
  /// job processing, scenario ops, repairs — are recorded into this
  /// flight recorder, stamped with logical sim time. Recording never
  /// touches EngineMetrics (recorder-on runs are byte-identical to
  /// recorder-off, pinned by DeterminismTest). The engine also drives
  /// the recorder's logical clock, so an attached wire transport's
  /// frame tx/rx records carry logical stamps too. Must outlive the
  /// engine; null (the default) records nothing.
  obs::Recorder* recorder = nullptr;
  /// When non-null, Run() publishes every field of its final
  /// EngineMetrics into this registry under "engine.*" (cold, once per
  /// run: doubles as gauges, integers as counters, per_member_loss as a
  /// length plus an FNV-1a digest) and feeds the "engine.span_jobs"
  /// histogram per process wakeup. This is how engine results leave a
  /// process. Must outlive the engine.
  obs::Registry* registry = nullptr;
};

/// Results of one simulation run.
struct EngineMetrics {
  /// Mean loss of fidelity (%) over repositories; each repository's loss
  /// is the mean over its own-interest items (paper §6.2).
  double loss_percent = 0.0;
  /// Mean loss over all (repository, item) pairs — weighting every
  /// tracked pair equally. Used to aggregate multiple engines (e.g.
  /// multi-source runs) without re-deriving per-repository item counts.
  double pair_loss_percent = 0.0;
  /// Number of tracked (repository, own-interest item) pairs.
  uint64_t tracked_pairs = 0;
  /// Per-member loss (% | index 0 = source, always 0). Members with no
  /// own-interest items report -1.
  std::vector<double> per_member_loss;
  /// Total update messages pushed along overlay edges.
  uint64_t messages = 0;
  /// Messages pushed by the source itself.
  uint64_t source_messages = 0;
  /// Total dependent-edge checks plus policy-internal checks.
  uint64_t checks = 0;
  /// Checks performed at the source (Fig. 11a).
  uint64_t source_checks = 0;
  /// Source value ticks disseminated (excludes the initial value).
  uint64_t source_updates = 0;
  /// Logical simulation events executed: source ticks, per-message
  /// deliveries and per-job processing steps. Batching- and
  /// span-invariant — a coalesced delivery event carrying k jobs counts
  /// k, and a process wakeup draining a span of k jobs counts k — so the
  /// value is byte-identical to the historical one-event-per-message,
  /// one-event-per-job kernel.
  uint64_t events = 0;
  /// Physical delivery events dispatched (== messages delivered when
  /// coalescing is off; smaller when same-arrival batches form).
  uint64_t delivery_batches = 0;
  /// Messages that rode along an already-scheduled same-(node, arrival)
  /// delivery event instead of scheduling their own.
  uint64_t coalesced_messages = 0;
  /// Physical NodeProcess events dispatched (== jobs processed when span
  /// draining is off; smaller when a wakeup drains a multi-job span).
  uint64_t process_wakeups = 0;
  /// Scenario ops applied (0 without a scenario; repair phases are part
  /// of their op, not counted separately).
  uint64_t scenario_ops = 0;
  /// Orphaned (child, item) attachments restored by the repair policy —
  /// subtree re-attachments plus recovered members' own re-joins.
  uint64_t repairs = 0;
  /// Source-tick events that fired while at least one (member, item)
  /// pair sat orphaned (detached from its item tree awaiting repair).
  uint64_t orphaned_ticks = 0;
  /// Update messages that arrived at (or were queued on) a failed
  /// repository and were dropped.
  uint64_t dropped_jobs = 0;
  /// Failure-aware fidelity accounting: total outage time summed over
  /// the tracked pairs of failed members (microseconds), the
  /// out-of-tolerance time those pairs accumulated *within* their
  /// outages, and the ratio as a percentage. Measures how gracefully
  /// fidelity degrades while repositories are down (0 / 0 / 0 without
  /// failures).
  sim::SimTime outage_pair_time = 0;
  sim::SimTime outage_out_of_sync_time = 0;
  double outage_loss_percent = 0.0;
  /// Observation window length (microseconds).
  sim::SimTime horizon = 0;
};

/// Couples traces -> source -> overlay -> repositories on a discrete-
/// event simulator with a busy-server model of computational delay at
/// every node and full-path communication delays from the overlay
/// delay model.
///
/// The engine is the simulator's EventHandler: every event of a run is
/// a 16-byte POD (sim::Event) held inline in the queue — SourceTick,
/// batched Delivery (a recycled pool slot holding the span of jobs that
/// arrive together), span-draining NodeProcess, kScenario ops and a
/// FinalizeHook — decoded by one switch. Fidelity trackers are
/// lazy: they integrate the source process straight from the trace
/// timeline on repository-value changes and at the FinalizeHook, so a
/// source tick costs O(1) instead of O(holders of the item).
class Engine final : public sim::EventHandler {
 public:
  /// All referenced objects must outlive the engine. `traces[i]` is the
  /// value process of item i; `traces.size()` must equal
  /// `overlay.item_count()` and every trace must be non-empty.
  /// `change_timelines`, when non-null, must be the compacted per-item
  /// timelines of exactly `traces` (BuildChangeTimelines output, e.g.
  /// the World-cached copy a sweep shares) and lets Run() skip its own
  /// trace pass; null rebuilds them per run.
  ///
  /// `scenario`, when non-null and non-empty, scripts mid-run world
  /// dynamics (failures, recoveries, coherency renegotiation) delivered as
  /// kScenario POD events; the overlay is taken by mutable reference
  /// because scenario ops repair it in place (detach, re-attach,
  /// renegotiate). A null or empty scenario never mutates the overlay
  /// and is byte-identical to the historical scenario-free engine.
  Engine(Overlay& overlay, const net::OverlayDelayModel& delays,
         const std::vector<trace::Trace>& traces,
         Disseminator& disseminator, const EngineOptions& options,
         const ChangeTimelines* change_timelines = nullptr,
         const Scenario* scenario = nullptr);

  /// Runs the full simulation once and returns the metrics.
  Result<EngineMetrics> Run();

 private:
  // d3t-lint: pod-event
  struct Job {
    ItemId item = kInvalidItem;
    double value = 0.0;
    double tag = 0.0;
  };
  // DeliveryBatch slots carry spans of these across the event kernel
  // (and, once the event loop shards, across worker threads): the same
  // POD discipline as the 16-byte sim::Event, pinned the same way.
  static_assert(sizeof(Job) == 24,
                "delivery-batch job slots are 24-byte PODs; growing "
                "them grows every node backlog and batch pool");
  static_assert(std::is_trivially_copyable_v<Job>,
                "delivery-batch job slots must stay trivially copyable "
                "— they are memcpy'd through pooled batch spans");
  static constexpr uint32_t kNoBatch = UINT32_MAX;
  /// One scheduled delivery event: every job arriving at `node` at
  /// `arrival`. The first job is stored inline so the common singleton
  /// delivery never touches the overflow vector; jobs 2..k land in
  /// `rest`, whose capacity is recycled with the slot, so steady-state
  /// batching allocates nothing either.
  struct DeliveryBatch {
    OverlayIndex node = kInvalidOverlayIndex;
    sim::SimTime arrival = 0;
    Job first;
    std::vector<Job> rest;
  };
  /// Per-node busy-server state. The job backlog is a flat FIFO
  /// (`queue` + `next`): jobs append at the back, drain from `next`,
  /// and the storage resets — capacity retained — whenever the backlog
  /// empties, so steady-state processing allocates nothing.
  struct NodeState {
    std::vector<Job> queue;
    size_t next = 0;
    sim::SimTime busy_until = 0;
    bool processing_scheduled = false;
    /// Most recently scheduled, still-pending delivery batch headed for
    /// this node; same-arrival messages coalesce into it.
    uint32_t open_batch = kNoBatch;

    size_t pending() const { return queue.size() - next; }
  };

  /// Decodes and dispatches the typed POD events scheduled by the
  /// engine itself.
  void HandleEvent(sim::SimTime t, const sim::Event& event) override;

  void HandleSourceTick(sim::SimTime t, ItemId item, uint32_t tick_index);
  void HandleDeliveryBatch(sim::SimTime t, uint32_t slot);
  void Deliver(sim::SimTime t, OverlayIndex node, const Job& job);
  /// One NodeProcess wakeup: drains the node's pending span (or a single
  /// job with drain_process_spans off), then reschedules or parks.
  void ProcessWakeup(sim::SimTime t, OverlayIndex node);
  /// Busy-server processing of one job starting at `start`; returns the
  /// time the node is busy until. The per-job unit both processing modes
  /// share, so their accounting cannot diverge.
  sim::SimTime ProcessOneJob(sim::SimTime start, OverlayIndex node,
                             const Job& job);
  /// Schedules delivery of `job` to `node` at `when` — by appending to
  /// the node's still-pending same-arrival batch when coalescing allows,
  /// otherwise by parking the job in a recycled batch slot and
  /// scheduling one POD Delivery event referencing the slot.
  void ScheduleDelivery(sim::SimTime when, OverlayIndex node,
                        const Job& job);
  /// Wire-mode twin of ScheduleDelivery: encodes the push as a kUpdate
  /// frame, sends it to `to`, and immediately drains `to`'s ring so
  /// the delivery lands on the event queue at this exact call point
  /// (preserving insertion order on time ties — the byte-identity
  /// invariant). A full ring is drained and retried once; persistent
  /// failure is recorded in `wire_status_`.
  void SendFramedUpdate(OverlayIndex from, OverlayIndex to,
                        sim::SimTime arrival, const Job& job);
  /// Decodes every frame pending for `to` and schedules the deliveries
  /// they carry. The first malformed frame (wrong type or address,
  /// unknown item, arrival before the clock) poisons `wire_status_`.
  void DrainWireFrames(OverlayIndex to);
  void FinalizeTrackers(sim::SimTime t);

  // -- Scenario runtime (inert without a scenario) --------------------

  /// Decodes one kScenario event: phase 0 applies scenario op
  /// `op_index`, phase 1 runs the deferred repair of the orphans that
  /// op's failure produced (repair_delay > 0).
  void HandleScenario(sim::SimTime t, uint32_t op_index, uint64_t phase);
  void ApplyFail(sim::SimTime t, uint32_t op_index, OverlayIndex m);
  void ApplyRecover(sim::SimTime t, OverlayIndex m);
  void ApplyCoherencyChange(sim::SimTime t, OverlayIndex m, ItemId item,
                            Coherency c);
  /// Re-attaches every still-orphaned edge in `orphans` per the repair
  /// policy; `preferred` (when valid) is tried first for each (the
  /// recovered member on the on-recovery path).
  void RepairOrphans(sim::SimTime t, const std::vector<OrphanEdge>& orphans,
                     OverlayIndex preferred = kInvalidOverlayIndex);
  /// True when `parent` is a live holder of `item` that may serve
  /// `child` at tolerance `c` without violating Eq. (1) or creating a
  /// cycle.
  bool IsLegalParent(OverlayIndex parent, ItemId item, OverlayIndex child,
                     Coherency c) const;
  /// LeLA-style backup-parent search: the minimum-delay legal parent
  /// for (child, item, c). The source holds every item at tolerance 0
  /// and never fails, so on an overlay rooted at the source a repair
  /// always finds a parent, at worst the source. A miss (an overlay not
  /// rooted there) records FailedPrecondition in `scenario_status_` and
  /// returns kInvalidOverlayIndex.
  OverlayIndex FindBackupParent(ItemId item, OverlayIndex child,
                                Coherency c);
  /// Creates (or recycles) the repair edge parent->child and tells the
  /// policy about the new incarnation, which resyncs on its next update.
  void AttachRepairedEdge(OverlayIndex parent, OverlayIndex child,
                          ItemId item, Coherency c);
  /// Re-attaches one captured own need of just-recovered member `m`:
  /// old parent first, the closest legal live holder otherwise.
  void AttachNeed(OverlayIndex m, const MemberNeed& need);
  /// Closes the outage-accounting window of failed member `m` at `t`,
  /// folding its tracked pairs' staleness into the outage metrics.
  void CloseOutageWindow(sim::SimTime t, OverlayIndex m);
  /// (member, item) pairs currently detached from their item tree —
  /// the ground truth the incrementally-maintained `orphaned_pairs_`
  /// must match (debug-asserted after every scenario event).
  size_t CountOrphanedPairs() const;

  Overlay& overlay_;
  const net::OverlayDelayModel& delays_;
  const std::vector<trace::Trace>& traces_;
  Disseminator& disseminator_;
  EngineOptions options_;

  sim::Simulator simulator_;
  std::vector<NodeState> nodes_;
  /// In-flight delivery batches, indexed by pool slot (see
  /// ScheduleDelivery); grows to the maximum concurrent batch count.
  /// Pre-reserved from overlay degree stats at construction so the first
  /// run does not pay reallocation churn.
  std::vector<DeliveryBatch> batches_;
  std::vector<uint32_t> batch_free_;
  /// Last value seen per item at the source; polls that repeat the
  /// previous value are not updates and are not disseminated.
  std::vector<double> source_values_;
  /// Per-item compacted source timelines the lazy trackers bind to:
  /// either the caller-supplied shared copy (sweeps) or `owned_
  /// timelines_`, built by Run() when no cache was provided.
  const ChangeTimelines* change_timelines_ = nullptr;
  ChangeTimelines owned_timelines_;
  /// TrackerId-indexed (ids assigned by the overlay); only slots with
  /// tracker_active_ set belong to a tracked (repository, own-interest
  /// item) pair of this run. Each tracker is bound to its item's change
  /// timeline and never receives per-tick source pushes.
  std::vector<FidelityTracker> trackers_;
  std::vector<uint8_t> tracker_active_;
  EngineMetrics metrics_;

  /// Scripted mid-run dynamics; null or empty leaves every scenario
  /// structure below untouched.
  const Scenario* scenario_ = nullptr;
  /// Member liveness (failed repositories neither receive nor push).
  std::vector<uint8_t> failed_;
  std::vector<sim::SimTime> fail_time_;
  /// Per failed member: its own needs at detach time and each need's
  /// out-of-sync snapshot (outage accounting).
  std::vector<std::vector<MemberNeed>> captured_needs_;
  std::vector<std::vector<sim::SimTime>> outage_snap_;
  /// Orphans awaiting a deferred repair, per scenario op index; and the
  /// fail op currently outstanding per member (kNoFailOp when live).
  std::vector<std::vector<OrphanEdge>> pending_orphans_;
  static constexpr uint32_t kNoFailOp = UINT32_MAX;
  std::vector<uint32_t> fail_op_;
  /// Firing times of scenario events not yet handled (min-heap).
  /// ProcessWakeup caps each drained span at the earliest of these, so
  /// jobs that would start at or after a world mutation wait for their
  /// own wakeup — keeping drain_process_spans byte-identical to
  /// per-job processing even when a failure lands inside a busy span.
  std::priority_queue<sim::SimTime, std::vector<sim::SimTime>,
                      std::greater<sim::SimTime>>
      scenario_pending_times_;
  /// Incrementally maintained CountOrphanedPairs() value; gates the
  /// per-source-tick orphaned_ticks increment.
  size_t orphaned_pairs_ = 0;
  /// First scenario-op failure; Run() surfaces it after the event loop.
  Status scenario_status_;
  /// First wire-transport failure (unsendable or undecodable frame);
  /// Run() surfaces it after the event loop. Always Ok without a
  /// transport.
  Status wire_status_;
  /// "engine.span_jobs" histogram slot, registered by Run() when a
  /// registry is attached (kInvalidMetricId otherwise).
  obs::MetricId span_jobs_hist_ = obs::kInvalidMetricId;
};

}  // namespace d3t::core

#endif  // D3T_CORE_ENGINE_H_
