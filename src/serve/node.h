#ifndef D3T_SERVE_NODE_H_
#define D3T_SERVE_NODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/overlay.h"
#include "core/scenario.h"
#include "net/delay_model.h"
#include "net/transport.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "trace/trace.h"

namespace d3t::serve {

/// Long-lived repository node: the paper's cooperating repository as a
/// process loop instead of a library call. A node owns nothing about
/// the world except what arrives as frames — it ingests a source feed
/// (kHello handshake, kSourceTick value stream, optional kScenarioOp
/// script, kShutdown terminator) over one transport, then drives a
/// core::Engine whose every inter-member push crosses a second, data
/// transport as kUpdate frames, and finally reports EngineMetrics plus
/// the transport counters. The overlay and delay model are shared
/// substrate (built once, outside the node), exactly as a deployment
/// would distribute a signed topology snapshot.

/// How a Node runs its engine once the feed completes.
struct NodeOptions {
  /// This node's address on the feed transport (the publisher sends
  /// frames addressed to it here).
  net::PeerId feed_self = 0;
  /// Dissemination policy name (core::MakeDisseminator).
  std::string policy = "distributed";
  /// Engine timing/kernel options. `wire_transport` is overwritten by
  /// Serve() with the node's data transport.
  core::EngineOptions engine;
  /// Feed recovery. Every feed frame carries a sequence number; by
  /// default (false) a gap is a precise sticky error — the PR 7/8
  /// strict protocol. With resubscribe on, the node instead answers a
  /// gap with a kResubscribe frame to `feed_publisher` asking for a
  /// retransmit from the first missing seq, silently drops the
  /// out-of-order and stale-duplicate frames the fault left behind,
  /// and resumes ingesting when the retransmission arrives.
  bool resubscribe = false;
  /// Where kResubscribe frames go (the publisher's peer id on the feed
  /// transport). Required when `resubscribe` is true.
  net::PeerId feed_publisher = net::kInvalidPeerId;
  /// Recovery budget: resubscribe requests this node may send before
  /// declaring the feed unrecoverable with a precise error. Bounds the
  /// work a hostile fault script can extract — never a hang.
  uint32_t max_resubscribes = 32;
  /// Optional observability (both may be null; must outlive the node).
  /// The recorder is forwarded to the engine (EngineOptions::recorder
  /// is overwritten by Serve(), like wire_transport) and records this
  /// node's own resubscribe requests; the registry receives the
  /// engine's "engine.*" metrics plus the feed-side "node.*" counters.
  /// Attaching the recorder to the transports themselves remains the
  /// caller's call (set_recorder on feed/data).
  obs::Recorder* recorder = nullptr;
  obs::Registry* registry = nullptr;
};

/// Everything a completed Serve() reports.
struct NodeReport {
  core::EngineMetrics engine;
  /// Aggregate counters of the data transport (all peers).
  net::TransportMetrics data;
  /// Per-peer data-transport counters, indexed by overlay member.
  std::vector<net::TransportMetrics> per_peer;
  /// Feed-side ingest accounting.
  uint64_t feed_frames = 0;
  uint64_t tick_frames = 0;
  uint64_t scenario_frames = 0;
  /// Feed-recovery accounting: stale/out-of-order frames dropped, and
  /// kResubscribe requests sent (both 0 on a fault-free feed).
  uint64_t stale_frames = 0;
  uint64_t resubscribes = 0;
};

/// One serving node. All referenced objects must outlive it; `overlay`
/// is mutable because a fed scenario repairs it in place (exactly as
/// Engine does).
class Node {
 public:
  Node(core::Overlay& overlay, const net::OverlayDelayModel& delays,
       net::Transport& feed, net::Transport& data, NodeOptions options);

  /// Drains every frame currently pending on the feed transport and
  /// ingests it; returns the number of frames consumed this call.
  /// Protocol errors (tick before hello, non-monotonic tick times,
  /// out-of-range items, unexpected frame kinds) are sticky: the first
  /// one is returned by every later PollFeed/Serve call.
  Result<size_t> PollFeed();

  /// True once a kShutdown frame closed a well-formed feed.
  bool feed_complete() const { return feed_complete_; }

  /// Next feed sequence number this node expects (== frames ingested).
  uint32_t feed_next_seq() const { return next_seq_; }

  /// Re-requests the feed from the node's cursor (resubscribe mode
  /// only; no-op otherwise or once the feed completed). The recovery
  /// nudge for faults no later frame ever exposes — a dropped feed
  /// tail, a lost resubscribe, a lost retransmission. Consumes
  /// resubscribe budget; exhausting it is the same precise error a
  /// detected gap would raise.
  Status RequestMissing();

  /// Replays the ingested feed through a core::Engine with every
  /// inter-member push framed over the data transport, and returns the
  /// combined report. FailedPrecondition before feed_complete().
  Result<NodeReport> Serve();

 private:
  Status Ingest(const net::wire::Frame& frame);
  /// Sticky-error text for a frame whose seq does not match the cursor.
  Status SeqGapError(uint32_t seq) const;
  /// Sends one kResubscribe for the cursor; budget-checked.
  Status SendResubscribe();
  /// Ingested feed as the engine's trace library.
  Result<std::vector<trace::Trace>> MaterializeTraces() const;

  core::Overlay& overlay_;
  const net::OverlayDelayModel& delays_;
  net::Transport& feed_;
  net::Transport& data_;
  NodeOptions options_;

  bool hello_seen_ = false;
  bool feed_complete_ = false;
  Status feed_status_;
  uint64_t world_seed_ = 0;
  /// Per-item ingested ticks, trace order. ticks_[item][0] is the
  /// synchronized initial value (tick_index 0 on the wire).
  std::vector<std::vector<trace::Tick>> ticks_;
  std::vector<core::ScenarioOp> scenario_ops_;
  uint64_t feed_frames_ = 0;
  uint64_t tick_frames_ = 0;
  uint64_t scenario_frames_ = 0;
  /// Feed cursor: seq of the next frame to ingest. Frames below it are
  /// stale duplicates, frames above it expose a gap.
  uint32_t next_seq_ = 0;
  /// True while a resubscribe for the current gap is in flight —
  /// dedupes requests across the burst of out-of-order frames one gap
  /// produces.
  bool gap_outstanding_ = false;
  uint64_t stale_frames_ = 0;
  uint64_t resubscribes_ = 0;
};

/// Replay/recovery knobs of a FeedPublisher.
struct FeedPublisherOptions {
  /// Bounded replay ring: how far behind its high-water mark (the
  /// largest seq ever sent to that subscriber) the publisher will
  /// rewind a cursor for a kResubscribe. The schedule itself is
  /// immutable, so the window is a policy bound on retransmission
  /// work, not a storage bound; a resubscribe past it is a precise
  /// unrecoverable-loss error. UINT32_MAX = replay anything.
  uint32_t replay_window = 1024;
  /// When true (default) Pump() drains the transport's inbound queue
  /// itself. Several publishers multiplexed over one endpoint (one
  /// feed per subscriber, distinct member counts) must set this false
  /// and route each inbound frame to the owning publisher via
  /// HandleResubscribe — otherwise whichever feed pumps first consumes
  /// frames addressed to a sibling's subscriber.
  bool poll_inbound = true;
};

/// Feed side of the protocol: publishes a trace library (and optional
/// scenario script) as frames to a set of subscriber nodes, respecting
/// transport backpressure — Pump() sends until a ring fills, then
/// returns so the consumer can drain; call it again until done(). Tick
/// and scenario entries are merged into one time-sorted schedule per
/// subscriber (stable: ticks before ops at equal times, trace order
/// within a time), each preceded by kHello and closed by kShutdown.
///
/// Every frame is stamped with its feed sequence number (hello = 0,
/// schedule entries 1..N, shutdown N+1). Pump() also drains inbound
/// kResubscribe frames: a subscriber that lost frames asks for a
/// retransmit from its cursor, and the publisher rewinds — bounded by
/// FeedPublisherOptions::replay_window — and resends from there.
class FeedPublisher {
 public:
  /// `scenario` may be null (no scripted dynamics). All referenced
  /// objects must outlive the publisher.
  FeedPublisher(const std::vector<trace::Trace>& traces,
                const core::Scenario* scenario, size_t member_count,
                uint64_t world_seed, net::Transport& feed, net::PeerId self,
                std::vector<net::PeerId> subscribers,
                FeedPublisherOptions options = {});

  /// Sends as many pending frames as the transport accepts, handing
  /// them to Transport::SendBatch a batch at a time; returns the number
  /// sent this call. Backpressure (CapacityExhausted) is a normal pause,
  /// any other send failure is sticky in status(). Inbound kResubscribe
  /// frames are handled first — a rewound cursor changes what this call
  /// sends.
  size_t Pump();

  /// True once every subscriber received its full feed + kShutdown
  /// (a later resubscribe can rewind a cursor and undo this).
  bool done() const;

  /// First non-backpressure send failure, if any — including a
  /// resubscribe that fell outside the replay window.
  const Status& status() const { return status_; }

  /// kResubscribe requests honored (cursor rewinds).
  uint64_t resubscribes_handled() const { return resubscribes_handled_; }

  /// Feeds one externally-polled inbound frame to this publisher (for
  /// multiplexed endpoints running with poll_inbound=false; route by
  /// the frame's ResubscribePayload::node). Non-Ok results are sticky
  /// in status(), exactly as if Pump() had polled the frame itself.
  Status HandleResubscribe(const net::wire::Frame& frame, net::PeerId from);

 private:
  /// One schedule entry: a trace tick (op_index == SIZE_MAX) or a
  /// scenario op.
  struct Entry {
    int64_t at_us = 0;
    uint32_t item = 0;
    uint32_t tick_index = 0;
    double value = 0.0;
    size_t op_index = SIZE_MAX;
  };
  struct Sub {
    net::PeerId peer = net::kInvalidPeerId;
    /// Seq of the next frame to send (0 = hello .. N+1 = shutdown).
    uint32_t next_seq = 0;
    /// Largest next_seq ever reached — the replay window anchors here,
    /// so a rewind cannot widen what a later rewind may ask for.
    uint32_t high_water = 0;
  };

  /// Frames in one full feed: hello + schedule + shutdown.
  uint32_t TotalFrames() const;
  /// Builds (and seq-stamps) the frame at `seq` for `sub`.
  net::wire::Frame FrameAt(const Sub& sub, uint32_t seq) const;
  Status HandleInbound(const net::wire::Frame& frame, net::PeerId from);

  const core::Scenario* scenario_;
  size_t member_count_;
  size_t item_count_;
  uint64_t world_seed_;
  net::Transport& feed_;
  net::PeerId self_;
  FeedPublisherOptions options_;
  std::vector<Entry> schedule_;
  std::vector<Sub> subs_;
  Status status_;
  uint64_t resubscribes_handled_ = 0;
  /// Frames Pump() builds ahead and hands to Transport::SendBatch in
  /// one call: kSendBatch slots, sized by the constructor so Pump never
  /// allocates.
  static constexpr size_t kSendBatch = 64;
  std::vector<net::wire::Frame> batch_;
};

/// Knobs of DriveFeed's wedge detection.
struct DriveFeedOptions {
  /// Consecutive publisher+node rounds with zero frames moved before
  /// the feed is declared wedged (a precise error, never a hang). Every
  /// 8th idle round nudges Node::RequestMissing, so recovery gets
  /// several chances before the verdict.
  int max_idle_rounds = 64;
};

/// Drives one publisher/node pair to feed completion: alternates
/// Pump()/PollFeed(), nudges the node's recovery when progress stalls,
/// and converts a persistent stall into a precise wedge error naming
/// the sequence number the node is stuck on. Deterministic — progress
/// is counted in frames, not time — and total: every path terminates.
Status DriveFeed(FeedPublisher& publisher, Node& node,
                 DriveFeedOptions options = {});

}  // namespace d3t::serve

#endif  // D3T_SERVE_NODE_H_
