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
  /// frames addressed to it here). A kHello or kShutdown frame naming
  /// another node is a sticky InvalidArgument.
  net::PeerId feed_self = 0;
  /// Dissemination policy name (core::MakeDisseminator).
  std::string policy = "distributed";
  /// Engine timing/kernel options. `wire_transport` is overwritten by
  /// Serve() with the node's data transport. `recorder` also records
  /// this node's own resubscribe requests, and `registry` also receives
  /// the feed-side "node.*" counters (both may be null and must outlive
  /// the node). Attaching the recorder to the transports themselves
  /// remains the caller's call (set_recorder on feed/data).
  core::EngineOptions engine;
  /// Feed recovery, on exactly when this names a peer: where
  /// kResubscribe frames go (the publisher's peer id on the feed
  /// transport). Every feed frame carries a sequence number; by default
  /// (kInvalidPeerId) a gap is a precise sticky error — the strict
  /// protocol. With a publisher peer, the node instead answers a gap
  /// with a kResubscribe frame asking for a retransmit from the first
  /// missing seq, silently drops the out-of-order and stale-duplicate
  /// frames the fault left behind, and resumes ingesting when the
  /// retransmission arrives.
  net::PeerId feed_publisher = net::kInvalidPeerId;
  /// Recovery budget: resubscribe requests this node may send before
  /// declaring the feed unrecoverable with a precise error. Bounds the
  /// work a hostile fault script can extract — never a hang.
  uint32_t max_resubscribes = 32;
};

/// Everything a completed Serve() reports.
struct NodeReport {
  core::EngineMetrics engine;
  /// Counters of the data transport (all peers).
  net::TransportMetrics data;
  /// Feed frames polled, stale and out-of-order ones included.
  uint64_t feed_frames = 0;
  /// kResubscribe requests sent (0 on a fault-free feed).
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

  /// Re-requests the feed from the node's cursor (recovery mode
  /// only; no-op otherwise or once the feed completed). The recovery
  /// nudge for faults no later frame ever exposes — a dropped feed
  /// tail, a lost resubscribe, a lost retransmission. Consumes
  /// resubscribe budget; exhausting it is the same precise error a
  /// detected gap would raise.
  Status RequestMissing();

  /// Replays the ingested feed through a core::Engine with every
  /// inter-member push framed over the data transport, and returns the
  /// combined report. The feed's ticks move into the engine's trace
  /// library, so a node serves once: FailedPrecondition before
  /// feed_complete() and on a second call.
  Result<NodeReport> Serve();

 private:
  Status Ingest(const net::wire::Frame& frame);
  /// Sticky-error text for a frame whose seq does not match the cursor.
  Status SeqGapError(uint32_t seq) const;
  /// Sticky-error text for a `kind` frame addressed to another `node`.
  Status MisaddressedError(const char* kind, uint32_t node) const;
  /// Sends one kResubscribe for the cursor; budget-checked.
  Status SendResubscribe();
  /// Moves the ingested feed into the engine's trace library.
  Result<std::vector<trace::Trace>> TakeTraces();

  core::Overlay& overlay_;
  const net::OverlayDelayModel& delays_;
  net::Transport& feed_;
  net::Transport& data_;
  NodeOptions options_;

  bool hello_seen_ = false;
  bool feed_complete_ = false;
  /// True once Serve() took the ingested ticks.
  bool served_ = false;
  Status feed_status_;
  /// Per-item ingested ticks, trace order, until Serve() takes them.
  /// ticks_[item][0] is the synchronized initial value (tick_index 0 on
  /// the wire).
  std::vector<std::vector<trace::Tick>> ticks_;
  std::vector<core::ScenarioOp> scenario_ops_;
  uint64_t feed_frames_ = 0;
  /// Feed cursor: seq of the next frame to ingest. Frames below it are
  /// stale duplicates, frames above it expose a gap.
  uint32_t next_seq_ = 0;
  /// True while a resubscribe for the current gap is in flight —
  /// dedupes requests across the burst of out-of-order frames one gap
  /// produces.
  bool gap_outstanding_ = false;
  uint64_t resubscribes_ = 0;
};

/// Replay/recovery knobs of a FeedPublisher.
struct FeedPublisherOptions {
  /// Bounded replay ring: how far behind its high-water mark (the
  /// largest seq ever sent to that subscriber) the publisher will
  /// rewind a cursor for a kResubscribe. Every frame is rebuilt from
  /// the caller's traces and script, so the window is a policy bound
  /// on retransmission work, not a storage bound; a resubscribe past
  /// it is a precise unrecoverable-loss error. UINT32_MAX = replay
  /// anything.
  uint32_t replay_window = 1024;
};

/// Feed side of the protocol: publishes a trace library (and optional
/// scenario script) as frames to a set of subscriber nodes, respecting
/// transport backpressure — Pump() sends until a ring fills, then
/// returns so the consumer can drain; call it again until done(). The
/// feed is the library as stored: kHello, every tick of item 0, then
/// of item 1 and so on, the script's ops in script order, and
/// kShutdown. A node replays only after kShutdown, so no consumer
/// needs the ticks in time order.
///
/// Every frame is stamped with its feed sequence number (hello = 0,
/// ticks 1..T, ops T+1..T+K, shutdown T+K+1). Pump() also drains inbound
/// kResubscribe frames: a subscriber that lost frames asks for a
/// retransmit from its cursor, and the publisher rewinds — bounded by
/// FeedPublisherOptions::replay_window — and resends from there. A
/// resubscribe is routed by the peer that sent it and must name that
/// peer as its node.
///
/// One publisher per feed endpoint: Pump() consumes every frame
/// addressed to `self`, so all of an endpoint's subscribers belong on
/// one publisher's list. Their kHello frames share one member count.
class FeedPublisher {
 public:
  /// `scenario` may be null (no scripted dynamics). All referenced
  /// objects, `traces` included, must outlive the publisher.
  FeedPublisher(const std::vector<trace::Trace>& traces,
                const core::Scenario* scenario, size_t member_count,
                uint64_t world_seed, net::Transport& feed, net::PeerId self,
                std::vector<net::PeerId> subscribers,
                FeedPublisherOptions options = {});

  /// Sends as many pending frames as the transport accepts, handing
  /// them to Transport::SendBatch a batch at a time; returns the number
  /// sent this call. Subscribers are served in list order, each until
  /// its ring fills. Backpressure (CapacityExhausted) is a normal pause,
  /// any other send failure is sticky in status(). Inbound kResubscribe
  /// frames are handled first — a rewound cursor changes what this call
  /// sends — and any other inbound frame is a sticky InvalidArgument.
  size_t Pump();

  /// True once every subscriber received its full feed + kShutdown
  /// (a later resubscribe can rewind a cursor and undo this).
  bool done() const;

  /// First non-backpressure send failure or rejected inbound frame, if
  /// any — including a resubscribe that fell outside the replay window.
  const Status& status() const { return status_; }

  /// kResubscribe requests honored (cursor rewinds).
  uint64_t resubscribes_handled() const { return resubscribes_handled_; }

 private:
  struct Sub {
    net::PeerId peer = net::kInvalidPeerId;
    /// Seq of the next frame to send (0 = hello .. T+K+1 = shutdown).
    uint32_t next_seq = 0;
    /// Largest next_seq ever reached — the replay window anchors here,
    /// so a rewind cannot widen what a later rewind may ask for.
    uint32_t high_water = 0;
  };

  /// Frames in one full feed: hello + ticks + ops + shutdown.
  uint32_t TotalFrames() const;
  /// Builds (and seq-stamps) the frame at `seq` for `sub`.
  net::wire::Frame FrameAt(const Sub& sub, uint32_t seq) const;
  Status HandleInbound(const net::wire::Frame& frame, net::PeerId from);

  const std::vector<trace::Trace>& traces_;
  const core::Scenario* scenario_;
  size_t member_count_;
  uint64_t world_seed_;
  net::Transport& feed_;
  net::PeerId self_;
  FeedPublisherOptions options_;
  /// tick_offsets_[item] counts the ticks of the items before `item`,
  /// so item's tick i has seq tick_offsets_[item] + i + 1; the last
  /// entry is T, the library's tick count.
  std::vector<uint32_t> tick_offsets_;
  std::vector<Sub> subs_;
  Status status_;
  uint64_t resubscribes_handled_ = 0;
  /// Frames Pump() builds ahead and hands to Transport::SendBatch in
  /// one call: kSendBatch slots, sized by the constructor so Pump never
  /// allocates.
  static constexpr size_t kSendBatch = 64;
  std::vector<net::wire::Frame> batch_;
};

/// Drives one publisher/node pair to feed completion: alternates
/// Pump()/PollFeed(), nudges the node's recovery when progress stalls,
/// and converts a persistent stall into a precise wedge error naming
/// the sequence number the node is stuck on. 64 consecutive rounds
/// with zero frames moved declare the feed wedged; every 8th idle
/// round nudges Node::RequestMissing, so recovery gets several chances
/// before the verdict. Deterministic — progress is counted in frames,
/// not time — and total: every path terminates.
Status DriveFeed(FeedPublisher& publisher, Node& node);

}  // namespace d3t::serve

#endif  // D3T_SERVE_NODE_H_
