#ifndef D3T_SERVE_CLUSTER_H_
#define D3T_SERVE_CLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/socket_transport.h"
#include "net/wire.h"
#include "obs/recorder.h"
#include "obs/registry.h"

namespace d3t::serve {

/// Packs one node's observability stream — a registry snapshot plus,
/// when `recorder` is non-null, its whole trace ring (oldest first) —
/// into a seq-numbered kObsSnapshot chunk sequence: a header chunk
/// (seq 0) announcing the stream shape, then snapshot-entry chunks,
/// then trace-event chunks. Records are memcpy'd into the chunk words,
/// so reassembly through ObsAccumulator is byte-identical by
/// construction (the cluster test pins it across a real socket).
std::vector<net::wire::Frame> MakeObsSnapshotFrames(
    uint32_t node, const obs::Snapshot& snapshot,
    const obs::Recorder* recorder = nullptr);

/// Reassembles one node's kObsSnapshot chunk stream, strictly in
/// sequence: a gap, duplicate, reorder, or malformed chunk — including
/// a header whose chunk total disagrees with the records it announces —
/// is a precise InvalidArgument (the transport below already guarantees
/// per-channel FIFO, so any violation is a real protocol bug, not
/// weather). Memory grows only with chunks that arrive, never with what
/// a header claims.
class ObsAccumulator {
 public:
  /// Feeds the next chunk. Chunks must arrive with seq 0, 1, 2, ...
  Status Accept(const net::wire::ObsSnapshotPayload& payload);

  /// True once every announced chunk has been accepted.
  bool complete() const { return next_seq_ > 0 && next_seq_ == total_; }

  /// Reassembled registry snapshot (valid once complete()).
  const obs::Snapshot& snapshot() const { return snapshot_; }
  /// Reassembled trace spill, oldest first (valid once complete()).
  const std::vector<obs::TraceEvent>& trace() const { return trace_; }
  /// The sending recorder's cumulative recorded/dropped counts.
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return dropped_; }

 private:
  obs::Snapshot snapshot_{};
  std::vector<obs::TraceEvent> trace_;
  uint32_t next_seq_ = 0;
  uint32_t total_ = 0;
  uint64_t expected_entries_ = 0;
  uint64_t expected_events_ = 0;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
};

/// What a forked cluster process sees. `transport` is the process's
/// endpoint: its own listener adopted, the channel to the collector
/// already connected (so `Send(self, collector, frame)` works
/// immediately); `ports` maps every peer — including the collector at
/// index `process count` — to its listener, for whatever extra channels
/// the body's topology needs.
struct ProcessContext {
  net::SocketTransport& transport;
  net::PeerId self;
  net::PeerId collector;
  const std::vector<uint16_t>& ports;
  /// 0 on the first launch, k after the supervisor's k-th restart of
  /// this node (see ClusterOptions::max_restarts). A body that must
  /// behave differently after a crash — re-dial peers, resubscribe to
  /// its feed — branches on this instead of ambient process state.
  int incarnation = 0;
};

/// Body run inside a forked child. A non-Ok return becomes exit code 2,
/// which the collector reports as that node's exit Status.
using ProcessBody = std::function<Status(ProcessContext&)>;

struct ClusterOptions {
  /// Wall-clock budget for the whole run. Children still alive at the
  /// deadline are SIGKILLed and reported as wedged — a dead or hung
  /// node is a precise error, never a hang.
  int timeout_ms = 30000;
  /// Supervisor mode: restarts per child after an abnormal exit
  /// (nonzero code or signal). 0 — the default — keeps crashes
  /// terminal. When > 0 the parent holds every child's listener open
  /// across restarts (same port, no re-handshake), re-forks the body
  /// with ProcessContext::incarnation bumped, and sets every
  /// endpoint's SocketOptions::reconnect_attempts to this budget so
  /// surviving peers redial the restarted node. Every endpoint
  /// otherwise runs on the SocketOptions defaults.
  int max_restarts = 0;
  /// Optional metrics registry (parent side; must outlive the run).
  /// RunCluster publishes run totals under "cluster.*": children
  /// launched, frames collected, restarts performed, non-Ok exits.
  obs::Registry* registry = nullptr;
};

/// Everything a cluster run reports.
struct ClusterReport {
  /// Frames the children sent to the collector, in arrival order
  /// (ascending-peer scan per poll round; FIFO within a child).
  std::vector<net::wire::Frame> frames;
  /// frame_sources[i] is the child that sent frames[i].
  std::vector<net::PeerId> frame_sources;
  /// Per-child outcome: Ok for exit 0, IoError naming the node for a
  /// nonzero exit, a killing signal, or a timeout SIGKILL. Under
  /// supervision this is the FINAL incarnation's outcome.
  std::vector<Status> exits;
  /// restarts[i] = times the supervisor re-forked child i (all zero
  /// unless ClusterOptions::max_restarts > 0).
  std::vector<int> restarts;

  /// First non-Ok child outcome (Ok when every child finished cleanly).
  Status FirstError() const;
};

/// Runs one OS process per body, wired over loopback TCP, and collects
/// what they report.
///
/// The parent creates a listener per peer — bodies' and its own —
/// BEFORE forking, so each child inherits its listener already bound
/// (no port handshake, no bind race) and the full port table travels as
/// plain data. Each child closes the listeners that are not its own,
/// adopts its own into a SocketTransport, connects to the collector,
/// runs its body, flushes, and _exit()s (never exit() — a forked child
/// must not run the parent's atexit chain). The parent reaps with
/// WNOHANG while draining report frames, so a child that dies mid-feed
/// surfaces as a precise per-node Status while its surviving frames are
/// still collected; at the deadline the stragglers are SIGKILLed.
///
/// Fork safety is the caller's contract: no live threads when RunCluster
/// is called (the engine's thread pools are scoped to world building and
/// joined before serving starts).
Result<ClusterReport> RunCluster(const std::vector<ProcessBody>& bodies,
                                 ClusterOptions options = {});

}  // namespace d3t::serve

#endif  // D3T_SERVE_CLUSTER_H_
