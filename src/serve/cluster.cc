#include "serve/cluster.h"

#include <errno.h>
#include <signal.h>
#include <string.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

namespace d3t::serve {
namespace {

/// Maps a waitpid status onto the report taxonomy.
Status ChildExitStatus(size_t node, int wstatus) {
  if (WIFEXITED(wstatus)) {
    const int code = WEXITSTATUS(wstatus);
    if (code == 0) return Status::Ok();
    std::string msg("node ");
    msg += std::to_string(node);
    msg += " exited with code ";
    msg += std::to_string(code);
    return Status::IoError(msg);
  }
  if (WIFSIGNALED(wstatus)) {
    std::string msg("node ");
    msg += std::to_string(node);
    msg += " killed by signal ";
    msg += std::to_string(WTERMSIG(wstatus));
    return Status::IoError(msg);
  }
  std::string msg("node ");
  msg += std::to_string(node);
  msg += ": unrecognized wait status";
  return Status::Internal(msg);
}

/// Records per kObsSnapshot chunk: 20 words carry 6 snapshot entries
/// (3 words each) or 5 trace events (4 words each).
constexpr size_t kEntriesPerChunk =
    sizeof(net::wire::ObsSnapshotPayload{}.words) /
    (sizeof(obs::SnapshotEntry));
constexpr size_t kEventsPerChunk =
    sizeof(net::wire::ObsSnapshotPayload{}.words) /
    (sizeof(obs::TraceEvent));

Status ObsStreamError(const char* what, uint32_t seq) {
  std::string msg("obs snapshot stream: ");
  msg += what;
  msg += " at chunk ";
  msg += std::to_string(seq);
  return Status::InvalidArgument(msg);
}

/// Chunks a stream carrying `entries` snapshot entries and `events`
/// trace events occupies: the header plus each record run rounded up to
/// whole chunks. Cannot overflow for any counts a header announces
/// (1/6 + 1/5 of the 64-bit range still fits in it).
uint64_t StreamChunks(uint64_t entries, uint64_t events) {
  return 1 + entries / kEntriesPerChunk + (entries % kEntriesPerChunk != 0) +
         events / kEventsPerChunk + (events % kEventsPerChunk != 0);
}

}  // namespace

Status ClusterReport::FirstError() const {
  for (const Status& exit : exits) {
    if (!exit.ok()) return exit;
  }
  return Status::Ok();
}

std::vector<net::wire::Frame> MakeObsSnapshotFrames(
    uint32_t node, const obs::Snapshot& snapshot,
    const obs::Recorder* recorder) {
  const size_t events = recorder != nullptr ? recorder->size() : 0;
  const uint32_t total =
      static_cast<uint32_t>(StreamChunks(snapshot.count, events));

  std::vector<net::wire::Frame> frames;
  frames.reserve(total);
  uint32_t seq = 0;

  net::wire::ObsSnapshotPayload header{};
  header.node = node;
  header.chunk_kind = net::wire::ObsSnapshotPayload::kChunkHeader;
  header.count = 0;
  header.seq = seq++;
  header.total = total;
  header.words[0] = snapshot.count;
  header.words[1] = snapshot.truncated;
  header.words[2] = events;
  header.words[3] = recorder != nullptr ? recorder->recorded() : 0;
  header.words[4] = recorder != nullptr ? recorder->dropped() : 0;
  frames.push_back(net::wire::Frame::ObsSnapshot(header));

  for (size_t done = 0; done < snapshot.count;) {
    const size_t n =
        std::min(kEntriesPerChunk, static_cast<size_t>(snapshot.count) - done);
    net::wire::ObsSnapshotPayload p{};
    p.node = node;
    p.chunk_kind = net::wire::ObsSnapshotPayload::kChunkSnapshotEntries;
    p.count = static_cast<uint16_t>(n);
    p.seq = seq++;
    p.total = total;
    std::memcpy(p.words, &snapshot.entries[done],
                n * sizeof(obs::SnapshotEntry));
    frames.push_back(net::wire::Frame::ObsSnapshot(p));
    done += n;
  }

  for (size_t done = 0; done < events;) {
    const size_t n = std::min(kEventsPerChunk, events - done);
    obs::TraceEvent chunk[kEventsPerChunk];
    for (size_t k = 0; k < n; ++k) chunk[k] = recorder->at(done + k);
    net::wire::ObsSnapshotPayload p{};
    p.node = node;
    p.chunk_kind = net::wire::ObsSnapshotPayload::kChunkTraceEvents;
    p.count = static_cast<uint16_t>(n);
    p.seq = seq++;
    p.total = total;
    std::memcpy(p.words, chunk, n * sizeof(obs::TraceEvent));
    frames.push_back(net::wire::Frame::ObsSnapshot(p));
    done += n;
  }
  return frames;
}

Status ObsAccumulator::Accept(const net::wire::ObsSnapshotPayload& payload) {
  if (payload.seq != next_seq_) {
    return ObsStreamError("sequence gap or reorder", payload.seq);
  }
  if (next_seq_ == 0) {
    if (payload.chunk_kind !=
        net::wire::ObsSnapshotPayload::kChunkHeader) {
      return ObsStreamError("stream does not start with a header",
                            payload.seq);
    }
    // The header is untrusted: its record counts must fit and agree
    // with its chunk total before anything is sized from them, and the
    // trace then grows only with chunks that actually arrive.
    const uint64_t entries = payload.words[0];
    const uint64_t events = payload.words[2];
    if (entries > obs::Snapshot::kMaxEntries) {
      return ObsStreamError("snapshot entry total exceeds capacity",
                            payload.seq);
    }
    if (payload.total != StreamChunks(entries, events)) {
      return ObsStreamError("chunk total disagrees with announced records",
                            payload.seq);
    }
    total_ = payload.total;
    expected_entries_ = entries;
    snapshot_.count = 0;
    snapshot_.truncated = static_cast<uint32_t>(payload.words[1]);
    expected_events_ = events;
    recorded_ = payload.words[3];
    dropped_ = payload.words[4];
    ++next_seq_;
    return Status::Ok();
  }
  if (next_seq_ >= total_) return ObsStreamError("chunk past total", payload.seq);
  if (payload.total != total_) {
    return ObsStreamError("total changed mid-stream", payload.seq);
  }
  switch (payload.chunk_kind) {
    case net::wire::ObsSnapshotPayload::kChunkSnapshotEntries: {
      if (payload.count > kEntriesPerChunk ||
          snapshot_.count + payload.count > expected_entries_ ||
          !trace_.empty()) {
        return ObsStreamError("malformed snapshot-entry chunk", payload.seq);
      }
      std::memcpy(&snapshot_.entries[snapshot_.count], payload.words,
                  payload.count * sizeof(obs::SnapshotEntry));
      snapshot_.count += payload.count;
      break;
    }
    case net::wire::ObsSnapshotPayload::kChunkTraceEvents: {
      if (payload.count > kEventsPerChunk ||
          trace_.size() + payload.count > expected_events_ ||
          snapshot_.count != expected_entries_) {
        return ObsStreamError("malformed trace-event chunk", payload.seq);
      }
      for (uint16_t k = 0; k < payload.count; ++k) {
        obs::TraceEvent event;
        std::memcpy(&event, &payload.words[k * (sizeof(obs::TraceEvent) /
                                                sizeof(uint64_t))],
                    sizeof(obs::TraceEvent));
        trace_.push_back(event);
      }
      break;
    }
    default:
      return ObsStreamError("unknown chunk kind", payload.seq);
  }
  ++next_seq_;
  if (next_seq_ == total_ &&
      (snapshot_.count != expected_entries_ ||
       trace_.size() != expected_events_)) {
    return ObsStreamError("stream ended short of announced records",
                          payload.seq);
  }
  return Status::Ok();
}

Result<ClusterReport> RunCluster(const std::vector<ProcessBody>& bodies,
                                 ClusterOptions options) {
  const size_t n = bodies.size();
  if (n == 0) {
    return Status::InvalidArgument("cluster needs at least one process");
  }
  const net::PeerId collector = static_cast<net::PeerId>(n);

  // Every peer's listener exists before the first fork: children inherit
  // exactly one each, and the port table below is plain data every
  // process already holds — no handshake can race a connect.
  std::vector<int> listen_fds(n + 1, -1);
  std::vector<uint16_t> ports(n + 1, 0);
  for (size_t i = 0; i <= n; ++i) {
    Result<int> fd = net::CreateLoopbackListener(&ports[i]);
    if (!fd.ok()) {
      for (int open_fd : listen_fds) {
        if (open_fd >= 0) close(open_fd);
      }
      return fd.status();
    }
    listen_fds[i] = *fd;
  }

  const bool supervising = options.max_restarts > 0;
  net::SocketOptions socket_options;
  if (supervising) {
    // A surviving peer must be able to redial each restarted node once
    // per restart, or supervision recovers the process but not its
    // channels.
    socket_options.reconnect_attempts = options.max_restarts;
  }

  // Forks child `i` and runs its body; returns the child pid in the
  // parent and never returns in the child (_exit, not exit: a forked
  // child must not run the parent's atexit chain or flush its inherited
  // stdio buffers twice). A restarted child inherits copies of the
  // parent collector's sockets; it never touches them, they just ride
  // along until its _exit.
  auto spawn = [&](size_t i, int incarnation) -> pid_t {
    const pid_t pid = fork();
    if (pid != 0) return pid;
    // Child. Only its own listener survives; a child holding sibling
    // listeners open would keep their ports half-alive after a crash.
    for (size_t j = 0; j <= n; ++j) {
      if (j != i && listen_fds[j] >= 0) close(listen_fds[j]);
    }
    net::SocketTransport child_transport(
        n + 1, static_cast<net::PeerId>(i), socket_options);
    Status status = child_transport.AdoptListener(listen_fds[i], ports[i]);
    if (status.ok()) {
      status = child_transport.ConnectPeer(collector, ports[n]);
    }
    if (status.ok()) {
      ProcessContext ctx{child_transport, static_cast<net::PeerId>(i),
                         collector, ports, incarnation};
      status = bodies[i](ctx);
    }
    if (status.ok()) status = child_transport.CloseSend(collector);
    _exit(status.ok() ? 0 : 2);
  };

  std::vector<pid_t> pids(n, -1);
  for (size_t i = 0; i < n; ++i) {
    const pid_t pid = spawn(i, /*incarnation=*/0);
    if (pid < 0) {
      const int err = errno;
      for (size_t j = 0; j < i; ++j) {
        kill(pids[j], SIGKILL);
        int wstatus = 0;
        waitpid(pids[j], &wstatus, 0);
      }
      for (int open_fd : listen_fds) {
        if (open_fd >= 0) close(open_fd);
      }
      std::string msg("fork failed: ");
      msg += strerror(err);
      return Status::IoError(msg);
    }
    pids[i] = pid;
  }

  if (!supervising) {
    // Terminal-crash mode: the children's listeners served their one
    // purpose (fork inheritance). A supervisor instead keeps them open
    // so a restarted child re-adopts the same port.
    for (size_t i = 0; i < n; ++i) {
      close(listen_fds[i]);
      listen_fds[i] = -1;
    }
  }
  net::SocketTransport transport(n + 1, collector, socket_options);
  Status adopt = transport.AdoptListener(listen_fds[n], ports[n]);
  if (!adopt.ok()) {
    for (size_t i = 0; i < n; ++i) {
      kill(pids[i], SIGKILL);
      int wstatus = 0;
      waitpid(pids[i], &wstatus, 0);
      if (listen_fds[i] >= 0) close(listen_fds[i]);
    }
    return adopt;
  }

  ClusterReport report;
  report.exits.assign(n, Status::Ok());
  report.restarts.assign(n, 0);
  std::vector<bool> reaped(n, false);
  size_t live = n;
  const int64_t deadline = net::MonotonicMillis() + options.timeout_ms;
  bool timed_out = false;

  net::wire::Frame frame;
  net::PeerId from = net::kInvalidPeerId;
  while (live > 0) {
    while (transport.Poll(collector, &frame, &from)) {
      report.frames.push_back(frame);
      report.frame_sources.push_back(from);
    }
    for (size_t i = 0; i < n; ++i) {
      if (reaped[i]) continue;
      int wstatus = 0;
      const pid_t r = waitpid(pids[i], &wstatus, WNOHANG);
      if (r != pids[i]) continue;
      Status exit_status = ChildExitStatus(i, wstatus);
      if (!exit_status.ok() && supervising &&
          report.restarts[i] < options.max_restarts) {
        // Crash within budget: re-fork the body on the same inherited
        // listener, next incarnation. Surviving peers redial the port;
        // the restarted body resubscribes for the state the crash lost.
        ++report.restarts[i];
        const pid_t respawned = spawn(i, report.restarts[i]);
        if (respawned >= 0) {
          pids[i] = respawned;
          continue;
        }
        std::string msg("node ");
        msg += std::to_string(i);
        msg += " restart fork failed: ";
        msg += strerror(errno);
        exit_status = Status::IoError(msg);
      }
      reaped[i] = true;
      --live;
      report.exits[i] = exit_status;
    }
    if (live == 0) break;
    if (net::MonotonicMillis() >= deadline) {
      timed_out = true;
      break;
    }
    // Reap tick: WaitIo's timeout here is pacing, not an error — a
    // child can exit without any socket turning readable.
    (void)transport.WaitIo(50);
  }

  if (timed_out) {
    for (size_t i = 0; i < n; ++i) {
      if (reaped[i]) continue;
      kill(pids[i], SIGKILL);
      int wstatus = 0;
      waitpid(pids[i], &wstatus, 0);
      std::string msg("node ");
      msg += std::to_string(i);
      msg += " wedged: killed after ";
      msg += std::to_string(options.timeout_ms);
      msg += " ms cluster timeout";
      report.exits[i] = Status::IoError(msg);
    }
  }

  // Final drain: everything the children flushed before exiting is in
  // kernel buffers (possibly still in the accept backlog); pull it all
  // before declaring the run over. Bounded — drained() goes true once
  // every inbound socket has closed, and the grace deadline backstops a
  // transport wedge.
  const int64_t drain_deadline = net::MonotonicMillis() + 2000;
  for (;;) {
    while (transport.Poll(collector, &frame, &from)) {
      report.frames.push_back(frame);
      report.frame_sources.push_back(from);
    }
    if (transport.drained()) break;
    if (net::MonotonicMillis() >= drain_deadline) break;
    (void)transport.WaitIo(10);
  }

  // Supervisor mode kept the children's listeners open for restarts.
  for (size_t i = 0; i < n; ++i) {
    if (listen_fds[i] >= 0) close(listen_fds[i]);
  }

  if (options.registry != nullptr) {
    obs::Registry& reg = *options.registry;
    reg.Add(reg.Counter("cluster.children"), n);
    reg.Add(reg.Counter("cluster.frames_collected"), report.frames.size());
    uint64_t restarts = 0;
    for (int r : report.restarts) restarts += static_cast<uint64_t>(r);
    reg.Add(reg.Counter("cluster.restarts"), restarts);
    uint64_t failed_exits = 0;
    for (const Status& exit : report.exits) {
      if (!exit.ok()) ++failed_exits;
    }
    reg.Add(reg.Counter("cluster.failed_exits"), failed_exits);
  }
  return report;
}

}  // namespace d3t::serve
