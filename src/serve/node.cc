#include "serve/node.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/disseminator.h"

namespace d3t::serve {

// ---------------------------------------------------------------------------
// Node

Node::Node(core::Overlay& overlay, const net::OverlayDelayModel& delays,
           net::Transport& feed, net::Transport& data, NodeOptions options)
    : overlay_(overlay),
      delays_(delays),
      feed_(feed),
      data_(data),
      options_(std::move(options)),
      feed_status_(Status::Ok()) {}

Result<size_t> Node::PollFeed() {
  if (!feed_status_.ok()) return feed_status_;
  size_t consumed = 0;
  net::wire::Frame frame;
  while (feed_.Poll(options_.feed_self, &frame, nullptr)) {
    ++consumed;
    ++feed_frames_;
    if (!net::wire::IsFeedFrame(frame.type)) {
      // Foreign kinds never carry a seq; the protocol check in Ingest
      // produces the precise error.
      feed_status_ = Ingest(frame);
      if (!feed_status_.ok()) return feed_status_;
      continue;
    }
    const uint32_t seq = net::wire::FeedSeq(frame);
    if (seq != next_seq_) {
      if (!options_.resubscribe) {
        feed_status_ = SeqGapError(seq);
        return feed_status_;
      }
      if (seq < next_seq_) {
        // Stale duplicate — replay overlap or an injected duplicate.
        ++stale_frames_;
        continue;
      }
      // Gap: something between next_seq_ and seq is missing. Ask the
      // publisher to retransmit from the cursor (once per gap episode;
      // the whole burst of post-gap frames is dropped and will be
      // resent in order).
      if (!gap_outstanding_) {
        Status asked = SendResubscribe();
        if (!asked.ok()) {
          feed_status_ = asked;
          return feed_status_;
        }
      }
      continue;
    }
    gap_outstanding_ = false;
    feed_status_ = Ingest(frame);
    if (!feed_status_.ok()) return feed_status_;
    ++next_seq_;
  }
  return consumed;
}

Status Node::SeqGapError(uint32_t seq) const {
  if (seq < next_seq_) {
    return Status::InvalidArgument(
        "feed frame out of sequence: stale or duplicated seq " +
        std::to_string(seq) + " (next expected " + std::to_string(next_seq_) +
        ")");
  }
  return Status::InvalidArgument(
      "feed sequence gap: missing frames [" + std::to_string(next_seq_) +
      ", " + std::to_string(seq) + ") — dropped or reordered feed");
}

Status Node::SendResubscribe() {
  if (resubscribes_ >= options_.max_resubscribes) {
    return Status::IoError(
        "feed recovery budget exhausted: " + std::to_string(resubscribes_) +
        " resubscribe requests sent and the feed is still missing seq " +
        std::to_string(next_seq_) + " — first unrecoverable fault");
  }
  if (options_.feed_publisher == net::kInvalidPeerId) {
    return Status::FailedPrecondition(
        "resubscribe enabled without a feed_publisher peer");
  }
  const Status sent = feed_.Send(
      options_.feed_self, options_.feed_publisher,
      net::wire::Frame::Resubscribe(options_.feed_self, next_seq_));
  if (sent.IsCapacityExhausted()) {
    // Feed ring full toward the publisher: retry on a later gap frame
    // or RequestMissing nudge. Not counted against the budget.
    return Status::Ok();
  }
  if (!sent.ok()) return sent;
  ++resubscribes_;
  if (options_.recorder != nullptr) {
    options_.recorder->Record(obs::TraceEventKind::kResubscribe,
                              options_.feed_self, next_seq_);
  }
  gap_outstanding_ = true;
  return Status::Ok();
}

Status Node::RequestMissing() {
  if (!feed_status_.ok()) return feed_status_;
  if (!options_.resubscribe || feed_complete_) return Status::Ok();
  gap_outstanding_ = false;
  Status asked = SendResubscribe();
  if (!asked.ok()) feed_status_ = asked;
  return feed_status_;
}

Status Node::Ingest(const net::wire::Frame& frame) {
  if (feed_complete_) {
    return Status::FailedPrecondition("frame after feed shutdown");
  }
  switch (frame.type) {
    case net::wire::FrameType::kHello: {
      if (hello_seen_) {
        return Status::FailedPrecondition("duplicate hello frame");
      }
      const net::wire::HelloPayload& p = frame.u.hello;
      if (p.member_count != overlay_.member_count()) {
        return Status::InvalidArgument(
            "hello member count does not match this node's overlay");
      }
      if (p.item_count != overlay_.item_count() || p.item_count == 0) {
        return Status::InvalidArgument(
            "hello item count does not match this node's overlay");
      }
      hello_seen_ = true;
      world_seed_ = p.world_seed;
      ticks_.assign(p.item_count, {});
      return Status::Ok();
    }
    case net::wire::FrameType::kSourceTick: {
      if (!hello_seen_) {
        return Status::FailedPrecondition("source tick before hello");
      }
      const net::wire::SourceTickPayload& p = frame.u.source_tick;
      if (p.item >= ticks_.size()) {
        return Status::OutOfRange("source tick for unknown item");
      }
      std::vector<trace::Tick>& ticks = ticks_[p.item];
      if (p.tick_index != ticks.size()) {
        return Status::InvalidArgument(
            "source tick out of sequence (dropped or duplicated frame)");
      }
      if (!ticks.empty() && p.at_us <= ticks.back().time) {
        return Status::InvalidArgument(
            "source tick times must be strictly increasing");
      }
      ++tick_frames_;
      ticks.push_back(trace::Tick{p.at_us, p.value});
      return Status::Ok();
    }
    case net::wire::FrameType::kScenarioOp: {
      if (!hello_seen_) {
        return Status::FailedPrecondition("scenario op before hello");
      }
      const net::wire::ScenarioOpPayload& p = frame.u.scenario;
      if (p.kind > static_cast<uint32_t>(
                       core::ScenarioOpKind::kCoherencyChange)) {
        return Status::InvalidArgument("unknown scenario op kind");
      }
      ++scenario_frames_;
      core::ScenarioOp op;
      op.at = p.at_us;
      op.kind = static_cast<core::ScenarioOpKind>(p.kind);
      op.member = p.member;
      op.item = p.item;
      op.c = p.c;
      scenario_ops_.push_back(op);
      return Status::Ok();
    }
    case net::wire::FrameType::kShutdown: {
      if (!hello_seen_) {
        return Status::FailedPrecondition("shutdown before hello");
      }
      // Completeness check: name EVERY item the feed never delivered a
      // tick for, as ranges — a degradation report an operator can act
      // on, not just "incomplete feed".
      std::string missing;
      for (size_t item = 0; item < ticks_.size(); ++item) {
        if (!ticks_[item].empty()) continue;
        size_t last = item;
        while (last + 1 < ticks_.size() && ticks_[last + 1].empty()) ++last;
        if (!missing.empty()) missing += ", ";
        missing += std::to_string(item);
        if (last > item) missing += "-" + std::to_string(last);
        item = last;
      }
      if (!missing.empty()) {
        return Status::InvalidArgument(
            "feed shut down with missing data: no ticks for item(s) " +
            missing + " of " + std::to_string(ticks_.size()));
      }
      feed_complete_ = true;
      return Status::Ok();
    }
    default:
      return Status::InvalidArgument(
          std::string("unexpected frame kind on feed: ") +
          net::wire::FrameTypeName(frame.type));
  }
}

Result<std::vector<trace::Trace>> Node::MaterializeTraces() const {
  if (!feed_status_.ok()) return feed_status_;
  if (!feed_complete_) {
    return Status::FailedPrecondition(
        "serve before the feed completed (no shutdown frame yet)");
  }
  // Materialize the ingested feed as the engine's trace library. Copies
  // (not moves) so a node can be served repeatedly from one feed.
  std::vector<trace::Trace> traces;
  traces.reserve(ticks_.size());
  for (size_t item = 0; item < ticks_.size(); ++item) {
    traces.emplace_back("item" + std::to_string(item), ticks_[item]);
  }
  return traces;
}

Result<NodeReport> Node::Serve() {
  Result<std::vector<trace::Trace>> traces_result = MaterializeTraces();
  if (!traces_result.ok()) return traces_result.status();
  const std::vector<trace::Trace>& traces = *traces_result;

  const core::Scenario* scenario = nullptr;
  core::Scenario owned_scenario;
  if (!scenario_ops_.empty()) {
    Result<core::Scenario> built = core::Scenario::Create(scenario_ops_);
    if (!built.ok()) return built.status();
    owned_scenario = std::move(built).value();
    scenario = &owned_scenario;
  }

  std::unique_ptr<core::Disseminator> policy =
      core::MakeDisseminator(options_.policy);
  if (policy == nullptr) {
    return Status::InvalidArgument("unknown dissemination policy '" +
                                   options_.policy + "'");
  }

  core::EngineOptions engine_options = options_.engine;
  engine_options.wire_transport = &data_;
  engine_options.recorder = options_.recorder;
  engine_options.registry = options_.registry;
  core::Engine engine(overlay_, delays_, traces, *policy, engine_options,
                      /*change_timelines=*/nullptr, scenario);
  Result<core::EngineMetrics> metrics = engine.Run();
  if (!metrics.ok()) return metrics.status();

  NodeReport report;
  report.engine = std::move(metrics).value();
  report.data = data_.metrics();
  report.per_peer.reserve(overlay_.member_count());
  for (net::PeerId peer = 0; peer < overlay_.member_count(); ++peer) {
    report.per_peer.push_back(data_.peer_metrics(peer));
  }
  report.feed_frames = feed_frames_;
  report.tick_frames = tick_frames_;
  report.scenario_frames = scenario_frames_;
  report.stale_frames = stale_frames_;
  report.resubscribes = resubscribes_;
  if (options_.registry != nullptr) {
    obs::Registry& reg = *options_.registry;
    reg.Add(reg.Counter("node.feed_frames"), report.feed_frames);
    reg.Add(reg.Counter("node.tick_frames"), report.tick_frames);
    reg.Add(reg.Counter("node.scenario_frames"), report.scenario_frames);
    reg.Add(reg.Counter("node.stale_frames"), report.stale_frames);
    reg.Add(reg.Counter("node.resubscribes"), report.resubscribes);
  }
  return report;
}

// ---------------------------------------------------------------------------
// FeedPublisher

FeedPublisher::FeedPublisher(const std::vector<trace::Trace>& traces,
                             const core::Scenario* scenario,
                             size_t member_count, uint64_t world_seed,
                             net::Transport& feed, net::PeerId self,
                             std::vector<net::PeerId> subscribers,
                             FeedPublisherOptions options)
    : scenario_(scenario),
      member_count_(member_count),
      item_count_(traces.size()),
      world_seed_(world_seed),
      feed_(feed),
      self_(self),
      options_(options),
      status_(Status::Ok()),
      batch_(kSendBatch) {
  // Merged schedule: every tick of every trace plus every scenario op,
  // time-sorted. Ticks are appended item-major first so the stable
  // sort keeps trace order within an instant and ticks ahead of ops —
  // the order a live source would emit them.
  size_t total = scenario_ == nullptr ? 0 : scenario_->size();
  for (const trace::Trace& trace : traces) total += trace.size();
  schedule_.reserve(total);
  for (uint32_t item = 0; item < traces.size(); ++item) {
    const auto& ticks = traces[item].ticks();
    for (uint32_t i = 0; i < ticks.size(); ++i) {
      Entry e;
      e.at_us = ticks[i].time;
      e.item = item;
      e.tick_index = i;
      e.value = ticks[i].value;
      schedule_.push_back(e);
    }
  }
  if (scenario_ != nullptr) {
    for (size_t i = 0; i < scenario_->size(); ++i) {
      Entry e;
      e.at_us = scenario_->op(i).at;
      e.op_index = i;
      schedule_.push_back(e);
    }
  }
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.at_us < b.at_us;
                   });
  subs_.reserve(subscribers.size());
  for (net::PeerId peer : subscribers) {
    Sub sub;
    sub.peer = peer;
    subs_.push_back(sub);
  }
}

uint32_t FeedPublisher::TotalFrames() const {
  return static_cast<uint32_t>(schedule_.size()) + 2;  // hello + shutdown
}

net::wire::Frame FeedPublisher::FrameAt(const Sub& sub, uint32_t seq) const {
  if (seq == 0) {
    return net::wire::Frame::Hello(sub.peer,
                                   static_cast<uint32_t>(member_count_),
                                   static_cast<uint32_t>(item_count_),
                                   world_seed_, /*seq=*/0);
  }
  if (seq <= schedule_.size()) {
    const Entry& e = schedule_[seq - 1];
    if (e.op_index == SIZE_MAX) {
      return net::wire::Frame::SourceTick(e.item, e.tick_index, e.at_us,
                                          e.value, seq);
    }
    const core::ScenarioOp& op = scenario_->op(e.op_index);
    return net::wire::Frame::ScenarioOp(op.at,
                                        static_cast<uint32_t>(op.kind),
                                        op.member, op.item, op.c, seq);
  }
  return net::wire::Frame::Shutdown(sub.peer, seq);
}

Status FeedPublisher::HandleResubscribe(const net::wire::Frame& frame,
                                        net::PeerId from) {
  const Status handled = HandleInbound(frame, from);
  if (!handled.ok() && status_.ok()) status_ = handled;
  return handled;
}

Status FeedPublisher::HandleInbound(const net::wire::Frame& frame,
                                    net::PeerId from) {
  if (frame.type != net::wire::FrameType::kResubscribe) {
    return Status::InvalidArgument(
        std::string("unexpected frame kind on publisher: ") +
        net::wire::FrameTypeName(frame.type));
  }
  const uint32_t resume = frame.u.resubscribe.resume_seq;
  for (Sub& sub : subs_) {
    if (sub.peer != from) continue;
    if (resume > sub.high_water) {
      return Status::InvalidArgument(
          "resubscribe from node " + std::to_string(from) + " for seq " +
          std::to_string(resume) + " beyond the feed high-water " +
          std::to_string(sub.high_water));
    }
    if (sub.high_water - resume > options_.replay_window) {
      // The one loss a publisher cannot repair: the consumer fell
      // further behind than the replay ring reaches.
      return Status::IoError(
          "resubscribe from node " + std::to_string(from) + " for seq " +
          std::to_string(resume) + " is outside the replay window (oldest "
          "replayable seq is " +
          std::to_string(sub.high_water - options_.replay_window) +
          ") — unrecoverable loss");
    }
    ++resubscribes_handled_;
    if (resume < sub.next_seq) sub.next_seq = resume;
    return Status::Ok();
  }
  return Status::InvalidArgument("resubscribe from unknown peer " +
                                 std::to_string(from));
}

size_t FeedPublisher::Pump() {
  if (!status_.ok()) return 0;
  size_t sent = 0;
  // Recovery requests first: a rewound cursor changes what this call
  // sends.
  if (options_.poll_inbound) {
    net::wire::Frame in;
    net::PeerId from = net::kInvalidPeerId;
    while (feed_.Poll(self_, &in, &from)) {
      const Status handled = HandleInbound(in, from);
      if (!handled.ok()) {
        status_ = handled;
        return sent;
      }
    }
  }
  const uint32_t total = TotalFrames();
  for (Sub& sub : subs_) {
    while (sub.next_seq < total) {
      const uint32_t batch = std::min<uint32_t>(
          total - sub.next_seq, static_cast<uint32_t>(batch_.size()));
      for (uint32_t i = 0; i < batch; ++i) {
        batch_[i] = FrameAt(sub, sub.next_seq + i);
      }
      size_t admitted = 0;
      const Status result =
          feed_.SendBatch(self_, sub.peer, batch_.data(), batch, &admitted);
      sent += admitted;
      sub.next_seq += static_cast<uint32_t>(admitted);
      if (sub.next_seq > sub.high_water) sub.high_water = sub.next_seq;
      if (result.IsCapacityExhausted()) break;  // this ring is full;
                                                // next subscriber
      if (!result.ok()) {
        status_ = result;
        return sent;
      }
    }
  }
  return sent;
}

bool FeedPublisher::done() const {
  const uint32_t total = TotalFrames();
  for (const Sub& sub : subs_) {
    if (sub.next_seq < total) return false;
  }
  return status_.ok();
}

// ---------------------------------------------------------------------------
// DriveFeed

Status DriveFeed(FeedPublisher& publisher, Node& node,
                 DriveFeedOptions options) {
  const int max_idle = options.max_idle_rounds > 0 ? options.max_idle_rounds
                                                   : 1;
  int idle = 0;
  while (!node.feed_complete()) {
    const size_t pumped = publisher.Pump();
    if (!publisher.status().ok()) return publisher.status();
    Result<size_t> polled = node.PollFeed();
    if (!polled.ok()) return polled.status();
    if (pumped + *polled > 0) {
      idle = 0;
      continue;
    }
    ++idle;
    if (idle >= max_idle) {
      return Status::IoError(
          "feed wedged: no frames moved for " + std::to_string(idle) +
          " rounds with the node still waiting for feed seq " +
          std::to_string(node.feed_next_seq()));
    }
    if (idle % 8 == 0) {
      // A stall no frame will ever expose (dropped feed tail, lost
      // resubscribe or retransmission): re-request from the cursor.
      // Budget-checked inside, so a wedged-forever feed still ends in
      // a precise error rather than a nudge loop.
      const Status nudged = node.RequestMissing();
      if (!nudged.ok()) return nudged;
    }
  }
  return publisher.status();
}

}  // namespace d3t::serve
