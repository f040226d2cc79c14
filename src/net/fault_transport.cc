#include "net/fault_transport.h"

#include <algorithm>

#include "common/random.h"

namespace d3t::net {
namespace {

void AddCounters(TransportMetrics& into, const TransportMetrics& extra) {
  into.frames_tx += extra.frames_tx;
  into.frames_rx += extra.frames_rx;
  into.bytes_tx += extra.bytes_tx;
  into.bytes_rx += extra.bytes_rx;
  into.backpressure_stalls += extra.backpressure_stalls;
  into.decode_errors += extra.decode_errors;
  into.faults_injected += extra.faults_injected;
  into.frames_dropped += extra.frames_dropped;
  into.reconnects += extra.reconnects;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropFrame:
      return "drop-frame";
    case FaultKind::kDuplicateFrame:
      return "duplicate-frame";
    case FaultKind::kCorruptByte:
      return "corrupt-byte";
    case FaultKind::kDelayFrame:
      return "delay-frame";
    case FaultKind::kResetConn:
      return "reset-conn";
    case FaultKind::kWedgePeer:
      return "wedge-peer";
  }
  return "invalid";
}

Result<FaultScript> FaultScript::Create(std::vector<FaultOp> ops) {
  uint64_t prev = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind > static_cast<uint32_t>(FaultKind::kWedgePeer)) {
      return Status::InvalidArgument("fault script op " + std::to_string(i) +
                                     " has unknown kind " +
                                     std::to_string(ops[i].kind));
    }
    if (ops[i].at_send < prev) {
      return Status::InvalidArgument(
          "fault script is not time-sorted: op " + std::to_string(i) +
          " at_send " + std::to_string(ops[i].at_send) + " precedes op " +
          std::to_string(i - 1) + " at_send " + std::to_string(prev));
    }
    prev = ops[i].at_send;
  }
  return FaultScript(std::move(ops));
}

FaultInjectingTransport::FaultInjectingTransport(Transport& inner,
                                                 FaultScript script,
                                                 uint64_t seed)
    : inner_(inner), script_(std::move(script)), rng_state_(seed) {
  // Every buffer the hot Send path touches is sized here: at most one
  // frame can be held back per kDelayFrame op, so the script length
  // bounds the delay queue.
  delayed_.reserve(script_.size());
}

bool FaultInjectingTransport::Matches(const FaultOp& op, PeerId from,
                                      PeerId to) const {
  return (op.from == kAnyPeer || op.from == from) &&
         (op.to == kAnyPeer || op.to == to);
}

bool FaultInjectingTransport::Wedged(PeerId from, PeerId to,
                                     uint64_t at) const {
  return wedge_peer_ != kInvalidPeerId && at < wedge_until_ &&
         (from == wedge_peer_ || to == wedge_peer_);
}

void FaultInjectingTransport::CountDrop() { ++extra_totals_.frames_dropped; }

Status FaultInjectingTransport::Forward(PeerId from, PeerId to,
                                        const wire::Frame& frame) {
  return inner_.Send(from, to, frame);
}

// Releases every delayed frame whose time has come, in original send
// order, ahead of the frame whose Send triggered the release. A frame
// released into a wedge window, or refused by backpressure, is lost —
// a counted drop the session layer recovers from.
void FaultInjectingTransport::ReleaseDue() {
  if (delayed_.empty()) return;
  size_t keep = 0;
  for (size_t i = 0; i < delayed_.size(); ++i) {
    Delayed& d = delayed_[i];
    if (d.release_at > sends_) {
      delayed_[keep++] = d;
      continue;
    }
    if (Wedged(d.from, d.to, sends_)) {
      CountDrop();
      continue;
    }
    if (!Forward(d.from, d.to, d.frame).ok()) CountDrop();
  }
  delayed_.resize(keep);
}

void FaultInjectingTransport::DropDelayedMatching(const FaultOp& op) {
  size_t keep = 0;
  for (size_t i = 0; i < delayed_.size(); ++i) {
    Delayed& d = delayed_[i];
    if (Matches(op, d.from, d.to)) {
      CountDrop();
      continue;
    }
    delayed_[keep++] = d;
  }
  delayed_.resize(keep);
}

// d3t-lint: hot
Status FaultInjectingTransport::Send(PeerId from, PeerId to,
                                     const wire::Frame& frame) {
  ReleaseDue();
  const uint64_t idx = sends_++;

  // An out-of-range send still advances the script's time axis, but
  // fires nothing and drops nothing, even inside a wedge window: it
  // reaches the inner transport's refusal.
  if (from >= inner_.peer_count() || to >= inner_.peer_count()) {
    return Forward(from, to, frame);
  }
  if (Wedged(from, to, idx)) {
    CountDrop();
    return Status::Ok();
  }

  // Ops execute strictly in script order: the head op arms once its
  // at_send has passed and fires on the first matching send. An op
  // whose filter never matches holds the script (by design — scripts
  // are validated against the workload they target).
  if (next_op_ >= script_.size() || script_.op(next_op_).at_send > idx ||
      !Matches(script_.op(next_op_), from, to)) {
    return Forward(from, to, frame);
  }
  const FaultOp op = script_.op(next_op_++);
  ++extra_totals_.faults_injected;
  if (recorder_ != nullptr) {
    recorder_->Record(obs::TraceEventKind::kFaultInjected, from, op.kind,
                      to);
  }

  switch (static_cast<FaultKind>(op.kind)) {
    case FaultKind::kDropFrame: {
      CountDrop();
      return Status::Ok();
    }
    case FaultKind::kDuplicateFrame: {
      const Status first = Forward(from, to, frame);
      if (first.ok()) {
        // The duplicate may be refused by backpressure; that loss is
        // the fault's own problem, not the sender's.
        Status dup = Forward(from, to, frame);
        if (!dup.ok()) CountDrop();
      }
      return first;
    }
    case FaultKind::kCorruptByte: {
      // Genuinely exercise the checksum: encode, flip one bit, decode.
      // Every single-bit flip is detected (wire_test pins this), so the
      // frame becomes a receiver-side decode error plus a drop.
      uint8_t image[wire::kMaxFrameSize];
      const size_t n = wire::Encode(frame, image, sizeof(image));
      if (n == 0) return Forward(from, to, frame);
      const size_t byte = (op.arg == kAnyArg)
                              ? static_cast<size_t>(SplitMix64(rng_state_) % n)
                              : static_cast<size_t>(op.arg) % n;
      const int bit = static_cast<int>(SplitMix64(rng_state_) % 8);
      image[byte] = static_cast<uint8_t>(image[byte] ^ (1u << bit));
      wire::Frame decoded;
      if (wire::DecodeInto(image, n, &decoded).ok()) {
        return Forward(from, to, decoded);
      }
      ++extra_totals_.decode_errors;
      CountDrop();
      return Status::Ok();
    }
    case FaultKind::kDelayFrame: {
      uint64_t distance = (op.arg == 0 || op.arg == kAnyArg) ? 1 : op.arg;
      delayed_.push_back(Delayed{frame, from, to, idx + distance});
      return Status::Ok();
    }
    case FaultKind::kResetConn: {
      // The connection dies mid-flight: the triggering frame and every
      // delayed frame on a matching path are lost; the transport-level
      // reconnect (counted here) restores the path for later sends.
      ++extra_totals_.reconnects;
      DropDelayedMatching(op);
      CountDrop();
      return Status::Ok();
    }
    case FaultKind::kWedgePeer: {
      wedge_peer_ = (op.to != kAnyPeer) ? op.to
                    : (op.from != kAnyPeer) ? op.from
                                            : to;
      wedge_until_ = (op.arg == 0) ? UINT64_MAX : idx + op.arg;
      CountDrop();
      return Status::Ok();
    }
  }
  return Forward(from, to, frame);
}

// d3t-lint: hot
bool FaultInjectingTransport::Poll(PeerId self, wire::Frame* out,
                                   PeerId* from) {
  return inner_.Poll(self, out, from);
}

const TransportMetrics& FaultInjectingTransport::metrics() const {
  merged_totals_ = inner_.metrics();
  AddCounters(merged_totals_, extra_totals_);
  return merged_totals_;
}

}  // namespace d3t::net
