#include "net/transport.h"

#include <string>

namespace d3t::net {

void PublishTransportMetrics(obs::Registry& registry, const char* prefix,
                             const TransportMetrics& metrics) {
  const std::string base = std::string(prefix) + ".";
  registry.Add(registry.Counter(base + "frames_tx"), metrics.frames_tx);
  registry.Add(registry.Counter(base + "frames_rx"), metrics.frames_rx);
  registry.Add(registry.Counter(base + "bytes_tx"), metrics.bytes_tx);
  registry.Add(registry.Counter(base + "bytes_rx"), metrics.bytes_rx);
  registry.Add(registry.Counter(base + "backpressure_stalls"),
               metrics.backpressure_stalls);
  registry.Add(registry.Counter(base + "decode_errors"),
               metrics.decode_errors);
  registry.Add(registry.Counter(base + "faults_injected"),
               metrics.faults_injected);
  registry.Add(registry.Counter(base + "frames_dropped"),
               metrics.frames_dropped);
  registry.Add(registry.Counter(base + "reconnects"), metrics.reconnects);
}

// d3t-lint: hot
Status Transport::SendBatch(PeerId from, PeerId to, const wire::Frame* frames,
                            size_t count, size_t* sent) {
  *sent = 0;
  while (*sent < count) {
    Status result = Send(from, to, frames[*sent]);
    if (!result.ok()) return result;
    ++*sent;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// InProcTransport

InProcTransport::InProcTransport(size_t peer_count, size_t per_peer_capacity)
    : capacity_(per_peer_capacity == 0 ? 1 : per_peer_capacity),
      slots_(peer_count * capacity_),
      rings_(peer_count) {}

// d3t-lint: hot
Status InProcTransport::Send(PeerId from, PeerId to,
                             const wire::Frame& frame) {
  if (from >= rings_.size() || to >= rings_.size()) {
    return Status::InvalidArgument("peer out of range");
  }
  Ring& ring = rings_[to];
  if (ring.count == capacity_) {
    ++totals_.backpressure_stalls;
    return Status::CapacityExhausted("ring full");
  }
  size_t tail = ring.head + ring.count;
  if (tail >= capacity_) tail -= capacity_;
  Slot& slot = slots_[to * capacity_ + tail];
  const size_t encoded = wire::Encode(frame, slot.bytes, sizeof(slot.bytes));
  if (encoded == 0) {
    return Status::InvalidArgument("unencodable frame");
  }
  slot.from = from;
  slot.size = static_cast<uint32_t>(encoded);
  ++ring.count;
  ++totals_.frames_tx;
  totals_.bytes_tx += encoded;
  if (recorder_ != nullptr) {
    recorder_->Record(obs::TraceEventKind::kFrameTx, from,
                      static_cast<uint64_t>(frame.type), to);
  }
  return Status::Ok();
}

// d3t-lint: hot
bool InProcTransport::Poll(PeerId self, wire::Frame* out, PeerId* from) {
  if (self >= rings_.size()) return false;
  Ring& ring = rings_[self];
  while (ring.count > 0) {
    const Slot& slot = slots_[self * capacity_ + ring.head];
    // A ring Poll empties restarts at slot 0, so a destination drained
    // after every Send (the engine's pattern) reuses one slot. Only an
    // empty ring moves, so FIFO order cannot change.
    if (--ring.count == 0 || ++ring.head == capacity_) ring.head = 0;
    const Status decoded = wire::DecodeInto(slot.bytes, slot.size, out);
    if (!decoded.ok()) {
      // A slot was encoded by Send and can only fail to decode if its
      // bytes were corrupted in place; count and keep draining.
      ++totals_.decode_errors;
      if (recorder_ != nullptr) {
        recorder_->Record(obs::TraceEventKind::kDecodeError, self, 0, 0,
                          static_cast<uint16_t>(decoded.code()));
      }
      continue;
    }
    ++totals_.frames_rx;
    totals_.bytes_rx += slot.size;
    if (recorder_ != nullptr) {
      recorder_->Record(obs::TraceEventKind::kFrameRx, self,
                        static_cast<uint64_t>(out->type), slot.from);
    }
    if (from != nullptr) *from = slot.from;
    return true;
  }
  return false;
}

}  // namespace d3t::net
