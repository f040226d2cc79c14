#include "net/frame_reassembler.h"

#include <algorithm>
#include <cstring>

namespace d3t::net {

// d3t-lint: hot
bool ByteRing::Append(const uint8_t* data, size_t size) {
  if (size == 0) return true;  // also keeps a capacity-0 ring well-defined
  if (free_space() < size) return false;
  const size_t tail = Tail();
  const size_t first = std::min(size, bytes_.size() - tail);
  std::memcpy(bytes_.data() + tail, data, first);
  std::memcpy(bytes_.data(), data + first, size - first);
  count_ += size;
  return true;
}

// d3t-lint: hot
size_t ByteRing::PeekLinear(uint8_t* out, size_t max) const {
  const size_t avail = std::min(count_, max);
  const size_t first = std::min(avail, bytes_.size() - head_);
  std::memcpy(out, bytes_.data() + head_, first);
  std::memcpy(out + first, bytes_.data(), avail - first);
  return avail;
}

size_t ByteRing::ContiguousFront(const uint8_t** data) const {
  *data = bytes_.data() + head_;
  return std::min(count_, bytes_.size() - head_);
}

size_t ByteRing::ContiguousBack(uint8_t** data) {
  const size_t tail = Tail();
  *data = bytes_.data() + tail;
  return std::min(free_space(), bytes_.size() - tail);
}

void ByteRing::Grow(size_t n) { count_ += n; }

void ByteRing::Consume(size_t n) {
  head_ += n;
  if (head_ >= bytes_.size()) head_ -= bytes_.size();
  count_ -= n;
}

size_t ByteRing::Tail() const {
  const size_t tail = head_ + count_;
  return tail >= bytes_.size() ? tail - bytes_.size() : tail;
}

// d3t-lint: hot
FrameReassembler::Outcome FrameReassembler::Next(ByteRing& ring,
                                                 wire::Frame* out,
                                                 size_t* frame_bytes) {
  if (ring.size() < wire::kHeaderSize) return Outcome::kNeedMore;

  // Decode in place from the ring's contiguous front. Only when that
  // fails while the readable bytes run on past the ring's wrap can the
  // frame straddle it: then linearize up to one frame's worth into
  // scratch and decode again.
  const uint8_t* bytes = nullptr;
  size_t avail = ring.ContiguousFront(&bytes);
  size_t size = 0;
  Status decoded = wire::DecodeInto(bytes, avail, out, &size);
  uint8_t scratch[wire::kMaxFrameSize];
  if (!decoded.ok() && avail < ring.size() && avail < sizeof(scratch)) {
    avail = ring.PeekLinear(scratch, sizeof(scratch));
    bytes = scratch;
    decoded = wire::DecodeInto(bytes, avail, out, &size);
  }
  if (decoded.ok()) {
    ring.Consume(size);
    if (frame_bytes != nullptr) *frame_bytes = size;
    return Outcome::kFrame;
  }
  // The decode failed and wrote nothing. `avail` now covers
  // min(ring.size(), kMaxFrameSize) bytes, which holds any frame the ring
  // holds whole; a valid header announcing more than the ring holds is a
  // partial frame: wait for the rest.
  const Result<size_t> announced = wire::PeekFrameSize(bytes, avail);
  if (announced.ok() && ring.size() < *announced) return Outcome::kNeedMore;
  // Garbage header or a checksum-failing payload: slide one byte and let
  // the caller retry on the next magic. A TCP reader recovering from a
  // corrupt stream does exactly this.
  ring.Consume(1);
  return Outcome::kResync;
}

}  // namespace d3t::net
