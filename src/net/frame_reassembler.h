#ifndef D3T_NET_FRAME_REASSEMBLER_H_
#define D3T_NET_FRAME_REASSEMBLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/wire.h"

namespace d3t::net {

/// Fixed-capacity byte ring used as a userspace send/recv buffer
/// (SocketTransport's per-peer TCP buffers). Capacity is fixed at
/// construction; the mutation paths never touch the allocator — a ring
/// that cannot take more bytes refuses them, and the caller counts the
/// stall.
class ByteRing {
 public:
  ByteRing() = default;
  explicit ByteRing(size_t capacity) : bytes_(capacity) {}

  size_t capacity() const { return bytes_.size(); }
  size_t size() const { return count_; }
  size_t free_space() const { return bytes_.size() - count_; }
  bool empty() const { return count_ == 0; }

  /// Appends all `size` bytes or none: false when they do not fit.
  /// Nothing is ever partially written.
  bool Append(const uint8_t* data, size_t size);

  /// Copies up to `max` readable bytes into `out`, linearized across
  /// the wrap, without consuming them. Returns the bytes copied.
  size_t PeekLinear(uint8_t* out, size_t max) const;

  /// Exposes the largest contiguous readable span at the front without
  /// copying (`*data` points into the ring). Returns its length — the
  /// natural unit for a socket write; a second call after Consume()
  /// reaches the wrapped remainder.
  size_t ContiguousFront(const uint8_t** data) const;

  /// Exposes the largest contiguous writable span at the tail without
  /// copying (`*data` points into the ring). Returns its length — the
  /// natural unit for a socket read; commit what was filled with Grow().
  size_t ContiguousBack(uint8_t** data);

  /// Commits `n` bytes previously filled in place via ContiguousBack().
  void Grow(size_t n);

  /// Discards `n` readable bytes from the front (`n` <= size()).
  void Consume(size_t n);

 private:
  /// Index one past the last readable byte, wrapped by compare rather
  /// than `%` (head_ and count_ never exceed the capacity).
  size_t Tail() const;

  size_t head_ = 0;
  size_t count_ = 0;
  std::vector<uint8_t> bytes_;
};

/// Header-driven frame reassembly over a ByteRing: the deframing loop
/// behind SocketTransport, kept apart from the socket so tests drive it
/// on byte rings directly. The receiver recovers frame boundaries from
/// wire headers alone, waits on partial frames, and resyncs byte by
/// byte past corruption — exactly what a TCP reader does, independent
/// of how the bytes arrived. A frame that lies contiguous in the ring
/// decodes in place; only one the ring's wrap splits is copied out
/// first.
class FrameReassembler {
 public:
  enum class Outcome {
    /// `*out` holds the next frame; its bytes were consumed.
    kFrame,
    /// Empty ring or partial frame: wait for more bytes. Untouched.
    kNeedMore,
    /// Corrupt header or checksum-failing payload: slid one byte to
    /// hunt for the next valid header. The caller counts it as a
    /// decode error and retries.
    kResync,
  };

  /// One deframing step against the front of `ring`. On kFrame,
  /// `frame_bytes` (when non-null) receives the encoded size consumed.
  static Outcome Next(ByteRing& ring, wire::Frame* out, size_t* frame_bytes);
};

}  // namespace d3t::net

#endif  // D3T_NET_FRAME_REASSEMBLER_H_
