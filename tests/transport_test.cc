// Transport boundary: deterministic FIFO delivery, frame and byte
// totals and counted backpressure on InProcTransport, whose every
// Send/Poll pair is a genuine wire::Encode/Decode round trip; byte-stream
// deframing (partial frames, corruption resync, ring wrap and a seeded
// stream fuzz) on FrameReassembler, the loop behind SocketTransport, and
// on the stream path that feeds it whole frames through a fixed ByteRing
// (back-to-back frames, a full ring refusing a frame). The base-class
// SendBatch is pinned to the Send loop it stands for on the InProc and
// FaultInjecting transports.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "common/random.h"
#include "net/fault_transport.h"
#include "net/frame_reassembler.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/recorder.h"
#include "gtest/gtest.h"

namespace d3t::net {
namespace {

wire::Frame TestUpdate(uint32_t src, uint32_t dst, uint32_t item) {
  return wire::Frame::Update(src, dst, /*arrival_us=*/1000 * item, item,
                             static_cast<double>(item), 0.0);
}

TEST(InProcTransportTest, DeliversFifoAcrossSenders) {
  InProcTransport bus(4, 8);
  EXPECT_EQ(bus.peer_count(), 4u);
  ASSERT_TRUE(bus.Send(1, 0, TestUpdate(1, 0, 10)).ok());
  ASSERT_TRUE(bus.Send(2, 0, TestUpdate(2, 0, 20)).ok());
  ASSERT_TRUE(bus.Send(1, 0, TestUpdate(1, 0, 11)).ok());

  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  ASSERT_TRUE(bus.Poll(0, &frame, &from));
  EXPECT_EQ(from, 1u);
  EXPECT_EQ(frame.u.update.item, 10u);
  ASSERT_TRUE(bus.Poll(0, &frame, &from));
  EXPECT_EQ(from, 2u);
  EXPECT_EQ(frame.u.update.item, 20u);
  ASSERT_TRUE(bus.Poll(0, &frame, &from));
  EXPECT_EQ(from, 1u);
  EXPECT_EQ(frame.u.update.item, 11u);
  EXPECT_FALSE(bus.Poll(0, &frame, &from));
}

TEST(InProcTransportTest, PerPeerRingsAreIsolated) {
  InProcTransport bus(3, 4);
  ASSERT_TRUE(bus.Send(0, 1, TestUpdate(0, 1, 1)).ok());
  ASSERT_TRUE(bus.Send(0, 2, TestUpdate(0, 2, 2)).ok());

  wire::Frame frame;
  EXPECT_FALSE(bus.Poll(0, &frame, nullptr));
  ASSERT_TRUE(bus.Poll(1, &frame, nullptr));
  EXPECT_EQ(frame.u.update.dst, 1u);
  EXPECT_FALSE(bus.Poll(1, &frame, nullptr));
  ASSERT_TRUE(bus.Poll(2, &frame, nullptr));
  EXPECT_EQ(frame.u.update.dst, 2u);
}

TEST(InProcTransportTest, BackpressureIsCountedNotGrown) {
  InProcTransport bus(2, 2);
  ASSERT_TRUE(bus.Send(0, 1, TestUpdate(0, 1, 1)).ok());
  ASSERT_TRUE(bus.Send(0, 1, TestUpdate(0, 1, 2)).ok());
  Status full = bus.Send(0, 1, TestUpdate(0, 1, 3));
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.IsCapacityExhausted());
  EXPECT_EQ(bus.metrics().backpressure_stalls, 1u);
  EXPECT_EQ(bus.metrics().frames_tx, 2u);

  // Draining frees a slot; the retry then succeeds.
  wire::Frame frame;
  ASSERT_TRUE(bus.Poll(1, &frame, nullptr));
  EXPECT_TRUE(bus.Send(0, 1, TestUpdate(0, 1, 3)).ok());
}

TEST(InProcTransportTest, RingWrapsFifoUnderPartialDrains) {
  // A seeded interleaving of Sends from random senders and partial Poll
  // drains on one 3-slot ring, checked against a std::deque model. The
  // ring wraps whenever a partial drain leaves frames behind, restarts
  // at slot 0 whenever a drain empties it, and stalls exactly when the
  // model holds three frames.
  constexpr size_t kCapacity = 3;
  constexpr PeerId kPeers = 4;
  constexpr PeerId kSelf = 0;
  InProcTransport bus(kPeers, kCapacity);
  struct Queued {
    PeerId from;
    uint32_t item;
  };
  std::deque<Queued> model;
  size_t model_head = 0;  // the slot the model expects Poll to read next
  uint64_t sent = 0;
  uint64_t stalls = 0;
  uint64_t received = 0;
  uint64_t wrapped_sends = 0;
  uint32_t next_item = 0;
  Rng rng(0x51075);
  for (int step = 0; step < 4000; ++step) {
    if (rng.NextBounded(2) == 0) {
      const auto from = static_cast<PeerId>(1 + rng.NextBounded(kPeers - 1));
      const Status result =
          bus.Send(from, kSelf, TestUpdate(from, kSelf, next_item));
      if (model.size() == kCapacity) {
        EXPECT_TRUE(result.IsCapacityExhausted()) << result.ToString();
        ++stalls;
      } else {
        ASSERT_TRUE(result.ok()) << result.ToString();
        if (model_head + model.size() >= kCapacity) ++wrapped_sends;
        model.push_back({from, next_item});
        ++sent;
      }
      ++next_item;
      continue;
    }
    const size_t drain = rng.NextBounded(kCapacity + 1);
    for (size_t i = 0; i < drain; ++i) {
      wire::Frame frame;
      PeerId from = kInvalidPeerId;
      const bool polled = bus.Poll(kSelf, &frame, &from);
      ASSERT_EQ(polled, !model.empty()) << "step " << step;
      if (!polled) break;
      EXPECT_EQ(from, model.front().from);
      EXPECT_EQ(frame.type, wire::FrameType::kUpdate);
      EXPECT_EQ(frame.u.update.src, model.front().from);
      EXPECT_EQ(frame.u.update.dst, kSelf);
      EXPECT_EQ(frame.u.update.item, model.front().item);
      model.pop_front();
      model_head = model.empty() ? 0 : (model_head + 1) % kCapacity;
      ++received;
    }
  }
  // The interleaving reached every case it is meant to check.
  EXPECT_GT(wrapped_sends, 100u);
  EXPECT_GT(stalls, 0u);
  const uint64_t frame_bytes = wire::EncodedSize(wire::FrameType::kUpdate);
  EXPECT_EQ(bus.metrics().frames_tx, sent);
  EXPECT_EQ(bus.metrics().bytes_tx, sent * frame_bytes);
  EXPECT_EQ(bus.metrics().frames_rx, received);
  EXPECT_EQ(bus.metrics().bytes_rx, received * frame_bytes);
  EXPECT_EQ(bus.metrics().backpressure_stalls, stalls);
  EXPECT_EQ(bus.metrics().decode_errors, 0u);
  EXPECT_EQ(sent - received, model.size());
}

TEST(InProcTransportTest, RejectsOutOfRangePeers) {
  InProcTransport bus(2, 4);
  EXPECT_TRUE(bus.Send(0, 5, TestUpdate(0, 5, 1)).IsInvalidArgument());
  EXPECT_TRUE(bus.Send(5, 0, TestUpdate(5, 0, 1)).IsInvalidArgument());
  wire::Frame frame;
  EXPECT_FALSE(bus.Poll(5, &frame, nullptr));
}

TEST(InProcTransportTest, RejectsUnencodableFrames) {
  InProcTransport bus(2, 4);
  wire::Frame invalid;
  invalid.type = wire::FrameType::kInvalid;
  EXPECT_TRUE(bus.Send(0, 1, invalid).IsInvalidArgument());
  EXPECT_EQ(bus.metrics().frames_tx, 0u);
}

// ---------------------------------------------------------------------------
// FrameReassembler: SocketTransport's deframing loop, driven directly.

void ExpectSameFrame(const wire::Frame& want, const wire::Frame& got) {
  ASSERT_EQ(want.type, got.type);
  EXPECT_EQ(std::memcmp(&want.u, &got.u, wire::PayloadSize(want.type)), 0);
}

std::vector<wire::Frame> TornTestFrames() {
  return {TestUpdate(0, 1, 7),
          wire::Frame::SourceTick(2, 3, /*at_us=*/4000, 1.5),
          wire::Frame::Hello(1, 12, 6, /*world_seed=*/4242),
          wire::Frame::Shutdown(9)};
}

std::vector<uint8_t> EncodeAll(const std::vector<wire::Frame>& frames) {
  std::vector<uint8_t> stream;
  for (const wire::Frame& frame : frames) {
    uint8_t buf[wire::kMaxFrameSize];
    const size_t encoded = wire::Encode(frame, buf, sizeof(buf));
    EXPECT_GT(encoded, 0u);
    stream.insert(stream.end(), buf, buf + encoded);
  }
  return stream;
}

size_t DrainRing(ByteRing& ring, std::vector<wire::Frame>* out) {
  size_t resyncs = 0;
  for (;;) {
    wire::Frame frame;
    size_t frame_bytes = 0;
    const FrameReassembler::Outcome outcome =
        FrameReassembler::Next(ring, &frame, &frame_bytes);
    if (outcome == FrameReassembler::Outcome::kNeedMore) return resyncs;
    if (outcome == FrameReassembler::Outcome::kResync) {
      ++resyncs;
      continue;
    }
    EXPECT_EQ(frame_bytes, wire::EncodedSize(frame.type));
    out->push_back(frame);
  }
}

TEST(FrameReassemblerTest, TornStreamReassemblesIdenticallyAtEverySplit) {
  // A mixed-type frame stream arriving in two arbitrary pieces — the
  // tear placed at EVERY byte boundary in turn, including inside
  // headers and straddling payloads — must reassemble to the identical
  // frame sequence with zero resyncs.
  const std::vector<wire::Frame> originals = TornTestFrames();
  const std::vector<uint8_t> stream = EncodeAll(originals);
  for (size_t split = 0; split <= stream.size(); ++split) {
    ByteRing ring(2 * stream.size());
    std::vector<wire::Frame> got;
    size_t resyncs = 0;
    ASSERT_TRUE(ring.Append(stream.data(), split));
    resyncs += DrainRing(ring, &got);
    ASSERT_TRUE(ring.Append(stream.data() + split, stream.size() - split));
    resyncs += DrainRing(ring, &got);
    EXPECT_EQ(resyncs, 0u) << "split at byte " << split;
    ASSERT_EQ(got.size(), originals.size()) << "split at byte " << split;
    for (size_t i = 0; i < originals.size(); ++i) {
      ExpectSameFrame(originals[i], got[i]);
    }
  }
}

TEST(FrameReassemblerTest, ByteAtATimeDeliveryLosesNothing) {
  // Worst-case tearing: every Poll round sees exactly one new byte.
  const std::vector<wire::Frame> originals = TornTestFrames();
  const std::vector<uint8_t> stream = EncodeAll(originals);
  ByteRing ring(2 * stream.size());
  std::vector<wire::Frame> got;
  size_t resyncs = 0;
  for (const uint8_t byte : stream) {
    ASSERT_TRUE(ring.Append(&byte, 1));
    resyncs += DrainRing(ring, &got);
  }
  EXPECT_EQ(resyncs, 0u);
  ASSERT_EQ(got.size(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    ExpectSameFrame(originals[i], got[i]);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(FrameReassemblerTest, ResyncsByteWisePastLeadingGarbage) {
  const std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  const std::vector<uint8_t> stream = EncodeAll({TestUpdate(0, 1, 3)});
  ByteRing ring(1024);
  ASSERT_TRUE(ring.Append(garbage.data(), garbage.size()));
  ASSERT_TRUE(ring.Append(stream.data(), stream.size()));
  std::vector<wire::Frame> got;
  const size_t resyncs = DrainRing(ring, &got);
  EXPECT_EQ(resyncs, garbage.size());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].u.update.item, 3u);
}

TEST(FrameReassemblerTest, CorruptPayloadIsSkippedChecksummed) {
  // A one-bit payload flip fails the checksum: the reader slides byte by
  // byte through the whole corrupted frame and delivers the valid frame
  // behind it.
  std::vector<uint8_t> stream =
      EncodeAll({TestUpdate(0, 1, 6), TestUpdate(0, 1, 7)});
  stream[wire::kHeaderSize + 3] ^= 0x01;
  ByteRing ring(1024);
  ASSERT_TRUE(ring.Append(stream.data(), stream.size()));
  std::vector<wire::Frame> got;
  EXPECT_EQ(DrainRing(ring, &got),
            wire::EncodedSize(wire::FrameType::kUpdate));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].u.update.item, 7u);
  EXPECT_TRUE(ring.empty());
}

TEST(FrameReassemblerTest, SustainedTrafficWrapsTheRingCleanly) {
  // A 100-byte ring holds two update frames, so its cursors wrap every
  // few frames and many frames straddle the wrap; those must still
  // decode (Next linearizes them through its scratch buffer).
  ByteRing ring(100);
  std::vector<wire::Frame> got;
  size_t resyncs = 0;
  for (uint32_t i = 0; i < 500; ++i) {
    const std::vector<uint8_t> frame = EncodeAll({TestUpdate(0, 1, i)});
    ASSERT_TRUE(ring.Append(frame.data(), frame.size())) << i;
    if (i % 2 == 1) {
      resyncs += DrainRing(ring, &got);  // both pending frames
      ASSERT_EQ(got.size(), i + 1u);
    }
  }
  EXPECT_EQ(resyncs, 0u);
  for (uint32_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].u.update.item, i);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(FrameReassemblerTest, SeededStreamFuzzDeliversFramesAndCountsGarbage) {
  // Per seed: frames of all seven kinds with random payloads, separated
  // by random garbage runs, appended in random chunk sizes to a ring of
  // two maximal frames and drained after each append. Garbage never
  // holds the magic's first byte, so no header can begin inside it: the
  // frames out must equal the frames in, in order, with one resync per
  // garbage byte and the ring empty at the end.
  constexpr wire::FrameType kKinds[] = {
      wire::FrameType::kHello,      wire::FrameType::kSourceTick,
      wire::FrameType::kUpdate,     wire::FrameType::kScenarioOp,
      wire::FrameType::kShutdown,   wire::FrameType::kResubscribe,
      wire::FrameType::kObsSnapshot};
  constexpr size_t kKindCount = sizeof(kKinds) / sizeof(kKinds[0]);
  uint8_t magic[sizeof(wire::kMagic)];
  std::memcpy(magic, &wire::kMagic, sizeof(magic));
  size_t kinds_seen[kKindCount] = {};
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    uint64_t state = seed;
    auto draw = [&state](uint64_t bound) { return SplitMix64(state) % bound; };
    std::vector<wire::Frame> sent;
    std::vector<uint8_t> stream;
    size_t garbage = 0;
    const size_t frames = 1 + draw(40);
    for (size_t f = 0; f < frames; ++f) {
      const size_t run = draw(2) == 0 ? 0 : draw(64);
      for (size_t g = 0; g < run; ++g) {
        const auto byte = static_cast<uint8_t>(draw(255));
        stream.push_back(static_cast<uint8_t>(byte + (byte >= magic[0])));
      }
      garbage += run;
      const size_t kind = draw(kKindCount);
      ++kinds_seen[kind];
      wire::Frame frame;
      frame.type = kKinds[kind];
      auto* payload = reinterpret_cast<uint8_t*>(&frame.u);
      for (size_t i = 0; i < wire::PayloadSize(frame.type); ++i) {
        payload[i] = static_cast<uint8_t>(draw(256));
      }
      sent.push_back(frame);
      const std::vector<uint8_t> encoded = EncodeAll({frame});
      stream.insert(stream.end(), encoded.begin(), encoded.end());
    }

    ByteRing ring(2 * wire::kMaxFrameSize);
    std::vector<wire::Frame> got;
    size_t resyncs = 0;
    for (size_t at = 0; at < stream.size();) {
      const size_t chunk =
          1 + draw(std::min(ring.free_space(), stream.size() - at));
      ASSERT_TRUE(ring.Append(stream.data() + at, chunk));
      at += chunk;
      resyncs += DrainRing(ring, &got);
    }
    EXPECT_EQ(resyncs, garbage);
    EXPECT_TRUE(ring.empty());
    ASSERT_EQ(got.size(), sent.size());
    for (size_t i = 0; i < sent.size(); ++i) ExpectSameFrame(sent[i], got[i]);
  }
  for (const size_t seen : kinds_seen) EXPECT_GT(seen, 0u);
}

TEST(ByteRingTest, AppendIsAllOrNothingAndWrapsCleanly) {
  ByteRing ring(8);
  const uint8_t first[6] = {1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(ring.Append(first, sizeof(first)));
  EXPECT_EQ(ring.size(), 6u);
  EXPECT_EQ(ring.free_space(), 2u);
  const uint8_t refused[3] = {7, 8, 9};
  EXPECT_FALSE(ring.Append(refused, sizeof(refused)));  // would overfill
  EXPECT_EQ(ring.size(), 6u);                           // untouched

  ring.Consume(4);  // head advances; next append wraps around the end
  const uint8_t wrap[5] = {7, 8, 9, 10, 11};
  ASSERT_TRUE(ring.Append(wrap, sizeof(wrap)));
  uint8_t out[7] = {};
  EXPECT_EQ(ring.PeekLinear(out, sizeof(out)), 7u);
  const uint8_t want[7] = {5, 6, 7, 8, 9, 10, 11};
  EXPECT_EQ(std::memcmp(out, want, sizeof(want)), 0);
}

TEST(ByteRingTest, ContiguousBackExposesWritableSpansAcrossTheWrap) {
  ByteRing ring(8);
  const uint8_t fill[5] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(ring.Append(fill, sizeof(fill)));
  ring.Consume(3);  // head = 3, two live bytes at [3, 5)

  // First writable span runs to the physical end of the buffer.
  uint8_t* span = nullptr;
  size_t n = ring.ContiguousBack(&span);
  ASSERT_EQ(n, 3u);
  span[0] = 6;
  span[1] = 7;
  span[2] = 8;
  ring.Grow(3);
  // Second span wraps to the front.
  n = ring.ContiguousBack(&span);
  ASSERT_EQ(n, 3u);
  span[0] = 9;
  ring.Grow(1);

  uint8_t out[6] = {};
  EXPECT_EQ(ring.PeekLinear(out, sizeof(out)), 6u);
  const uint8_t want[6] = {4, 5, 6, 7, 8, 9};
  EXPECT_EQ(std::memcmp(out, want, sizeof(want)), 0);
}

// ---------------------------------------------------------------------------
// StreamTransportTest: the byte-stream path of a stream transport such
// as SocketTransport, without the socket — the sender's frames encoded
// back to back into one fixed ByteRing, the receiver deframing them with
// FrameReassembler::Next.

constexpr FrameReassembler::Outcome kFrame = FrameReassembler::Outcome::kFrame;
constexpr FrameReassembler::Outcome kNeedMore =
    FrameReassembler::Outcome::kNeedMore;

TEST(StreamTransportTest, FramesAndDeframesBackToBackMessages) {
  const size_t frame_size = wire::EncodedSize(wire::FrameType::kUpdate);
  ByteRing ring(1024);
  for (uint32_t i = 0; i < 5; ++i) {
    const std::vector<uint8_t> frame = EncodeAll({TestUpdate(0, 1, i)});
    ASSERT_TRUE(ring.Append(frame.data(), frame.size())) << i;
  }
  // All five frames sit packed in one byte ring; the receiver recovers
  // the boundaries from the headers alone.
  EXPECT_EQ(ring.size(), 5 * frame_size);
  wire::Frame frame;
  size_t frame_bytes = 0;
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_EQ(FrameReassembler::Next(ring, &frame, &frame_bytes), kFrame)
        << i;
    EXPECT_EQ(frame_bytes, frame_size);
    EXPECT_EQ(frame.u.update.src, 0u);
    EXPECT_EQ(frame.u.update.item, i);
  }
  EXPECT_EQ(FrameReassembler::Next(ring, &frame, &frame_bytes), kNeedMore);
  EXPECT_TRUE(ring.empty());
}

TEST(StreamTransportTest, PartialFrameStaysPendingUntilCompleted) {
  const std::vector<uint8_t> encoded = EncodeAll({TestUpdate(0, 1, 9)});
  const size_t half = encoded.size() / 2;
  ASSERT_GT(half, wire::kHeaderSize);
  ByteRing ring(1024);

  // First half only: a valid header announcing more bytes than have
  // arrived. The reader must wait, not resync, and leave them in place.
  ASSERT_TRUE(ring.Append(encoded.data(), half));
  wire::Frame frame;
  EXPECT_EQ(FrameReassembler::Next(ring, &frame, nullptr), kNeedMore);
  EXPECT_EQ(ring.size(), half);

  // Second half completes the frame.
  ASSERT_TRUE(ring.Append(encoded.data() + half, encoded.size() - half));
  ASSERT_EQ(FrameReassembler::Next(ring, &frame, nullptr), kFrame);
  EXPECT_EQ(frame.u.update.item, 9u);
  EXPECT_TRUE(ring.empty());
}

TEST(StreamTransportTest, ResyncsPastGarbageToTheNextValidFrame) {
  // Garbage bytes between two valid frames. The reader slides byte by
  // byte (one resync, which the caller counts as a decode error, per
  // byte) until the magic lines up again, losing neither frame.
  const uint8_t garbage[7] = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22};
  const std::vector<uint8_t> first = EncodeAll({TestUpdate(0, 1, 3)});
  const std::vector<uint8_t> second = EncodeAll({TestUpdate(0, 1, 4)});
  ByteRing ring(1024);
  ASSERT_TRUE(ring.Append(first.data(), first.size()));
  ASSERT_TRUE(ring.Append(garbage, sizeof(garbage)));
  ASSERT_TRUE(ring.Append(second.data(), second.size()));

  std::vector<wire::Frame> got;
  EXPECT_EQ(DrainRing(ring, &got), sizeof(garbage));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].u.update.item, 3u);
  EXPECT_EQ(got[1].u.update.item, 4u);
  EXPECT_TRUE(ring.empty());
}

TEST(StreamTransportTest, BackpressureWhenTheByteRingFills) {
  // Ring clamped to one max-size frame: a handful of (smaller) update
  // frames fit, but the ring is finite — a sender that never drains
  // must be refused a whole frame with nothing partially written, and
  // draining one frame must make exactly that much room again.
  const size_t frame_size = wire::EncodedSize(wire::FrameType::kUpdate);
  ByteRing ring(wire::kMaxFrameSize);
  uint32_t sent = 0;
  for (; sent < 100; ++sent) {
    const std::vector<uint8_t> frame = EncodeAll({TestUpdate(0, 1, sent)});
    if (!ring.Append(frame.data(), frame.size())) break;
  }
  ASSERT_GT(sent, 0u);
  ASSERT_LT(sent, 100u);
  EXPECT_EQ(ring.size(), sent * frame_size);
  EXPECT_LT(ring.free_space(), frame_size);

  wire::Frame frame;
  ASSERT_EQ(FrameReassembler::Next(ring, &frame, nullptr), kFrame);
  EXPECT_EQ(frame.u.update.item, 0u);
  const std::vector<uint8_t> retry = EncodeAll({TestUpdate(0, 1, sent)});
  EXPECT_TRUE(ring.Append(retry.data(), retry.size()));
  EXPECT_FALSE(ring.Append(retry.data(), retry.size()));

  // Every admitted frame still arrives in order, the retried one last.
  std::vector<wire::Frame> got;
  EXPECT_EQ(DrainRing(ring, &got), 0u);
  ASSERT_EQ(got.size(), static_cast<size_t>(sent));
  for (uint32_t i = 0; i < sent; ++i) {
    EXPECT_EQ(got[i].u.update.item, i + 1);
  }
}

// ---------------------------------------------------------------------------
// SendBatch: the base-class default is the Send loop, so every transport
// that does not override it keeps per-frame semantics exactly.

/// Everything a run of sends leaves observable.
struct SendRun {
  std::vector<uint32_t> delivered;  // update items, in Poll order
  std::vector<size_t> admitted;     // frames admitted per call
  size_t refusals = 0;              // CapacityExhausted results
  TransportMetrics totals;
  uint64_t recorded = 0;
};

std::vector<wire::Frame> NumberedUpdates(uint32_t count) {
  std::vector<wire::Frame> frames;
  for (uint32_t i = 0; i < count; ++i) frames.push_back(TestUpdate(0, 1, i));
  return frames;
}

/// Offers `frames` from peer 0 to peer 1 in chunks of `chunk`, either as
/// one SendBatch per chunk or as a Send loop that stops at the first
/// refusal, and polls at most `drain` frames between chunks so the
/// destination fills and stalls; then drains what is left.
SendRun Drive(Transport& t, bool batched,
              const std::vector<wire::Frame>& frames, size_t chunk,
              size_t drain) {
  obs::Recorder recorder;
  t.set_recorder(&recorder);
  SendRun run;
  wire::Frame frame;
  size_t next = 0;
  for (size_t round = 0; next < frames.size() && round < 10 * frames.size();
       ++round) {
    const size_t n = std::min(chunk, frames.size() - next);
    size_t admitted = 0;
    Status result = Status::Ok();
    if (batched) {
      result = t.SendBatch(0, 1, frames.data() + next, n, &admitted);
    } else {
      while (admitted < n) {
        result = t.Send(0, 1, frames[next + admitted]);
        if (!result.ok()) break;
        ++admitted;
      }
    }
    EXPECT_TRUE(result.ok() || result.IsCapacityExhausted())
        << result.ToString();
    if (result.IsCapacityExhausted()) ++run.refusals;
    run.admitted.push_back(admitted);
    next += admitted;
    for (size_t i = 0; i < drain && t.Poll(1, &frame, nullptr); ++i) {
      run.delivered.push_back(frame.u.update.item);
    }
  }
  EXPECT_EQ(next, frames.size());
  while (t.Poll(1, &frame, nullptr)) {
    run.delivered.push_back(frame.u.update.item);
  }
  run.totals = t.metrics();
  run.recorded = recorder.recorded();
  t.set_recorder(nullptr);
  return run;
}

void ExpectSameMetrics(const TransportMetrics& a, const TransportMetrics& b) {
  EXPECT_EQ(a.frames_tx, b.frames_tx);
  EXPECT_EQ(a.frames_rx, b.frames_rx);
  EXPECT_EQ(a.bytes_tx, b.bytes_tx);
  EXPECT_EQ(a.bytes_rx, b.bytes_rx);
  EXPECT_EQ(a.backpressure_stalls, b.backpressure_stalls);
  EXPECT_EQ(a.decode_errors, b.decode_errors);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.reconnects, b.reconnects);
}

void ExpectSameRun(const SendRun& batched, const SendRun& looped) {
  EXPECT_EQ(batched.delivered, looped.delivered);
  EXPECT_EQ(batched.admitted, looped.admitted);
  EXPECT_EQ(batched.refusals, looped.refusals);
  ExpectSameMetrics(batched.totals, looped.totals);
  EXPECT_EQ(batched.recorded, looped.recorded);
  // The destination really did fill, so the stall path was compared too.
  EXPECT_GT(batched.refusals, 0u);
  EXPECT_EQ(batched.totals.backpressure_stalls, batched.refusals);
}

TEST(SendBatchTest, InProcDefaultMatchesSendLoop) {
  const std::vector<wire::Frame> frames = NumberedUpdates(200);
  InProcTransport batched(2, 8);
  InProcTransport looped(2, 8);
  const SendRun a = Drive(batched, true, frames, 16, 5);
  const SendRun b = Drive(looped, false, frames, 16, 5);
  ExpectSameRun(a, b);
  ASSERT_EQ(a.delivered.size(), frames.size());
  for (uint32_t i = 0; i < frames.size(); ++i) EXPECT_EQ(a.delivered[i], i);
}

TEST(SendBatchTest, FaultInjectingDefaultMatchesSendLoop) {
  // Faults fire on the wrapper's per-Send counter, so a batch must reach
  // the script frame by frame — the default does.
  auto script = [] {
    Result<FaultScript> made = FaultScript::Create({
        FaultOp{3, static_cast<uint32_t>(FaultKind::kDropFrame), kAnyPeer,
                kAnyPeer, 0},
        FaultOp{10, static_cast<uint32_t>(FaultKind::kDuplicateFrame),
                kAnyPeer, kAnyPeer, 0},
        FaultOp{20, static_cast<uint32_t>(FaultKind::kDelayFrame), kAnyPeer,
                kAnyPeer, 5},
        FaultOp{30, static_cast<uint32_t>(FaultKind::kCorruptByte), kAnyPeer,
                kAnyPeer, kAnyArg},
    });
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    return *made;
  };
  const std::vector<wire::Frame> frames = NumberedUpdates(200);
  InProcTransport inner_batched(2, 8);
  InProcTransport inner_looped(2, 8);
  FaultInjectingTransport batched(inner_batched, script(), /*seed=*/7);
  FaultInjectingTransport looped(inner_looped, script(), /*seed=*/7);
  const SendRun a = Drive(batched, true, frames, 16, 5);
  const SendRun b = Drive(looped, false, frames, 16, 5);
  ExpectSameRun(a, b);
  EXPECT_EQ(a.totals.faults_injected, 4u);
  EXPECT_EQ(batched.metrics().faults_injected,
            looped.metrics().faults_injected);
}

TEST(SendBatchTest, ReportsTheAdmittedPrefixBeforeARefusal) {
  InProcTransport bus(2, 8);
  wire::Frame invalid;
  invalid.type = wire::FrameType::kInvalid;
  const wire::Frame frames[] = {TestUpdate(0, 1, 0), TestUpdate(0, 1, 1),
                                invalid, TestUpdate(0, 1, 3)};
  size_t sent = 99;
  EXPECT_TRUE(bus.SendBatch(0, 1, frames, 4, &sent).IsInvalidArgument());
  EXPECT_EQ(sent, 2u);
  EXPECT_EQ(bus.metrics().frames_tx, 2u);
  sent = 99;
  EXPECT_TRUE(bus.SendBatch(0, 7, frames, 4, &sent).IsInvalidArgument());
  EXPECT_EQ(sent, 0u);
  sent = 99;
  EXPECT_TRUE(bus.SendBatch(0, 1, frames, 0, &sent).ok());
  EXPECT_EQ(sent, 0u);
}

}  // namespace
}  // namespace d3t::net
