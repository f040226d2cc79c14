// Transport boundary: deterministic FIFO delivery, per-peer metric
// attribution and counted backpressure on InProcTransport; framing /
// deframing, partial-frame pending, corruption resync and ring wrap on
// StreamTransport. Both implementations move real encoded bytes — every
// Send/Poll pair is a genuine wire::Encode/Decode round trip. The
// base-class SendBatch is pinned to the Send loop it stands for on the
// InProc, Stream and FaultInjecting transports.

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
  EXPECT_EQ(bus.peer_metrics(0).backpressure_stalls, 1u);
  EXPECT_EQ(bus.metrics().frames_tx, 2u);

  // Draining frees a slot; the retry then succeeds.
  wire::Frame frame;
  ASSERT_TRUE(bus.Poll(1, &frame, nullptr));
  EXPECT_TRUE(bus.Send(0, 1, TestUpdate(0, 1, 3)).ok());
}

TEST(InProcTransportTest, MetricsAttributeTxToSenderRxToReceiver) {
  InProcTransport bus(3, 4);
  ASSERT_TRUE(bus.Send(1, 2, TestUpdate(1, 2, 1)).ok());
  ASSERT_TRUE(bus.Send(1, 2, TestUpdate(1, 2, 2)).ok());
  wire::Frame frame;
  ASSERT_TRUE(bus.Poll(2, &frame, nullptr));

  const size_t frame_bytes = wire::EncodedSize(wire::FrameType::kUpdate);
  EXPECT_EQ(bus.peer_metrics(1).frames_tx, 2u);
  EXPECT_EQ(bus.peer_metrics(1).bytes_tx, 2 * frame_bytes);
  EXPECT_EQ(bus.peer_metrics(1).frames_rx, 0u);
  EXPECT_EQ(bus.peer_metrics(2).frames_rx, 1u);
  EXPECT_EQ(bus.peer_metrics(2).bytes_rx, frame_bytes);
  EXPECT_EQ(bus.metrics().frames_tx, 2u);
  EXPECT_EQ(bus.metrics().frames_rx, 1u);
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
  std::vector<uint64_t> sent(kPeers, 0);
  std::vector<uint64_t> stalls(kPeers, 0);
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
        ++stalls[from];
      } else {
        ASSERT_TRUE(result.ok()) << result.ToString();
        if (model_head + model.size() >= kCapacity) ++wrapped_sends;
        model.push_back({from, next_item});
        ++sent[from];
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
  uint64_t total_sent = 0;
  uint64_t total_stalls = 0;
  const uint64_t frame_bytes = wire::EncodedSize(wire::FrameType::kUpdate);
  for (PeerId peer = 1; peer < kPeers; ++peer) {
    SCOPED_TRACE(peer);
    EXPECT_GT(stalls[peer], 0u);
    EXPECT_EQ(bus.peer_metrics(peer).frames_tx, sent[peer]);
    EXPECT_EQ(bus.peer_metrics(peer).bytes_tx, sent[peer] * frame_bytes);
    EXPECT_EQ(bus.peer_metrics(peer).backpressure_stalls, stalls[peer]);
    EXPECT_EQ(bus.peer_metrics(peer).frames_rx, 0u);
    total_sent += sent[peer];
    total_stalls += stalls[peer];
  }
  EXPECT_EQ(bus.peer_metrics(kSelf).frames_rx, received);
  EXPECT_EQ(bus.peer_metrics(kSelf).bytes_rx, received * frame_bytes);
  EXPECT_EQ(bus.peer_metrics(kSelf).frames_tx, 0u);
  EXPECT_EQ(bus.metrics().frames_tx, total_sent);
  EXPECT_EQ(bus.metrics().frames_rx, received);
  EXPECT_EQ(bus.metrics().backpressure_stalls, total_stalls);
  EXPECT_EQ(bus.metrics().decode_errors, 0u);
  EXPECT_EQ(total_sent - received, model.size());
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

TEST(StreamTransportTest, RequiresConnectedChannels) {
  StreamTransport stream(3, 1024);
  Status unconnected = stream.Send(0, 1, TestUpdate(0, 1, 1));
  EXPECT_TRUE(unconnected.IsFailedPrecondition());
  ASSERT_TRUE(stream.Connect(0, 1).ok());
  EXPECT_TRUE(stream.Connect(0, 1).IsFailedPrecondition());  // duplicate
  EXPECT_TRUE(stream.Send(0, 1, TestUpdate(0, 1, 1)).ok());
}

TEST(StreamTransportTest, FramesAndDeframesBackToBackMessages) {
  StreamTransport stream(2, 1024);
  ASSERT_TRUE(stream.Connect(0, 1).ok());
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(stream.Send(0, 1, TestUpdate(0, 1, i)).ok());
  }
  // All five frames sit packed in one byte ring; the receiver recovers
  // the boundaries from the headers alone.
  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(stream.Poll(1, &frame, &from)) << i;
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(frame.u.update.item, i);
  }
  EXPECT_FALSE(stream.Poll(1, &frame, &from));
}

TEST(StreamTransportTest, PartialFrameStaysPendingUntilCompleted) {
  StreamTransport stream(2, 1024);
  ASSERT_TRUE(stream.Connect(0, 1).ok());
  uint8_t buf[wire::kMaxFrameSize];
  const size_t encoded =
      wire::Encode(TestUpdate(0, 1, 9), buf, sizeof(buf));
  ASSERT_GT(encoded, wire::kHeaderSize);

  // First half only: a valid header announcing more bytes than have
  // arrived. Poll must wait, not error.
  ASSERT_TRUE(stream.SendRaw(0, 1, buf, encoded / 2).ok());
  wire::Frame frame;
  EXPECT_FALSE(stream.Poll(1, &frame, nullptr));
  EXPECT_EQ(stream.metrics().decode_errors, 0u);

  // Second half completes the frame.
  ASSERT_TRUE(
      stream.SendRaw(0, 1, buf + encoded / 2, encoded - encoded / 2).ok());
  ASSERT_TRUE(stream.Poll(1, &frame, nullptr));
  EXPECT_EQ(frame.u.update.item, 9u);
}

TEST(StreamTransportTest, ResyncsPastGarbageToTheNextValidFrame) {
  StreamTransport stream(2, 1024);
  ASSERT_TRUE(stream.Connect(0, 1).ok());

  // Garbage bytes, then a valid frame. The reader slides byte by byte
  // (counting decode errors) until the magic lines up again.
  const uint8_t garbage[7] = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22};
  ASSERT_TRUE(stream.SendRaw(0, 1, garbage, sizeof(garbage)).ok());
  ASSERT_TRUE(stream.Send(0, 1, TestUpdate(0, 1, 4)).ok());

  wire::Frame frame;
  ASSERT_TRUE(stream.Poll(1, &frame, nullptr));
  EXPECT_EQ(frame.u.update.item, 4u);
  EXPECT_EQ(stream.metrics().decode_errors, sizeof(garbage));
  EXPECT_EQ(stream.peer_metrics(1).decode_errors, sizeof(garbage));
  // The valid frame still counted as received.
  EXPECT_EQ(stream.metrics().frames_rx, 1u);
}

TEST(StreamTransportTest, CorruptPayloadIsSkippedChecksummed) {
  StreamTransport stream(2, 1024);
  ASSERT_TRUE(stream.Connect(0, 1).ok());
  uint8_t buf[wire::kMaxFrameSize];
  const size_t encoded =
      wire::Encode(TestUpdate(0, 1, 6), buf, sizeof(buf));
  buf[wire::kHeaderSize + 3] ^= 0x01;  // flip one payload bit
  ASSERT_TRUE(stream.SendRaw(0, 1, buf, encoded).ok());
  ASSERT_TRUE(stream.Send(0, 1, TestUpdate(0, 1, 7)).ok());

  wire::Frame frame;
  ASSERT_TRUE(stream.Poll(1, &frame, nullptr));
  EXPECT_EQ(frame.u.update.item, 7u);
  EXPECT_GT(stream.metrics().decode_errors, 0u);
}

TEST(StreamTransportTest, BackpressureWhenTheByteRingFills) {
  // Ring clamped to one max-size frame: a handful of (smaller) update
  // frames fit, but the ring is finite — a sender that never drains
  // must hit a counted CapacityExhausted stall, and draining one frame
  // must make exactly that much room again.
  StreamTransport stream(2, wire::kMaxFrameSize);
  ASSERT_TRUE(stream.Connect(0, 1).ok());
  uint32_t sent = 0;
  Status full = Status::Ok();
  while (sent < 100) {
    full = stream.Send(0, 1, TestUpdate(0, 1, sent));
    if (!full.ok()) break;
    ++sent;
  }
  ASSERT_GT(sent, 0u);
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.IsCapacityExhausted());
  EXPECT_EQ(stream.metrics().backpressure_stalls, 1u);

  wire::Frame frame;
  ASSERT_TRUE(stream.Poll(1, &frame, nullptr));
  EXPECT_TRUE(stream.Send(0, 1, TestUpdate(0, 1, sent)).ok());
}

TEST(StreamTransportTest, SustainedTrafficWrapsTheRingCleanly) {
  // A small ring forces the write cursor to wrap many times; frames
  // that straddle the wrap must still decode (Poll linearizes through
  // its scratch buffer).
  StreamTransport stream(2, 100);
  ASSERT_TRUE(stream.Connect(0, 1).ok());
  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  uint32_t next_rx = 0;
  for (uint32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(stream.Send(0, 1, TestUpdate(0, 1, i)).ok());
    if (i % 2 == 1) {
      // Drain both pending frames, verifying order.
      ASSERT_TRUE(stream.Poll(1, &frame, &from));
      EXPECT_EQ(frame.u.update.item, next_rx++);
      ASSERT_TRUE(stream.Poll(1, &frame, &from));
      EXPECT_EQ(frame.u.update.item, next_rx++);
    }
  }
  EXPECT_EQ(next_rx, 500u);
  EXPECT_EQ(stream.metrics().frames_rx, 500u);
  EXPECT_EQ(stream.metrics().decode_errors, 0u);
  EXPECT_EQ(stream.metrics().backpressure_stalls, 0u);
}

TEST(StreamTransportTest, PollScansInboundChannelsInSenderOrder) {
  StreamTransport stream(4, 1024);
  // Connect out of order; Poll must still scan ascending by sender.
  ASSERT_TRUE(stream.Connect(2, 0).ok());
  ASSERT_TRUE(stream.Connect(1, 0).ok());
  ASSERT_TRUE(stream.Send(2, 0, TestUpdate(2, 0, 22)).ok());
  ASSERT_TRUE(stream.Send(1, 0, TestUpdate(1, 0, 11)).ok());

  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  ASSERT_TRUE(stream.Poll(0, &frame, &from));
  EXPECT_EQ(from, 1u);
  ASSERT_TRUE(stream.Poll(0, &frame, &from));
  EXPECT_EQ(from, 2u);
}

// ---------------------------------------------------------------------------
// FrameReassembler: the deframing loop shared by StreamTransport and
// SocketTransport, driven directly.

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
// SendBatch: the base-class default is the Send loop, so every transport
// that does not override it keeps per-frame semantics exactly.

/// Everything a run of sends leaves observable.
struct SendRun {
  std::vector<uint32_t> delivered;  // update items, in Poll order
  std::vector<size_t> admitted;     // frames admitted per call
  size_t refusals = 0;              // CapacityExhausted results
  TransportMetrics totals;
  TransportMetrics sender;
  TransportMetrics receiver;
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
  run.sender = t.peer_metrics(0);
  run.receiver = t.peer_metrics(1);
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
  ExpectSameMetrics(batched.sender, looped.sender);
  ExpectSameMetrics(batched.receiver, looped.receiver);
  EXPECT_EQ(batched.recorded, looped.recorded);
  // The destination really did fill, so the stall path was compared too.
  EXPECT_GT(batched.refusals, 0u);
  EXPECT_EQ(batched.sender.backpressure_stalls, batched.refusals);
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

TEST(SendBatchTest, StreamDefaultMatchesSendLoop) {
  const std::vector<wire::Frame> frames = NumberedUpdates(200);
  StreamTransport batched(2, 512);
  StreamTransport looped(2, 512);
  ASSERT_TRUE(batched.Connect(0, 1).ok());
  ASSERT_TRUE(looped.Connect(0, 1).ok());
  const SendRun a = Drive(batched, true, frames, 16, 5);
  const SendRun b = Drive(looped, false, frames, 16, 5);
  ExpectSameRun(a, b);
  ASSERT_EQ(a.delivered.size(), frames.size());
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
  EXPECT_EQ(batched.faults_applied(), looped.faults_applied());
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
