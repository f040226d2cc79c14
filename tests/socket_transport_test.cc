// SocketTransport: the Transport boundary over real loopback TCP.
// Connect/accept with the identifying preamble, in-order delivery and
// per-peer metric attribution, counted backpressure when ring + kernel
// buffer fill, byte-wise resync past garbage injected by a raw socket,
// and the error taxonomy — refused, reset, half-closed mid-frame,
// timed out — each surfaced as a precise sticky Status, never a hang.
//
// Every wait in this file is deadline-bounded: a regression that wedges
// the state machine fails the test instead of hanging the suite.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/socket_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "gtest/gtest.h"

namespace d3t::net {
namespace {

constexpr int kDeadlineMs = 10000;

wire::Frame TestUpdate(uint32_t src, uint32_t dst, uint32_t item) {
  return wire::Frame::Update(src, dst, /*arrival_us=*/1000 * item, item,
                             static_cast<double>(item), 0.0);
}

// Polls `t` until a frame arrives or the deadline passes.
bool PollWithin(SocketTransport& t, wire::Frame* out, PeerId* from,
                int budget_ms = kDeadlineMs) {
  const int64_t deadline = MonotonicMillis() + budget_ms;
  while (MonotonicMillis() < deadline) {
    if (t.Poll(t.self(), out, from)) return true;
    (void)t.WaitIo(10);
  }
  return false;
}

// A raw loopback client socket speaking the preamble, for adversarial
// byte injection below the SocketTransport API.
int RawConnect(uint16_t port, uint32_t claimed_peer) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  uint8_t preamble[8];
  std::memcpy(preamble, &kSocketPreambleMagic, 4);
  std::memcpy(preamble + 4, &claimed_peer, 4);
  EXPECT_EQ(send(fd, preamble, sizeof(preamble), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(preamble)));
  return fd;
}

TEST(SocketTransportTest, ConnectSendPollRoundTripsInOrder) {
  SocketTransport rx(2, /*self=*/1);
  ASSERT_TRUE(rx.Listen().ok());
  ASSERT_GT(rx.port(), 0);
  SocketTransport tx(2, /*self=*/0);
  ASSERT_TRUE(tx.ConnectPeer(1, rx.port()).ok());

  constexpr uint32_t kFrames = 100;
  for (uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(tx.Send(0, 1, TestUpdate(0, 1, i)).ok()) << i;
  }

  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  for (uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(PollWithin(rx, &frame, &from)) << i;
    EXPECT_EQ(from, 0u);
    ASSERT_EQ(frame.type, wire::FrameType::kUpdate);
    EXPECT_EQ(frame.u.update.item, i);  // TCP is in-order; so are we
  }
  EXPECT_FALSE(rx.Poll(1, &frame, &from));

  const uint64_t wire_bytes =
      kFrames * wire::EncodedSize(wire::FrameType::kUpdate);
  EXPECT_EQ(tx.metrics().frames_tx, kFrames);
  EXPECT_EQ(tx.metrics().bytes_tx, wire_bytes);
  EXPECT_EQ(tx.metrics().frames_rx, 0u);
  EXPECT_EQ(tx.metrics().bytes_rx, 0u);
  EXPECT_EQ(rx.metrics().frames_rx, kFrames);
  EXPECT_EQ(rx.metrics().bytes_rx, wire_bytes);
  EXPECT_EQ(rx.metrics().frames_tx, 0u);
  EXPECT_EQ(rx.metrics().bytes_tx, 0u);
  EXPECT_EQ(rx.metrics().decode_errors, 0u);
  EXPECT_EQ(tx.pending_tx_bytes(), 0u);
  EXPECT_TRUE(tx.channel_status().ok());
  EXPECT_TRUE(rx.channel_status().ok());
}

TEST(SocketTransportTest, SendValidatesSelfAndConnection) {
  SocketTransport t(3, /*self=*/0);
  EXPECT_TRUE(t.Send(1, 2, TestUpdate(1, 2, 1)).IsInvalidArgument());
  EXPECT_TRUE(t.Send(0, 7, TestUpdate(0, 7, 1)).IsInvalidArgument());
  EXPECT_TRUE(t.Send(0, 2, TestUpdate(0, 2, 1)).IsFailedPrecondition());
  EXPECT_TRUE(t.ConnectPeer(0, 1).IsInvalidArgument());  // self-channel
}

TEST(SocketTransportTest, RefusedConnectionIsBoundedAndPrecise) {
  // A port that just stopped listening: every attempt gets ECONNREFUSED,
  // the bounded retry budget turns that into a precise error instead of
  // spinning forever.
  uint16_t dead_port = 0;
  Result<int> listener = CreateLoopbackListener(&dead_port);
  ASSERT_TRUE(listener.ok());
  close(*listener);

  SocketOptions options;
  options.connect_attempts = 3;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 2;
  SocketTransport t(2, /*self=*/0, options);
  Status refused = t.ConnectPeer(1, dead_port);
  ASSERT_TRUE(refused.IsIoError());
  EXPECT_NE(refused.message().find("connection refused"), std::string::npos)
      << refused.ToString();
  // The channel never opened; sending on it is a precondition failure.
  EXPECT_TRUE(t.Send(0, 1, TestUpdate(0, 1, 1)).IsFailedPrecondition());
}

TEST(SocketTransportTest, BackpressureIsACountedStallWhenPipeFills) {
  // Minimum kernel send buffer + one-frame userspace ring + a receiver
  // that never drains: Send must eventually report CapacityExhausted
  // and count the stall — not grow a queue, not block, not error.
  SocketTransport rx(2, /*self=*/1);
  ASSERT_TRUE(rx.Listen().ok());
  SocketOptions options;
  options.ring_bytes = wire::kMaxFrameSize;  // exactly one frame
  options.sndbuf_bytes = 1;                  // kernel clamps to its floor
  SocketTransport tx(2, /*self=*/0, options);
  ASSERT_TRUE(tx.ConnectPeer(1, rx.port()).ok());

  Status stalled = Status::Ok();
  uint64_t sent = 0;
  // The clamped floor is a few KB; 100k update frames (~4.8 MB) far
  // exceeds anything the kernel plus one ring slot can hold.
  for (uint64_t i = 0; i < 100000; ++i) {
    stalled = tx.Send(0, 1, TestUpdate(0, 1, static_cast<uint32_t>(i)));
    if (!stalled.ok()) break;
    ++sent;
  }
  ASSERT_FALSE(stalled.ok());
  EXPECT_TRUE(stalled.IsCapacityExhausted()) << stalled.ToString();
  EXPECT_GE(tx.metrics().backpressure_stalls, 1u);
  EXPECT_EQ(tx.metrics().frames_tx, sent);
  EXPECT_TRUE(tx.channel_status().ok());  // a stall is not a failure

  // Draining the receiver relieves the stall; every accepted frame
  // arrives intact and in order.
  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  for (uint64_t i = 0; i < sent; ++i) {
    ASSERT_TRUE(PollWithin(rx, &frame, &from)) << i;
    EXPECT_EQ(frame.u.update.item, static_cast<uint32_t>(i));
    // Keep the sender flushing as space opens up.
    (void)tx.Pump();
  }
  EXPECT_EQ(rx.metrics().decode_errors, 0u);
  EXPECT_TRUE(tx.Send(0, 1, TestUpdate(0, 1, 7)).ok());
}

TEST(SocketTransportTest, PeerDeathMidStreamBecomesStickyReset) {
  SocketTransport tx(2, /*self=*/0);
  {
    SocketTransport rx(2, /*self=*/1);
    ASSERT_TRUE(rx.Listen().ok());
    ASSERT_TRUE(tx.ConnectPeer(1, rx.port()).ok());
    ASSERT_TRUE(tx.Send(0, 1, TestUpdate(0, 1, 1)).ok());
    // Let the receiver accept and read, then die with the next bytes
    // unread — its kernel socket answers further traffic with RST.
    wire::Frame frame;
    ASSERT_TRUE(PollWithin(rx, &frame, nullptr));
    ASSERT_TRUE(tx.Send(0, 1, TestUpdate(0, 1, 2)).ok());
  }

  // Keep sending into the dead peer: within the deadline the RST must
  // surface as a sticky IoError naming the reset/broken pipe, never a
  // hang and never a silent success forever.
  const int64_t deadline = MonotonicMillis() + kDeadlineMs;
  Status died = Status::Ok();
  while (MonotonicMillis() < deadline) {
    died = tx.Send(0, 1, TestUpdate(0, 1, 3));
    if (!died.ok() && !died.IsCapacityExhausted()) break;
    SleepMillis(5);
  }
  ASSERT_TRUE(died.IsIoError()) << died.ToString();
  const bool named = died.message().find("reset") != std::string::npos ||
                     died.message().find("broken pipe") != std::string::npos;
  EXPECT_TRUE(named) << died.ToString();
  EXPECT_NE(died.message().find("peer 1"), std::string::npos)
      << died.ToString();
  // Sticky: the channel stays failed and the transport reports it.
  EXPECT_EQ(tx.Send(0, 1, TestUpdate(0, 1, 4)).message(), died.message());
  EXPECT_EQ(tx.channel_status().message(), died.message());
}

TEST(SocketTransportTest, HalfClosedMidFrameIsDetected) {
  SocketTransport rx(2, /*self=*/1);
  ASSERT_TRUE(rx.Listen().ok());
  const int raw = RawConnect(rx.port(), /*claimed_peer=*/0);

  uint8_t buf[wire::kMaxFrameSize];
  const size_t encoded = wire::Encode(TestUpdate(0, 1, 5), buf, sizeof(buf));
  ASSERT_GT(encoded, wire::kHeaderSize);
  // A complete frame, then a torn one — FIN lands mid-frame.
  ASSERT_EQ(send(raw, buf, encoded, MSG_NOSIGNAL),
            static_cast<ssize_t>(encoded));
  ASSERT_EQ(send(raw, buf, encoded / 2, MSG_NOSIGNAL),
            static_cast<ssize_t>(encoded / 2));
  close(raw);

  // The whole frame arrives; the torn tail becomes a precise sticky
  // error, not an eternal kNeedMore.
  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  ASSERT_TRUE(PollWithin(rx, &frame, &from));
  EXPECT_EQ(frame.u.update.item, 5u);
  const int64_t deadline = MonotonicMillis() + kDeadlineMs;
  while (rx.channel_status().ok() && MonotonicMillis() < deadline) {
    (void)rx.Poll(1, &frame, &from);
    SleepMillis(2);
  }
  ASSERT_TRUE(rx.channel_status().IsIoError());
  EXPECT_NE(rx.channel_status().message().find("half-closed mid-frame"),
            std::string::npos)
      << rx.channel_status().ToString();
  EXPECT_GE(rx.metrics().decode_errors, 1u);
}

TEST(SocketTransportTest, CleanShutdownAfterWholeFramesIsNotAnError) {
  SocketTransport rx(2, /*self=*/1);
  ASSERT_TRUE(rx.Listen().ok());
  SocketTransport tx(2, /*self=*/0);
  ASSERT_TRUE(tx.ConnectPeer(1, rx.port()).ok());
  ASSERT_TRUE(tx.Send(0, 1, TestUpdate(0, 1, 9)).ok());
  ASSERT_TRUE(tx.CloseSend(1).ok());

  wire::Frame frame;
  ASSERT_TRUE(PollWithin(rx, &frame, nullptr));
  EXPECT_EQ(frame.u.update.item, 9u);
  // Drive past the FIN: a peer that finished on a frame boundary is a
  // completed stream, not a failure.
  const int64_t deadline = MonotonicMillis() + kDeadlineMs;
  while (!rx.drained() && MonotonicMillis() < deadline) {
    (void)rx.Poll(1, &frame, nullptr);
    SleepMillis(2);
  }
  EXPECT_TRUE(rx.drained());
  EXPECT_TRUE(rx.channel_status().ok()) << rx.channel_status().ToString();
}

TEST(SocketTransportTest, ResyncsPastGarbageInjectedOnTheWire) {
  SocketTransport rx(2, /*self=*/1);
  ASSERT_TRUE(rx.Listen().ok());
  const int raw = RawConnect(rx.port(), /*claimed_peer=*/0);

  const uint8_t garbage[7] = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22};
  ASSERT_EQ(send(raw, garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));
  uint8_t buf[wire::kMaxFrameSize];
  const size_t encoded = wire::Encode(TestUpdate(0, 1, 4), buf, sizeof(buf));
  ASSERT_EQ(send(raw, buf, encoded, MSG_NOSIGNAL),
            static_cast<ssize_t>(encoded));

  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  ASSERT_TRUE(PollWithin(rx, &frame, &from));
  EXPECT_EQ(from, 0u);
  EXPECT_EQ(frame.u.update.item, 4u);
  EXPECT_EQ(rx.metrics().decode_errors, sizeof(garbage));
  EXPECT_EQ(rx.metrics().frames_rx, 1u);
  EXPECT_EQ(rx.metrics().bytes_rx, encoded);
  close(raw);
}

TEST(SocketTransportTest, StrayPreamblesAreDroppedNotRegistered) {
  SocketTransport rx(2, /*self=*/1);
  ASSERT_TRUE(rx.Listen().ok());
  // Wrong magic entirely.
  const int bad_magic_fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rx.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(bad_magic_fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  const uint8_t junk[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_EQ(send(bad_magic_fd, junk, sizeof(junk), MSG_NOSIGNAL), 8);
  // Claims a peer id past the roster.
  const int bad_peer_fd = RawConnect(rx.port(), /*claimed_peer=*/99);

  wire::Frame frame;
  const int64_t deadline = MonotonicMillis() + kDeadlineMs;
  while (rx.metrics().decode_errors < 2 && MonotonicMillis() < deadline) {
    (void)rx.Poll(1, &frame, nullptr);
    SleepMillis(2);
  }
  EXPECT_EQ(rx.metrics().decode_errors, 2u);
  EXPECT_TRUE(rx.drained());  // both strays dropped, nothing registered
  close(bad_magic_fd);
  close(bad_peer_fd);
}

TEST(SocketTransportTest, WaitIoTimesOutWithPreciseStatus) {
  SocketTransport t(2, /*self=*/1);
  ASSERT_TRUE(t.Listen().ok());
  const int64_t before = MonotonicMillis();
  Status waited = t.WaitIo(30);
  ASSERT_TRUE(waited.IsIoError());
  EXPECT_NE(waited.message().find("timed out"), std::string::npos);
  EXPECT_GE(MonotonicMillis() - before, 25);
}

TEST(SocketTransportTest, DoubleListenAndDuplicateConnectAreRejected) {
  SocketTransport rx(2, /*self=*/1);
  ASSERT_TRUE(rx.Listen().ok());
  EXPECT_TRUE(rx.Listen().IsFailedPrecondition());
  SocketTransport tx(2, /*self=*/0);
  ASSERT_TRUE(tx.ConnectPeer(1, rx.port()).ok());
  EXPECT_TRUE(tx.ConnectPeer(1, rx.port()).IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Bulk paths: SendBatch admits a ring's worth of frames per send(2), and
// Poll serves buffered frames before it touches the kernel.

constexpr uint64_t kUpdateBytes = 48;  // wire::EncodedSize(kUpdate)

std::vector<wire::Frame> NumberedUpdates(uint32_t count) {
  std::vector<wire::Frame> frames;
  frames.reserve(count);
  for (uint32_t i = 0; i < count; ++i) frames.push_back(TestUpdate(0, 1, i));
  return frames;
}

TEST(SocketTransportTest, BurstThroughSmallRingsArrivesCompleteAndInOrder) {
  // 10k frames through 4 KiB rings on both ends: SendBatch refills the
  // tx ring many times over, frames straddle the rx ring's wrap, and
  // Poll drains part of what is buffered between Pumps.
  ASSERT_EQ(wire::EncodedSize(wire::FrameType::kUpdate), kUpdateBytes);
  SocketOptions options;
  options.ring_bytes = 4096;
  SocketTransport rx(2, /*self=*/1, options);
  ASSERT_TRUE(rx.Listen().ok());
  SocketTransport tx(2, /*self=*/0, options);
  ASSERT_TRUE(tx.ConnectPeer(1, rx.port()).ok());

  constexpr uint32_t kFrames = 10000;
  const std::vector<wire::Frame> frames = NumberedUpdates(kFrames);
  size_t next = 0;
  uint32_t received = 0;
  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  const int64_t deadline = MonotonicMillis() + kDeadlineMs;
  while (received < kFrames && MonotonicMillis() < deadline) {
    if (next < kFrames) {
      size_t sent = 0;
      const Status result =
          tx.SendBatch(0, 1, frames.data() + next,
                       std::min<size_t>(64, kFrames - next), &sent);
      ASSERT_TRUE(result.ok() || result.IsCapacityExhausted())
          << result.ToString();
      next += sent;
    }
    ASSERT_TRUE(tx.Pump().ok());
    ASSERT_TRUE(rx.Pump().ok());
    uint32_t polled = 0;
    while (polled < 50 && rx.Poll(1, &frame, &from)) {
      ASSERT_EQ(from, 0u);
      ASSERT_EQ(frame.u.update.item, received);
      ++received;
      ++polled;
    }
    if (polled == 0) (void)rx.WaitIo(5);
  }
  ASSERT_EQ(received, kFrames);
  EXPECT_FALSE(rx.Poll(1, &frame, &from));
  EXPECT_EQ(tx.metrics().frames_tx, kFrames);
  EXPECT_EQ(tx.metrics().bytes_tx, kFrames * kUpdateBytes);
  EXPECT_EQ(rx.metrics().frames_rx, kFrames);
  EXPECT_EQ(rx.metrics().bytes_rx, kFrames * kUpdateBytes);
  EXPECT_EQ(rx.metrics().decode_errors, 0u);
  EXPECT_EQ(tx.pending_tx_bytes(), 0u);
  EXPECT_TRUE(rx.channel_status().ok());
}

TEST(SocketTransportTest, PeerConnectingBehindBufferedFramesIsRegistered) {
  // Peer 0's burst is pulled into the rx ring by the first Poll; peer 1
  // connects while most of it is still buffered. Poll serves buffered
  // frames without running the acceptor, so peer 1 must be adopted the
  // moment the ring stops yielding — not starved.
  SocketTransport rx(3, /*self=*/2);
  ASSERT_TRUE(rx.Listen().ok());
  SocketTransport first(3, /*self=*/0);
  ASSERT_TRUE(first.ConnectPeer(2, rx.port()).ok());
  constexpr uint32_t kBurst = 500;
  constexpr uint32_t kLate = 20;
  for (uint32_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(first.Send(0, 2, TestUpdate(0, 2, i)).ok()) << i;
  }
  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  ASSERT_TRUE(PollWithin(rx, &frame, &from));
  ASSERT_EQ(from, 0u);
  ASSERT_EQ(frame.u.update.item, 0u);

  SocketTransport late(3, /*self=*/1);
  ASSERT_TRUE(late.ConnectPeer(2, rx.port()).ok());
  for (uint32_t i = 0; i < kLate; ++i) {
    ASSERT_TRUE(late.Send(1, 2, TestUpdate(1, 2, i)).ok()) << i;
  }

  uint32_t next[2] = {1, 0};  // next expected item per sender
  const int64_t deadline = MonotonicMillis() + kDeadlineMs;
  while ((next[0] < kBurst || next[1] < kLate) &&
         MonotonicMillis() < deadline) {
    if (!rx.Poll(2, &frame, &from)) {
      (void)rx.WaitIo(10);
      continue;
    }
    ASSERT_LT(from, 2u);
    ASSERT_EQ(frame.u.update.item, next[from]) << "from " << from;
    ++next[from];
  }
  EXPECT_EQ(next[0], kBurst);
  EXPECT_EQ(next[1], kLate);
  EXPECT_EQ(rx.metrics().frames_rx, kBurst + kLate);
  EXPECT_EQ(rx.metrics().bytes_rx, (kBurst + kLate) * kUpdateBytes);
  EXPECT_EQ(rx.metrics().decode_errors, 0u);
}

TEST(SocketTransportTest, SendBatchStallsOnceAndResumesWithoutGapOrDuplicate) {
  // A receiver that never drains behind the kernel's minimum send
  // buffer: one SendBatch admits what ring + kernel can hold, counts one
  // stall for the frame that did not fit, and a retry from the first
  // unadmitted frame carries on exactly where it stopped.
  SocketTransport rx(2, /*self=*/1);
  ASSERT_TRUE(rx.Listen().ok());
  SocketOptions options;
  options.ring_bytes = 4096;
  options.sndbuf_bytes = 1;  // kernel clamps to its floor
  SocketTransport tx(2, /*self=*/0, options);
  ASSERT_TRUE(tx.ConnectPeer(1, rx.port()).ok());

  // ~1.9 MB of frames: far past the send-buffer floor, the receiver's
  // unread socket buffer and one ring.
  constexpr uint32_t kFrames = 40000;
  const std::vector<wire::Frame> frames = NumberedUpdates(kFrames);
  size_t sent = 0;
  const Status stalled = tx.SendBatch(0, 1, frames.data(), kFrames, &sent);
  ASSERT_TRUE(stalled.IsCapacityExhausted()) << stalled.ToString();
  ASSERT_GT(sent, 0u);
  ASSERT_LT(sent, kFrames);
  EXPECT_TRUE(tx.channel_status().ok());  // a stall is not a failure

  // Exactly what `sent` admitted Send calls and one refused one count.
  auto expect_tx = [&tx](uint64_t frames_tx, uint64_t stalls) {
    const TransportMetrics& m = tx.metrics();
    EXPECT_EQ(m.frames_tx, frames_tx);
    EXPECT_EQ(m.bytes_tx, frames_tx * kUpdateBytes);
    EXPECT_EQ(m.backpressure_stalls, stalls);
    EXPECT_EQ(m.frames_rx, 0u);
    EXPECT_EQ(m.bytes_rx, 0u);
    EXPECT_EQ(m.decode_errors, 0u);
  };
  expect_tx(sent, 1);

  size_t admitted = sent;
  uint64_t stalls = 1;
  uint32_t received = 0;
  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  const int64_t deadline = MonotonicMillis() + kDeadlineMs;
  while (received < kFrames && MonotonicMillis() < deadline) {
    if (admitted < kFrames) {
      size_t more = 0;
      const Status result = tx.SendBatch(0, 1, frames.data() + admitted,
                                         kFrames - admitted, &more);
      if (result.IsCapacityExhausted()) {
        ++stalls;
      } else {
        ASSERT_TRUE(result.ok()) << result.ToString();
        EXPECT_EQ(admitted + more, kFrames);
      }
      admitted += more;
    }
    (void)tx.Pump();
    bool progressed = false;
    while (rx.Poll(1, &frame, &from)) {
      ASSERT_EQ(frame.u.update.item, received);  // no gap, no duplicate
      ++received;
      progressed = true;
    }
    if (!progressed) (void)rx.WaitIo(5);
  }
  ASSERT_EQ(received, kFrames);
  EXPECT_FALSE(rx.Poll(1, &frame, &from));
  expect_tx(kFrames, stalls);
  EXPECT_EQ(rx.metrics().frames_rx, kFrames);
  EXPECT_EQ(rx.metrics().decode_errors, 0u);
}

TEST(SocketTransportTest, SendBatchOffersAdmittedFramesBeforeRefusing) {
  // An unencodable frame mid-batch is refused like the Send that would
  // have met it, and the frames admitted ahead of it have already been
  // handed to the kernel — none wait in the tx ring for a later call.
  SocketTransport rx(2, /*self=*/1);
  ASSERT_TRUE(rx.Listen().ok());
  SocketTransport tx(2, /*self=*/0);
  ASSERT_TRUE(tx.ConnectPeer(1, rx.port()).ok());
  wire::Frame invalid;
  invalid.type = wire::FrameType::kInvalid;
  const wire::Frame frames[] = {TestUpdate(0, 1, 0), TestUpdate(0, 1, 1),
                                invalid, TestUpdate(0, 1, 3)};
  size_t sent = 99;
  EXPECT_TRUE(tx.SendBatch(0, 1, frames, 4, &sent).IsInvalidArgument());
  EXPECT_EQ(sent, 2u);
  EXPECT_EQ(tx.pending_tx_bytes(), 0u);
  EXPECT_EQ(tx.metrics().frames_tx, 2u);
  sent = 99;
  EXPECT_TRUE(tx.SendBatch(1, 1, frames, 4, &sent).IsInvalidArgument());
  EXPECT_EQ(sent, 0u);

  wire::Frame frame;
  for (uint32_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(PollWithin(rx, &frame, nullptr)) << i;
    EXPECT_EQ(frame.u.update.item, i);
  }
  EXPECT_FALSE(rx.Poll(1, &frame, nullptr));
}

}  // namespace
}  // namespace d3t::net
