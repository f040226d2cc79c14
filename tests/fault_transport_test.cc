// FaultInjectingTransport: scripted, seeded chaos over any Transport.
// Pins the per-kind semantics (drop, duplicate, corrupt, delay, reset,
// wedge), the send-counter time axis, script validation, transparency
// of the empty script and of out-of-range sends, deterministic replay,
// and the merged metrics surface (inner counters + injected damage).

#include <cstdint>
#include <vector>

#include "net/fault_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "gtest/gtest.h"

namespace d3t::net {
namespace {

wire::Frame Tick(uint32_t item, uint32_t index) {
  return wire::Frame::SourceTick(item, index, 1000 * index,
                                 static_cast<double>(index), index);
}

FaultScript Script(std::vector<FaultOp> ops) {
  Result<FaultScript> script = FaultScript::Create(std::move(ops));
  EXPECT_TRUE(script.ok()) << script.status().message();
  return *script;
}

/// Drains every frame addressed to `self`, returning tick indices.
std::vector<uint32_t> DrainTicks(Transport& t, PeerId self) {
  std::vector<uint32_t> got;
  wire::Frame frame;
  PeerId from = kInvalidPeerId;
  while (t.Poll(self, &frame, &from)) {
    EXPECT_EQ(frame.type, wire::FrameType::kSourceTick);
    got.push_back(frame.u.source_tick.tick_index);
  }
  return got;
}

TEST(FaultScriptTest, RejectsUnknownKind) {
  Result<FaultScript> script = FaultScript::Create(
      {FaultOp{0, 99, kAnyPeer, kAnyPeer, 0}});
  ASSERT_FALSE(script.ok());
  EXPECT_NE(script.status().message().find("unknown kind 99"),
            std::string::npos);
}

TEST(FaultScriptTest, RejectsUnsortedOps) {
  Result<FaultScript> script = FaultScript::Create(
      {FaultOp{5, 0, kAnyPeer, kAnyPeer, 0},
       FaultOp{3, 0, kAnyPeer, kAnyPeer, 0}});
  ASSERT_FALSE(script.ok());
  EXPECT_NE(script.status().message().find("not time-sorted"),
            std::string::npos);
}

TEST(FaultTransportTest, EmptyScriptIsTransparent) {
  InProcTransport inner(2, 8);
  FaultInjectingTransport chaos(inner, FaultScript(), /*seed=*/1);
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(chaos.Send(0, 1, Tick(7, i)).ok());
  }
  EXPECT_EQ(DrainTicks(chaos, 1), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(chaos.metrics().faults_injected, 0u);
  EXPECT_EQ(chaos.metrics().frames_dropped, 0u);
  EXPECT_EQ(chaos.metrics().frames_tx, inner.metrics().frames_tx);
  EXPECT_EQ(chaos.metrics().bytes_rx, inner.metrics().bytes_rx);
}

TEST(FaultTransportTest, DropFrameSwallowsOneSend) {
  InProcTransport inner(2, 8);
  FaultInjectingTransport chaos(
      inner, Script({FaultOp{1, 0 /*kDropFrame*/, kAnyPeer, kAnyPeer, 0}}),
      1);
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(chaos.Send(0, 1, Tick(7, i)).ok());
  }
  EXPECT_EQ(DrainTicks(chaos, 1), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(chaos.metrics().faults_injected, 1u);
  EXPECT_EQ(chaos.metrics().frames_dropped, 1u);
  // The dropped frame never reached the inner transport.
  const uint64_t tick_bytes = wire::EncodedSize(wire::FrameType::kSourceTick);
  EXPECT_EQ(chaos.metrics().frames_tx, 2u);
  EXPECT_EQ(chaos.metrics().bytes_tx, 2 * tick_bytes);
  EXPECT_EQ(chaos.metrics().frames_rx, 2u);
  EXPECT_EQ(chaos.metrics().bytes_rx, 2 * tick_bytes);
}

TEST(FaultTransportTest, OutOfRangeSendFiresNoOp) {
  // A send naming a peer the inner transport lacks fires nothing: it
  // reaches the inner transport's refusal, and the armed op waits for
  // the next in-range send.
  InProcTransport inner(2, 8);
  FaultInjectingTransport chaos(
      inner, Script({FaultOp{0, 0 /*kDropFrame*/, kAnyPeer, kAnyPeer, 0}}),
      1);
  EXPECT_TRUE(chaos.Send(0, 5, Tick(7, 0)).IsInvalidArgument());
  EXPECT_TRUE(chaos.Send(5, 1, Tick(7, 1)).IsInvalidArgument());
  EXPECT_EQ(chaos.metrics().faults_injected, 0u);
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 2)).ok());  // dropped by the op
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 3)).ok());
  EXPECT_EQ(chaos.metrics().faults_injected, 1u);
  EXPECT_EQ(DrainTicks(chaos, 1), (std::vector<uint32_t>{3}));
}

TEST(FaultTransportTest, PeerFilterSkipsNonMatchingSends) {
  InProcTransport inner(3, 8);
  // Armed from send 0, but only fires on the first frame to peer 2.
  FaultInjectingTransport chaos(
      inner, Script({FaultOp{0, 0 /*kDropFrame*/, kAnyPeer, 2, 0}}), 1);
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 0)).ok());
  ASSERT_TRUE(chaos.Send(0, 2, Tick(7, 1)).ok());
  EXPECT_EQ(DrainTicks(chaos, 1), (std::vector<uint32_t>{0}));
  EXPECT_TRUE(DrainTicks(chaos, 2).empty());
  EXPECT_EQ(chaos.metrics().faults_injected, 1u);
}

TEST(FaultTransportTest, DuplicateFrameDeliversTwice) {
  InProcTransport inner(2, 8);
  FaultInjectingTransport chaos(
      inner,
      Script({FaultOp{0, 1 /*kDuplicateFrame*/, kAnyPeer, kAnyPeer, 0}}), 1);
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 0)).ok());
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 1)).ok());
  EXPECT_EQ(DrainTicks(chaos, 1), (std::vector<uint32_t>{0, 0, 1}));
  EXPECT_EQ(chaos.metrics().faults_injected, 1u);
  EXPECT_EQ(chaos.metrics().frames_dropped, 0u);
}

TEST(FaultTransportTest, CorruptByteBecomesReceiverDecodeError) {
  InProcTransport inner(2, 8);
  FaultInjectingTransport chaos(
      inner, Script({FaultOp{0, 2 /*kCorruptByte*/, kAnyPeer, kAnyPeer,
                             kAnyArg}}),
      42);
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 0)).ok());
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 1)).ok());
  // The checksum catches the flip: the corrupted frame never arrives.
  EXPECT_EQ(DrainTicks(chaos, 1), (std::vector<uint32_t>{1}));
  EXPECT_EQ(chaos.metrics().faults_injected, 1u);
  EXPECT_EQ(chaos.metrics().frames_dropped, 1u);
  EXPECT_EQ(chaos.metrics().decode_errors, 1u);
  // The wrapper caught the flip itself: only the intact frame crossed.
  const uint64_t tick_bytes = wire::EncodedSize(wire::FrameType::kSourceTick);
  EXPECT_EQ(chaos.metrics().frames_tx, 1u);
  EXPECT_EQ(chaos.metrics().bytes_tx, tick_bytes);
  EXPECT_EQ(chaos.metrics().frames_rx, 1u);
  EXPECT_EQ(chaos.metrics().bytes_rx, tick_bytes);
}

TEST(FaultTransportTest, DelayFrameReordersPastLaterSends) {
  InProcTransport inner(2, 8);
  FaultInjectingTransport chaos(
      inner, Script({FaultOp{0, 3 /*kDelayFrame*/, kAnyPeer, kAnyPeer, 2}}),
      1);
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 0)).ok());  // held until send 2
  EXPECT_EQ(chaos.delayed_frames(), 1u);
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 1)).ok());
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 2)).ok());  // releases the held frame
  EXPECT_EQ(chaos.delayed_frames(), 0u);
  // The released frame re-enters ahead of the send that released it.
  EXPECT_EQ(DrainTicks(chaos, 1), (std::vector<uint32_t>{1, 0, 2}));
  EXPECT_EQ(chaos.metrics().faults_injected, 1u);
  EXPECT_EQ(chaos.metrics().frames_dropped, 0u);
}

TEST(FaultTransportTest, ResetConnDropsFrameAndDelayedAndCountsReconnect) {
  InProcTransport inner(2, 8);
  FaultInjectingTransport chaos(
      inner, Script({FaultOp{0, 3 /*kDelayFrame*/, kAnyPeer, kAnyPeer, 10},
                     FaultOp{1, 4 /*kResetConn*/, kAnyPeer, kAnyPeer, 0}}),
      1);
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 0)).ok());  // held back
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 1)).ok());  // triggers the reset
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 2)).ok());  // after reconnect
  EXPECT_EQ(DrainTicks(chaos, 1), (std::vector<uint32_t>{2}));
  EXPECT_EQ(chaos.metrics().faults_injected, 2u);
  EXPECT_EQ(chaos.metrics().frames_dropped, 2u);
  EXPECT_EQ(chaos.metrics().reconnects, 1u);
  EXPECT_EQ(chaos.delayed_frames(), 0u);
}

TEST(FaultTransportTest, WedgePeerBlackholesWindow) {
  InProcTransport inner(3, 8);
  // Send 0 wedges peer 1 for the window [0, 3): sends 1 and 2 touching
  // peer 1 vanish without consuming script ops; send 3 is past the
  // window and flows again.
  FaultInjectingTransport chaos(
      inner, Script({FaultOp{0, 5 /*kWedgePeer*/, kAnyPeer, 1, 3}}), 1);
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 0)).ok());  // triggers + dropped
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 1)).ok());  // wedged
  ASSERT_TRUE(chaos.Send(0, 2, Tick(7, 2)).ok());  // other peer: flows
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 3)).ok());  // window over
  EXPECT_EQ(DrainTicks(chaos, 1), (std::vector<uint32_t>{3}));
  EXPECT_EQ(DrainTicks(chaos, 2), (std::vector<uint32_t>{2}));
  EXPECT_EQ(chaos.metrics().faults_injected, 1u);
  EXPECT_EQ(chaos.metrics().frames_dropped, 2u);
}

TEST(FaultTransportTest, WedgePeerForeverNeverReopens) {
  InProcTransport inner(2, 8);
  FaultInjectingTransport chaos(
      inner, Script({FaultOp{0, 5 /*kWedgePeer*/, kAnyPeer, 1, 0}}), 1);
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(chaos.Send(0, 1, Tick(7, i)).ok());
  }
  EXPECT_TRUE(DrainTicks(chaos, 1).empty());
  EXPECT_EQ(chaos.metrics().frames_dropped, 5u);
}

TEST(FaultTransportTest, OutOfRangeSendInsideAWedgeWindowIsRefused) {
  // The peer range is checked before the wedge window: a send naming a
  // peer the inner transport lacks is refused even when it touches the
  // wedged peer, and counts no drop.
  InProcTransport inner(2, 8);
  FaultInjectingTransport chaos(
      inner, Script({FaultOp{0, 5 /*kWedgePeer*/, kAnyPeer, 1, 0}}), 1);
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 0)).ok());  // triggers + dropped
  ASSERT_EQ(chaos.metrics().frames_dropped, 1u);
  EXPECT_TRUE(chaos.Send(1, 9, Tick(7, 1)).IsInvalidArgument());
  EXPECT_TRUE(chaos.Send(9, 1, Tick(7, 2)).IsInvalidArgument());
  EXPECT_EQ(chaos.metrics().frames_dropped, 1u);
}

TEST(FaultTransportTest, ReplayIsDeterministic) {
  // Same script + seed + workload → byte-identical damage, including
  // the seeded corrupt-byte choice.
  auto run = [] {
    InProcTransport inner(2, 16);
    FaultInjectingTransport chaos(
        inner,
        Script({FaultOp{1, 2 /*kCorruptByte*/, kAnyPeer, kAnyPeer, kAnyArg},
                FaultOp{3, 3 /*kDelayFrame*/, kAnyPeer, kAnyPeer, 2},
                FaultOp{6, 0 /*kDropFrame*/, kAnyPeer, kAnyPeer, 0}}),
        /*seed=*/0xD37Au);
    for (uint32_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(chaos.Send(0, 1, Tick(7, i)).ok());
    }
    return DrainTicks(chaos, 1);
  };
  const std::vector<uint32_t> first = run();
  const std::vector<uint32_t> second = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 8u);  // 10 sent, 1 corrupted, 1 dropped
}

TEST(FaultTransportTest, MetricsMergeInnerAndInjected) {
  InProcTransport inner(2, 8);
  FaultInjectingTransport chaos(
      inner, Script({FaultOp{0, 0 /*kDropFrame*/, kAnyPeer, kAnyPeer, 0}}),
      1);
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 0)).ok());  // dropped
  ASSERT_TRUE(chaos.Send(0, 1, Tick(7, 1)).ok());  // delivered
  EXPECT_EQ(DrainTicks(chaos, 1), (std::vector<uint32_t>{1}));
  // Inner counters (tx/rx of the one delivered frame) and wrapper
  // damage are visible through one metrics surface.
  EXPECT_EQ(chaos.metrics().frames_tx, 1u);
  EXPECT_EQ(chaos.metrics().frames_rx, 1u);
  EXPECT_EQ(chaos.metrics().faults_injected, 1u);
  EXPECT_EQ(chaos.metrics().frames_dropped, 1u);
  EXPECT_EQ(inner.metrics().faults_injected, 0u);
}

}  // namespace
}  // namespace d3t::net
