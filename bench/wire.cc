// Wire-layer microbenchmarks: frame encode/decode throughput and the
// cost of moving frames through the transports, one at a time and in
// bulk. The engines' byte-identity pins guarantee wire routing changes
// nothing about the simulation's results
// (DeterminismTest.WireTransportIsByteIdentical*); these benchmarks
// measure what it costs per message.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"
#include "net/fault_transport.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "net/wire.h"

namespace d3t {
namespace {

net::wire::Frame BenchFrame(uint32_t i) {
  return net::wire::Frame::Update(/*src=*/i % 32, /*dst=*/(i + 1) % 32,
                                  /*arrival_us=*/1000 * i, /*item=*/i % 8,
                                  /*value=*/static_cast<double>(i),
                                  /*tag=*/0.25);
}

void BM_EncodeUpdate(benchmark::State& state) {
  uint8_t buf[net::wire::kMaxFrameSize];
  uint32_t i = 0;
  for (auto _ : state) {
    const net::wire::Frame frame = BenchFrame(i++);
    benchmark::DoNotOptimize(
        net::wire::Encode(frame, buf, sizeof(buf)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(
          net::wire::EncodedSize(net::wire::FrameType::kUpdate)));
}
BENCHMARK(BM_EncodeUpdate);

void BM_EncodeDecodeRoundTrip(benchmark::State& state) {
  uint8_t buf[net::wire::kMaxFrameSize];
  uint32_t i = 0;
  for (auto _ : state) {
    const net::wire::Frame frame = BenchFrame(i++);
    const size_t encoded = net::wire::Encode(frame, buf, sizeof(buf));
    Result<net::wire::Frame> decoded = net::wire::Decode(buf, encoded);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(
          net::wire::EncodedSize(net::wire::FrameType::kUpdate)));
}
BENCHMARK(BM_EncodeDecodeRoundTrip);

// The engine's framed leg (Engine::SendFramedUpdate): the 101 members
// of a paper §6.1 base-case overlay, each with a 64-slot ring; every hop
// Sends one update between a seeded pseudo-random pair of distinct
// members and then Polls the destination until its ring is empty. The
// hops spread over every ring the way a run's pushes do, so the bench
// sees which slots a hop touches as well as what it computes.
constexpr uint32_t kHopPeers = 101;
constexpr size_t kHopRingSlots = 64;

void RunEngineHops(benchmark::State& state, net::Transport& bus) {
  constexpr size_t kPairs = 4096;  // a power of two: the index wraps by mask
  Rng rng(/*seed=*/0xD37A);
  std::vector<std::pair<uint32_t, uint32_t>> pairs(kPairs);
  for (auto& [from, to] : pairs) {
    from = static_cast<uint32_t>(rng.NextBounded(kHopPeers));
    to = static_cast<uint32_t>(
        (from + 1 + rng.NextBounded(kHopPeers - 1)) % kHopPeers);
  }
  net::wire::Frame out;
  uint32_t i = 0;
  for (auto _ : state) {
    const auto [from, to] = pairs[i & (kPairs - 1)];
    const net::wire::Frame frame = net::wire::Frame::Update(
        from, to, /*arrival_us=*/1000 * int64_t{i}, /*item=*/i % 8,
        /*value=*/static_cast<double>(i), /*tag=*/0.25);
    benchmark::DoNotOptimize(bus.Send(from, to, frame).ok());
    while (bus.Poll(to, &out, nullptr)) benchmark::DoNotOptimize(out);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// One engine hop through InProcTransport: Send encodes into the
// destination's ring slot, Poll decodes back out. This is the
// per-message cost wire mode adds to a push.
void BM_InProcSendPoll(benchmark::State& state) {
  net::InProcTransport bus(kHopPeers, kHopRingSlots);
  RunEngineHops(state, bus);
}
BENCHMARK(BM_InProcSendPoll);

// The same hops through an empty-script FaultInjectingTransport:
// measured against BM_InProcSendPoll, the delta is the wrapper's
// per-hop tax (a send-counter bump, an exhausted-script check and a
// wedge-window check) — pinned here to stay negligible, since serving
// stacks are expected to leave the wrapper in place and feed it an
// empty script outside chaos drills.
void BM_FaultFreeWrapperOverhead(benchmark::State& state) {
  net::InProcTransport bus(kHopPeers, kHopRingSlots);
  net::FaultInjectingTransport wrapped(bus, net::FaultScript(), /*seed=*/1);
  RunEngineHops(state, wrapped);
}
BENCHMARK(BM_FaultFreeWrapperOverhead);

// The real-socket path: two loopback-TCP endpoints in one process, each
// hop crossing the kernel (send(2) out of the tx ring, recv(2) into the
// rx ring) before header-driven deframing.
void BM_SocketSendPoll(benchmark::State& state) {
  net::SocketTransport tx(/*peer_count=*/2, /*self=*/0);
  net::SocketTransport rx(/*peer_count=*/2, /*self=*/1);
  if (!rx.Listen().ok() || !tx.ConnectPeer(1, rx.port()).ok()) {
    state.SkipWithError("loopback connect failed");
    return;
  }
  net::wire::Frame out;
  uint32_t i = 0;
  for (auto _ : state) {
    const net::wire::Frame frame = net::wire::Frame::Update(
        0, 1, 1000 * i, i % 8, static_cast<double>(i), 0.25);
    benchmark::DoNotOptimize(tx.Send(0, 1, frame).ok());
    while (!rx.Poll(1, &out, nullptr)) {
      // Loopback delivery is near-instant but still asynchronous; keep
      // flushing the sender and spin the nonblocking reader until the
      // frame lands.
      benchmark::DoNotOptimize(tx.Pump().ok());
    }
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SocketSendPoll);

// The bulk path a serving feed takes: 4,096 frames per iteration offered
// through SendBatch (one send(2) per ring's worth instead of one per
// frame), the sender Pumped, and the receiver's Poll serving what its
// rx ring already holds before each refill. Items are frames, so the
// ratio to BM_SocketSendPoll is what batching buys per frame.
void BM_SocketBurst(benchmark::State& state) {
  constexpr size_t kBurst = 4096;
  net::SocketTransport tx(/*peer_count=*/2, /*self=*/0);
  net::SocketTransport rx(/*peer_count=*/2, /*self=*/1);
  if (!rx.Listen().ok() || !tx.ConnectPeer(1, rx.port()).ok()) {
    state.SkipWithError("loopback connect failed");
    return;
  }
  std::vector<net::wire::Frame> frames;
  frames.reserve(kBurst);
  for (uint32_t i = 0; i < kBurst; ++i) {
    frames.push_back(net::wire::Frame::Update(0, 1, 1000 * i, i % 8,
                                              static_cast<double>(i), 0.25));
  }
  net::wire::Frame out;
  for (auto _ : state) {
    size_t sent = 0;
    size_t received = 0;
    while (received < kBurst) {
      if (sent < kBurst) {
        size_t admitted = 0;
        const Status result = tx.SendBatch(0, 1, frames.data() + sent,
                                           kBurst - sent, &admitted);
        if (!result.ok() && !result.IsCapacityExhausted()) {
          state.SkipWithError("socket send failed");
          return;
        }
        sent += admitted;
      }
      benchmark::DoNotOptimize(tx.Pump().ok());
      while (rx.Poll(1, &out, nullptr)) ++received;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBurst));
}
BENCHMARK(BM_SocketBurst);

}  // namespace
}  // namespace d3t

BENCHMARK_MAIN();
