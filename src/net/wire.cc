#include "net/wire.h"

#include <cstring>

namespace d3t::net::wire {
namespace {

/// Longest run Fletcher16 can sum in 32 bits before reducing: from
/// seed sums of at most 254 each, after n bytes of 0xFF sum2 is at most
/// 254 + 254n + 255n(n+1)/2, which first exceeds UINT32_MAX at n = 5803.
inline constexpr size_t kFletcherMaxRun = 5802;
static_assert(kMaxFrameSize <= kFletcherMaxRun,
              "Fletcher16 reduces once per call; a frame longer than "
              "kFletcherMaxRun bytes would overflow its 32-bit sums");

/// Fletcher-16 with position-sensitive running sums (mod 255). Chained
/// across header-prefix and payload via the packed (sum1 << 8 | sum2)
/// seed so the two regions need not be contiguous in memory. Detects
/// every single-bit flip: a one-bit change shifts a byte by ±2^k with
/// k <= 7, and no such delta is ≡ 0 (mod 255).
///
/// The sums accumulate unreduced and are reduced once at the end: mod
/// 255 is a ring homomorphism, so the result is bit-identical to
/// reducing after every byte as long as the 32-bit sums cannot wrap,
/// which holds for any run of at most kFletcherMaxRun bytes.
// d3t-lint: hot
uint16_t Fletcher16(const uint8_t* data, size_t size, uint16_t seed) {
  uint32_t sum1 = seed >> 8;
  uint32_t sum2 = seed & 0xFF;
  for (size_t i = 0; i < size; ++i) {
    sum1 += data[i];
    sum2 += sum1;
  }
  sum1 %= 255;
  sum2 %= 255;
  return static_cast<uint16_t>((sum1 << 8) | sum2);
}

/// Checksum of a frame image: header bytes [0, 6) — magic, version,
/// type, length; the checksum field itself is excluded — chained with
/// the payload bytes. Covering the type byte matters: several payloads
/// share a size, so a payload-only sum would pass a type flip through.
// d3t-lint: hot
uint16_t FrameChecksum(const FrameHeader& header, const uint8_t* payload,
                       size_t payload_size) {
  uint8_t prefix[6];
  std::memcpy(prefix, &header, sizeof(prefix));
  const uint16_t seed = Fletcher16(prefix, sizeof(prefix), 0);
  return Fletcher16(payload, payload_size, seed);
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kInvalid:
      break;
    case FrameType::kHello:
      return "hello";
    case FrameType::kSourceTick:
      return "source-tick";
    case FrameType::kUpdate:
      return "update";
    case FrameType::kPoll:
      return "poll";
    case FrameType::kScenarioOp:
      return "scenario-op";
    case FrameType::kShutdown:
      return "shutdown";
    case FrameType::kResubscribe:
      return "resubscribe";
    case FrameType::kObsSnapshot:
      return "obs-snapshot";
  }
  return "invalid";
}

bool IsFeedFrame(FrameType type) {
  switch (type) {
    case FrameType::kHello:
    case FrameType::kSourceTick:
    case FrameType::kScenarioOp:
    case FrameType::kShutdown:
      return true;
    default:
      return false;
  }
}

uint32_t FeedSeq(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      return frame.u.hello.seq;
    case FrameType::kSourceTick:
      return frame.u.source_tick.seq;
    case FrameType::kScenarioOp:
      return frame.u.scenario.seq;
    case FrameType::kShutdown:
      return frame.u.shutdown.seq;
    default:
      return 0;
  }
}

void SetFeedSeq(Frame& frame, uint32_t seq) {
  switch (frame.type) {
    case FrameType::kHello:
      frame.u.hello.seq = seq;
      break;
    case FrameType::kSourceTick:
      frame.u.source_tick.seq = seq;
      break;
    case FrameType::kScenarioOp:
      frame.u.scenario.seq = seq;
      break;
    case FrameType::kShutdown:
      frame.u.shutdown.seq = seq;
      break;
    default:
      break;
  }
}

Frame Frame::Hello(uint32_t node, uint32_t member_count, uint32_t item_count,
                   uint64_t world_seed, uint32_t seq) {
  Frame f;
  f.type = FrameType::kHello;
  f.u.hello = HelloPayload{node, member_count, item_count, seq, world_seed};
  return f;
}

Frame Frame::SourceTick(uint32_t item, uint32_t tick_index, int64_t at_us,
                        double value, uint32_t seq) {
  Frame f;
  f.type = FrameType::kSourceTick;
  f.u.source_tick = SourceTickPayload{item, tick_index, at_us, value, seq, 0};
  return f;
}

Frame Frame::Update(uint32_t src, uint32_t dst, int64_t arrival_us,
                    uint32_t item, double value, double tag) {
  Frame f;
  f.type = FrameType::kUpdate;
  f.u.update = UpdatePayload{src, dst, arrival_us, item, 0, value, tag};
  return f;
}

Frame Frame::Poll(uint32_t src, uint32_t dst, int64_t at_us,
                  uint32_t state_index, uint32_t phase, double value) {
  Frame f;
  f.type = FrameType::kPoll;
  f.u.poll = PollPayload{src, dst, at_us, state_index, phase, value};
  return f;
}

Frame Frame::ScenarioOp(int64_t at_us, uint32_t kind, uint32_t member,
                        uint32_t item, double c, uint32_t seq) {
  Frame f;
  f.type = FrameType::kScenarioOp;
  f.u.scenario = ScenarioOpPayload{at_us, kind, member, item, seq, c};
  return f;
}

Frame Frame::Shutdown(uint32_t node, uint32_t seq) {
  Frame f;
  f.type = FrameType::kShutdown;
  f.u.shutdown = ShutdownPayload{node, seq};
  return f;
}

Frame Frame::Resubscribe(uint32_t node, uint32_t resume_seq) {
  Frame f;
  f.type = FrameType::kResubscribe;
  f.u.resubscribe = ResubscribePayload{node, resume_seq};
  return f;
}

Frame Frame::ObsSnapshot(const ObsSnapshotPayload& payload) {
  Frame f;
  f.type = FrameType::kObsSnapshot;
  f.u.obs_snapshot = payload;
  return f;
}

size_t PayloadSize(FrameType type) {
  switch (type) {
    case FrameType::kInvalid:
      break;
    case FrameType::kHello:
      return sizeof(HelloPayload);
    case FrameType::kSourceTick:
      return sizeof(SourceTickPayload);
    case FrameType::kUpdate:
      return sizeof(UpdatePayload);
    case FrameType::kPoll:
      return sizeof(PollPayload);
    case FrameType::kScenarioOp:
      return sizeof(ScenarioOpPayload);
    case FrameType::kShutdown:
      return sizeof(ShutdownPayload);
    case FrameType::kResubscribe:
      return sizeof(ResubscribePayload);
    case FrameType::kObsSnapshot:
      return sizeof(ObsSnapshotPayload);
  }
  return 0;
}

size_t EncodedSize(FrameType type) { return kHeaderSize + PayloadSize(type); }

// d3t-lint: hot
size_t Encode(const Frame& frame, uint8_t* out, size_t cap) {
  const size_t payload_size = PayloadSize(frame.type);
  if (payload_size == 0) return 0;
  const size_t total = kHeaderSize + payload_size;
  if (cap < total) return 0;

  FrameHeader header;
  header.type = static_cast<uint8_t>(frame.type);
  header.length = static_cast<uint16_t>(payload_size);
  // The payload union's active member is exactly payload_size bytes at
  // offset 0; every payload struct is padding-free, so each byte the
  // checksum covers is initialized.
  const uint8_t* payload = reinterpret_cast<const uint8_t*>(&frame.u);
  header.checksum = FrameChecksum(header, payload, payload_size);

  std::memcpy(out, &header, kHeaderSize);
  std::memcpy(out + kHeaderSize, payload, payload_size);
  return total;
}

Result<size_t> PeekFrameSize(const uint8_t* data, size_t size) {
  if (size < kHeaderSize) {
    return Status::IoError("truncated frame header");
  }
  FrameHeader header;
  std::memcpy(&header, data, kHeaderSize);
  if (header.magic != kMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (header.version != kVersion) {
    return Status::InvalidArgument("unsupported frame version");
  }
  const size_t payload_size = PayloadSize(static_cast<FrameType>(header.type));
  if (payload_size == 0) {
    return Status::InvalidArgument("unknown frame type");
  }
  if (header.length > kMaxPayloadSize) {
    return Status::InvalidArgument("over-length frame");
  }
  if (header.length != payload_size) {
    return Status::InvalidArgument("frame length does not match its type");
  }
  return kHeaderSize + payload_size;
}

// d3t-lint: hot
Result<Frame> Decode(const uint8_t* data, size_t size, size_t* consumed) {
  Result<size_t> total = PeekFrameSize(data, size);
  if (!total.ok()) return total.status();
  const size_t payload_size = *total - kHeaderSize;
  if (size < *total) {
    return Status::IoError("truncated frame payload");
  }

  FrameHeader header;
  std::memcpy(&header, data, kHeaderSize);
  const uint8_t* payload = data + kHeaderSize;
  if (FrameChecksum(header, payload, payload_size) != header.checksum) {
    return Status::IoError("frame checksum mismatch");
  }

  Frame frame;
  frame.type = static_cast<FrameType>(header.type);
  std::memcpy(&frame.u, payload, payload_size);
  if (consumed != nullptr) *consumed = *total;
  return frame;
}

}  // namespace d3t::net::wire
