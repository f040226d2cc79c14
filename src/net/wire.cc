#include "net/wire.h"

#include <cstring>
#include <type_traits>

namespace d3t::net::wire {
namespace {

/// Longest run whose unreduced Fletcher sums fit in 32 bits: from zero
/// sums, after n bytes of 0xFF sum2 is 255n(n+1)/2, which first exceeds
/// UINT32_MAX at n = 5804.
inline constexpr size_t kFletcherMaxRun = 5803;
static_assert(kMaxFrameSize <= kFletcherMaxRun,
              "a frame's checksum reduces once; a frame longer than "
              "kFletcherMaxRun bytes would overflow its 32-bit sums");

/// The eight bytes at `p` as an integer with byte i in bits [8i, 8i+8),
/// whatever the host's byte order (compilers fold this into one load on
/// little-endian hosts).
inline uint64_t LoadLittleEndian64(const uint8_t* p) {
  return uint64_t{p[0]} | uint64_t{p[1]} << 8 | uint64_t{p[2]} << 16 |
         uint64_t{p[3]} << 24 | uint64_t{p[4]} << 32 | uint64_t{p[5]} << 40 |
         uint64_t{p[6]} << 48 | uint64_t{p[7]} << 56;
}

/// Fletcher-16's running sums, unreduced. The sums are position
/// sensitive, and every single-bit flip is detected: a one-bit change
/// shifts a byte by ±2^k with k <= 7, and no such delta is ≡ 0
/// (mod 255).
///
/// Add() sums eight bytes at a time in closed form. Over a block
/// b_0..b_{k-1}, the byte-serial recurrence (sum1 += b_i; sum2 += sum1)
/// adds k·sum1 + Σ(k−i)·b_i to sum2 and Σ b_i to sum1: the same
/// integers, without a dependency chain through every byte. Reduce()
/// reduces once at the end, which is bit-identical to reducing after
/// every byte (mod 255 is a ring homomorphism) as long as the 32-bit
/// sums cannot wrap, which holds for any run of at most kFletcherMaxRun
/// bytes.
struct Fletcher {
  uint32_t sum1 = 0;
  uint32_t sum2 = 0;

  void Add(const uint8_t* data, size_t size) {
    // A block's bytes spread into 16-bit lanes: even-indexed bytes in
    // one word, odd-indexed in another. Multiplying by a constant whose
    // lanes hold weights sums the weighted lanes into the top lane. No
    // lane carries into the next: the largest lane sum, Σ(8−i)·b_i, is
    // at most 36·255 < 2^16.
    constexpr uint64_t kLanes = 0x00FF00FF00FF00FFULL;
    constexpr uint64_t kOnes = 0x0001000100010001ULL;
    constexpr uint64_t kEvenWeights = 0x0008000600040002ULL;  // 8,6,4,2
    constexpr uint64_t kOddWeights = 0x0007000500030001ULL;   // 7,5,3,1
    size_t i = 0;
    for (; i + 8 <= size; i += 8) {
      const uint64_t word = LoadLittleEndian64(data + i);
      const uint64_t even = word & kLanes;
      const uint64_t odd = (word >> 8) & kLanes;
      const auto block = static_cast<uint32_t>(((even + odd) * kOnes) >> 48);
      const auto weighted = static_cast<uint32_t>(
          (even * kEvenWeights + odd * kOddWeights) >> 48);
      sum2 += 8 * sum1 + weighted;
      sum1 += block;
    }
    for (; i < size; ++i) {
      sum1 += data[i];
      sum2 += sum1;
    }
  }

  uint16_t Reduce() const {
    return static_cast<uint16_t>(((sum1 % 255) << 8) | (sum2 % 255));
  }
};

/// Checksum of a frame image: header bytes [0, 6) — magic, version,
/// type, length; the checksum field itself is excluded — followed by the
/// payload. Covering the type byte matters: several payloads share a
/// size, so a payload-only sum would pass a type flip through. The
/// header bytes are the canonical ones for `type`: Encode writes exactly
/// these, and Decode checks every one of them before it sums. Building
/// them here rather than reading them lets the compiler fold the five
/// bytes besides the type into constants.
// d3t-lint: hot
template <size_t kPayloadSize>
uint16_t FrameChecksum(FrameType type, const uint8_t* payload) {
  FrameHeader header;
  header.type = static_cast<uint8_t>(type);
  header.length = static_cast<uint16_t>(kPayloadSize);
  uint8_t prefix[6];
  std::memcpy(prefix, &header, sizeof(prefix));
  Fletcher sums;
  sums.Add(prefix, sizeof(prefix));
  sums.Add(payload, kPayloadSize);
  return sums.Reduce();
}

/// Calls `fn` with the payload size of `type` as a
/// std::integral_constant (0 for kInvalid and unknown values): the one
/// map from type to size, through which each kind's encoder and decoder
/// compile with a fixed payload length.
template <typename Fn>
auto VisitPayloadSize(FrameType type, Fn&& fn) {
  using std::integral_constant;
  switch (type) {
    case FrameType::kInvalid:
      break;
    case FrameType::kHello:
      return fn(integral_constant<size_t, sizeof(HelloPayload)>());
    case FrameType::kSourceTick:
      return fn(integral_constant<size_t, sizeof(SourceTickPayload)>());
    case FrameType::kUpdate:
      return fn(integral_constant<size_t, sizeof(UpdatePayload)>());
    case FrameType::kScenarioOp:
      return fn(integral_constant<size_t, sizeof(ScenarioOpPayload)>());
    case FrameType::kShutdown:
      return fn(integral_constant<size_t, sizeof(ShutdownPayload)>());
    case FrameType::kResubscribe:
      return fn(integral_constant<size_t, sizeof(ResubscribePayload)>());
    case FrameType::kObsSnapshot:
      return fn(integral_constant<size_t, sizeof(ObsSnapshotPayload)>());
  }
  return fn(integral_constant<size_t, 0>());
}

/// Why `header` cannot start a frame of a type whose payload is
/// `payload_size` bytes (0: an unknown type), or null when it can. Every
/// such fault is an InvalidArgument.
const char* HeaderError(const FrameHeader& header, size_t payload_size) {
  if (header.magic != kMagic) return "bad frame magic";
  if (header.version != kVersion) return "unsupported frame version";
  if (payload_size == 0) return "unknown frame type";
  if (header.length > kMaxPayloadSize) return "over-length frame";
  if (header.length != payload_size) {
    return "frame length does not match its type";
  }
  return nullptr;
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
  return VisitPayloadSize(type, [](auto size) -> size_t { return size; });
}

size_t EncodedSize(FrameType type) { return kHeaderSize + PayloadSize(type); }

// d3t-lint: hot
size_t Encode(const Frame& frame, uint8_t* out, size_t cap) {
  return VisitPayloadSize(frame.type, [&](auto size) -> size_t {
    constexpr size_t kPayloadSize = decltype(size)::value;
    constexpr size_t kTotal = kHeaderSize + kPayloadSize;
    if (kPayloadSize == 0 || cap < kTotal) return 0;
    FrameHeader header;
    header.type = static_cast<uint8_t>(frame.type);
    header.length = static_cast<uint16_t>(kPayloadSize);
    // The payload union's active member is exactly kPayloadSize bytes at
    // offset 0; every payload struct is padding-free, so each byte the
    // checksum covers is initialized.
    const uint8_t* payload = reinterpret_cast<const uint8_t*>(&frame.u);
    header.checksum = FrameChecksum<kPayloadSize>(frame.type, payload);
    std::memcpy(out, &header, kHeaderSize);
    std::memcpy(out + kHeaderSize, payload, kPayloadSize);
    return kTotal;
  });
}

Result<size_t> PeekFrameSize(const uint8_t* data, size_t size) {
  if (size < kHeaderSize) {
    return Status::IoError("truncated frame header");
  }
  FrameHeader header;
  std::memcpy(&header, data, kHeaderSize);
  const size_t payload_size =
      PayloadSize(static_cast<FrameType>(header.type));
  if (const char* error = HeaderError(header, payload_size)) {
    return Status::InvalidArgument(error);
  }
  return kHeaderSize + payload_size;
}

// d3t-lint: hot
Status DecodeInto(const uint8_t* data, size_t size, Frame* out,
                  size_t* consumed) {
  if (size < kHeaderSize) {
    return Status::IoError("truncated frame header");
  }
  FrameHeader header;
  std::memcpy(&header, data, kHeaderSize);
  const auto type = static_cast<FrameType>(header.type);
  return VisitPayloadSize(type, [&](auto payload_size) -> Status {
    constexpr size_t kPayloadSize = decltype(payload_size)::value;
    constexpr size_t kTotal = kHeaderSize + kPayloadSize;
    if (const char* error = HeaderError(header, kPayloadSize)) {
      return Status::InvalidArgument(error);
    }
    if (size < kTotal) {
      return Status::IoError("truncated frame payload");
    }
    const uint8_t* payload = data + kHeaderSize;
    if (FrameChecksum<kPayloadSize>(type, payload) != header.checksum) {
      return Status::IoError("frame checksum mismatch");
    }
    out->type = type;
    std::memcpy(&out->u, payload, kPayloadSize);
    if (consumed != nullptr) *consumed = kTotal;
    return Status::Ok();
  });
}

}  // namespace d3t::net::wire
