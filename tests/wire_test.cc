// Wire-format codec: round-trip identity for every frame kind over
// seeded random payloads, and an adversarial decoder pass (truncated,
// bit-flipped, wrong-version, wrong-magic, unknown-type, retired-type,
// over-length buffers) proving Decode rejects corrupt input with a
// precise Status and never reads out of bounds (the suite runs under
// ASan/UBSan in CI).

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/wire.h"
#include "gtest/gtest.h"

namespace d3t::net::wire {
namespace {

// All seven encodable frame kinds with rng-driven payloads. Each entry
// re-generates deterministically from the same Rng stream, so tests can
// iterate kinds while varying content per round.
std::vector<Frame> RandomFrames(Rng& rng) {
  auto u32 = [&rng] { return static_cast<uint32_t>(rng.Next()); };
  auto i64 = [&rng] { return static_cast<int64_t>(rng.Next() >> 1); };
  ObsSnapshotPayload obs = {};
  obs.node = u32();
  obs.chunk_kind = static_cast<uint16_t>(rng.Next() % 3);
  obs.count = static_cast<uint16_t>(rng.Next() % 7);
  obs.seq = u32();
  obs.total = u32();
  for (uint64_t& word : obs.words) word = rng.Next();
  return {
      Frame::Hello(u32(), u32(), u32(), rng.Next(), u32()),
      Frame::SourceTick(u32(), u32(), i64(), rng.NextDouble(), u32()),
      Frame::Update(u32(), u32(), i64(), u32(), rng.NextDouble(),
                    rng.NextDouble()),
      Frame::ScenarioOp(i64(), u32() % 5, u32(), u32(), rng.NextDouble(),
                        u32()),
      Frame::Shutdown(u32(), u32()),
      Frame::Resubscribe(u32(), u32()),
      Frame::ObsSnapshot(obs),
  };
}

// Field-level equality via the encoded image: both frames encode to the
// same bytes iff header + full payload match.
void ExpectSameFrame(const Frame& a, const Frame& b) {
  ASSERT_EQ(a.type, b.type);
  uint8_t buf_a[kMaxFrameSize];
  uint8_t buf_b[kMaxFrameSize];
  const size_t na = Encode(a, buf_a, sizeof(buf_a));
  const size_t nb = Encode(b, buf_b, sizeof(buf_b));
  ASSERT_EQ(na, nb);
  ASSERT_GT(na, 0u);
  EXPECT_EQ(std::memcmp(buf_a, buf_b, na), 0);
}

std::string Hex(const uint8_t* data, size_t size) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < size; ++i) {
    out += kDigits[data[i] >> 4];
    out += kDigits[data[i] & 0xF];
  }
  return out;
}

// Textbook Fletcher-16, reduced mod 255 after every byte, over header
// bytes [0, 6) followed by the payload — the definition the checksum
// field promises, written independently of the codec.
uint16_t ReferenceChecksum(const uint8_t* frame, size_t size) {
  uint32_t sum1 = 0;
  uint32_t sum2 = 0;
  for (size_t i = 0; i < size; ++i) {
    if (i == 6 || i == 7) continue;  // the checksum field itself
    sum1 = (sum1 + frame[i]) % 255;
    sum2 = (sum2 + sum1) % 255;
  }
  return static_cast<uint16_t>((sum1 << 8) | sum2);
}

TEST(WireTest, EncodedBytesArePinned) {
  // Golden images captured from the v3 codec before its checksum loop
  // was restructured. Every other test here round-trips through the
  // same Encode/Decode pair, so a checksum that is wrong but consistent
  // would pass them all while breaking interop with older v3 peers;
  // these pins would not. Byte order is host order (see wire.h), so the
  // images are the little-endian ones.
  const uint16_t probe = 1;
  uint8_t low = 0;
  std::memcpy(&low, &probe, 1);
  if (low != 1) GTEST_SKIP() << "golden images are little-endian";

  ObsSnapshotPayload obs = {};
  obs.node = 1;
  obs.chunk_kind = ObsSnapshotPayload::kChunkSnapshotEntries;
  obs.count = 2;
  obs.seq = 1;
  obs.total = 3;
  for (uint64_t i = 0; i < 20; ++i) {
    obs.words[i] = (i + 1) * 0x0101010101010101ULL;
  }
  struct Pin {
    Frame frame;
    const char* hex;
  };
  const Pin pins[] = {
      {Frame::Hello(2, 101, 100, 0x0123456789ABCDEFULL, 0),
       "7ad30301180028f902000000650000006400000000000000efcdab8967452301"},
      {Frame::SourceTick(7, 3, 1500000, 42.5, 11),
       "7ad30302200072a8070000000300000060e31600000000000000000000404540"
       "0b00000000000000"},
      {Frame::Update(3, 17, 1234567, 5, 60.25, 0.125),
       "7ad303032800b8b4030000001100000087d61200000000000500000000000000"
       "0000000000204e40000000000000c03f"},
      {Frame::ScenarioOp(2000000, 2, 4, 6, 0.05, 12),
       "7ad303052000a83580841e00000000000200000004000000060000000c000000"
       "9a9999999999a93f"},
      {Frame::Shutdown(2, 13), "7ad3030708007a6f020000000d000000"},
      {Frame::Resubscribe(2, 9), "7ad303090800806d0200000009000000"},
      {Frame::ObsSnapshot(obs),
       "7ad3030ab000e5a9010000000000020001000000030000000101010101010101"
       "0202020202020202030303030303030304040404040404040505050505050505"
       "0606060606060606070707070707070708080808080808080909090909090909"
       "0a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0c0c0c0c0c0c0c0c0d0d0d0d0d0d0d0d"
       "0e0e0e0e0e0e0e0e0f0f0f0f0f0f0f0f10101010101010101111111111111111"
       "121212121212121213131313131313131414141414141414"},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(FrameTypeName(pin.frame.type));
    uint8_t buf[kMaxFrameSize];
    const size_t encoded = Encode(pin.frame, buf, sizeof(buf));
    ASSERT_EQ(encoded, EncodedSize(pin.frame.type));
    EXPECT_EQ(Hex(buf, encoded), pin.hex);
    Result<Frame> decoded = Decode(buf, encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameFrame(pin.frame, *decoded);
  }
}

TEST(WireTest, ChecksumMatchesReferenceFletcher) {
  // The codec may accumulate however it likes; the header checksum must
  // equal the per-byte-reduced definition for every kind, including the
  // largest frame with every payload byte 0xFF (the largest sums any
  // frame can reach).
  Rng rng(0xF1E7C4E5);
  std::vector<Frame> frames;
  for (int round = 0; round < 100; ++round) {
    for (const Frame& frame : RandomFrames(rng)) frames.push_back(frame);
  }
  ObsSnapshotPayload saturated;
  std::memset(&saturated, 0xFF, sizeof(saturated));
  frames.push_back(Frame::ObsSnapshot(saturated));
  for (const Frame& frame : frames) {
    SCOPED_TRACE(FrameTypeName(frame.type));
    uint8_t buf[kMaxFrameSize];
    const size_t encoded = Encode(frame, buf, sizeof(buf));
    ASSERT_EQ(encoded, EncodedSize(frame.type));
    uint16_t checksum = 0;
    std::memcpy(&checksum, buf + 6, sizeof(checksum));
    ASSERT_EQ(checksum, ReferenceChecksum(buf, encoded));
  }
}

TEST(WireTest, PayloadSizesArePinned) {
  EXPECT_EQ(PayloadSize(FrameType::kHello), 24u);
  EXPECT_EQ(PayloadSize(FrameType::kSourceTick), 32u);
  EXPECT_EQ(PayloadSize(FrameType::kUpdate), 40u);
  EXPECT_EQ(PayloadSize(FrameType::kScenarioOp), 32u);
  EXPECT_EQ(PayloadSize(FrameType::kShutdown), 8u);
  EXPECT_EQ(PayloadSize(FrameType::kResubscribe), 8u);
  EXPECT_EQ(PayloadSize(FrameType::kObsSnapshot), 176u);
  EXPECT_EQ(PayloadSize(FrameType::kInvalid), 0u);
  EXPECT_EQ(PayloadSize(static_cast<FrameType>(200)), 0u);
  EXPECT_EQ(EncodedSize(FrameType::kUpdate), kHeaderSize + 40u);
  // The obs-snapshot chunk still fills the largest slot, so the decoded
  // frame (and every transport ring sized to it) keeps its size.
  EXPECT_EQ(sizeof(Frame), 184u);
  EXPECT_EQ(kMaxPayloadSize, 176u);
}

TEST(WireTest, RetiredReportKindsDecodeAsUnknown) {
  // v3 retired type bytes 6 (metrics report) and 8 (engine report),
  // and later 4 (pull poll), without renumbering the survivors or
  // bumping the version: all three now decode as unknown.
  EXPECT_EQ(kVersion, 3);
  EXPECT_EQ(static_cast<uint8_t>(FrameType::kShutdown), 7);
  EXPECT_EQ(static_cast<uint8_t>(FrameType::kResubscribe), 9);
  EXPECT_EQ(static_cast<uint8_t>(FrameType::kObsSnapshot), 10);
  ObsSnapshotPayload obs = {};
  uint8_t buf[kMaxFrameSize];
  for (const Frame& frame : {Frame::Shutdown(1, 2), Frame::ObsSnapshot(obs)}) {
    const size_t encoded = Encode(frame, buf, sizeof(buf));
    ASSERT_GT(encoded, 0u);
    for (const uint8_t retired : {uint8_t{4}, uint8_t{6}, uint8_t{8}}) {
      SCOPED_TRACE(static_cast<int>(retired));
      EXPECT_EQ(PayloadSize(static_cast<FrameType>(retired)), 0u);
      std::vector<uint8_t> bytes(buf, buf + encoded);
      bytes[3] = retired;
      Result<Frame> decoded = Decode(bytes.data(), bytes.size());
      ASSERT_FALSE(decoded.ok());
      EXPECT_TRUE(decoded.status().IsInvalidArgument());
      EXPECT_NE(decoded.status().ToString().find("unknown frame type"),
                std::string::npos)
          << decoded.status().ToString();
    }
  }
}

TEST(WireTest, RoundTripIdentityForEveryKindOverSeededPayloads) {
  Rng rng(0xC0FFEE);
  for (int round = 0; round < 200; ++round) {
    for (const Frame& frame : RandomFrames(rng)) {
      SCOPED_TRACE(FrameTypeName(frame.type));
      uint8_t buf[kMaxFrameSize];
      const size_t encoded = Encode(frame, buf, sizeof(buf));
      ASSERT_EQ(encoded, EncodedSize(frame.type));
      size_t consumed = 0;
      Result<Frame> decoded = Decode(buf, encoded, &consumed);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(consumed, encoded);
      ExpectSameFrame(frame, *decoded);
    }
  }
}

TEST(WireTest, DecodedFieldsMatchTheFactoryArguments) {
  // One explicit field-by-field spot check per direction-critical kind
  // (the round-trip test above compares images, not semantics).
  uint8_t buf[kMaxFrameSize];
  const Frame update = Frame::Update(3, 17, 1234567, 5, 60.25, 0.125);
  ASSERT_GT(Encode(update, buf, sizeof(buf)), 0u);
  Result<Frame> decoded = Decode(buf, sizeof(buf));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->u.update.src, 3u);
  EXPECT_EQ(decoded->u.update.dst, 17u);
  EXPECT_EQ(decoded->u.update.arrival_us, 1234567);
  EXPECT_EQ(decoded->u.update.item, 5u);
  EXPECT_EQ(decoded->u.update.value, 60.25);
  EXPECT_EQ(decoded->u.update.tag, 0.125);
}

TEST(WireTest, EncodeRefusesShortBuffersAndUnknownTypes) {
  const Frame frame = Frame::Update(1, 2, 3, 4, 5.0, 6.0);
  uint8_t buf[kMaxFrameSize];
  for (size_t cap = 0; cap < EncodedSize(frame.type); ++cap) {
    EXPECT_EQ(Encode(frame, buf, cap), 0u) << "cap=" << cap;
  }
  Frame invalid;
  invalid.type = FrameType::kInvalid;
  EXPECT_EQ(Encode(invalid, buf, sizeof(buf)), 0u);
}

TEST(WireTest, TruncationAtEveryLengthFails) {
  Rng rng(0xBADF00D);
  for (const Frame& frame : RandomFrames(rng)) {
    SCOPED_TRACE(FrameTypeName(frame.type));
    uint8_t buf[kMaxFrameSize];
    const size_t encoded = Encode(frame, buf, sizeof(buf));
    for (size_t size = 0; size < encoded; ++size) {
      // Copy the prefix into an exactly-sized heap buffer so any read
      // past `size` is an ASan heap-buffer-overflow, not a silent read
      // of the valid tail.
      std::vector<uint8_t> prefix(buf, buf + size);
      Result<Frame> decoded = Decode(prefix.data(), prefix.size());
      ASSERT_FALSE(decoded.ok()) << "size=" << size;
      EXPECT_TRUE(decoded.status().IsIoError()) << "size=" << size;
    }
  }
}

TEST(WireTest, EverySingleBitFlipIsDetected) {
  // Fletcher-16 over header[0..6) + payload: a one-bit change shifts a
  // byte by a power of two <= 128, never ≡ 0 (mod 255), so EVERY
  // single-bit corruption — magic, version, type, length, checksum
  // itself, or payload — must fail decode.
  Rng rng(0x5EED);
  for (const Frame& frame : RandomFrames(rng)) {
    SCOPED_TRACE(FrameTypeName(frame.type));
    uint8_t buf[kMaxFrameSize];
    const size_t encoded = Encode(frame, buf, sizeof(buf));
    for (size_t byte = 0; byte < encoded; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> corrupt(buf, buf + encoded);
        corrupt[byte] = static_cast<uint8_t>(corrupt[byte] ^ (1u << bit));
        Result<Frame> decoded = Decode(corrupt.data(), corrupt.size());
        EXPECT_FALSE(decoded.ok())
            << "byte=" << byte << " bit=" << bit << " survived";
      }
    }
  }
}

TEST(WireTest, WrongMagicVersionTypeAndLengthAreRejectedPrecisely) {
  const Frame frame = Frame::SourceTick(1, 2, 3000, 4.5);
  uint8_t buf[kMaxFrameSize];
  const size_t encoded = Encode(frame, buf, sizeof(buf));

  auto corrupt_header = [&](size_t offset, uint8_t value) {
    std::vector<uint8_t> bytes(buf, buf + encoded);
    bytes[offset] = value;
    return bytes;
  };

  // Magic (offset 0-1).
  std::vector<uint8_t> bad = corrupt_header(0, 0x00);
  Result<Frame> decoded = Decode(bad.data(), bad.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
  EXPECT_NE(decoded.status().ToString().find("magic"), std::string::npos);

  // Version (offset 2).
  bad = corrupt_header(2, kVersion + 1);
  decoded = Decode(bad.data(), bad.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
  EXPECT_NE(decoded.status().ToString().find("version"), std::string::npos);

  // Unknown type (offset 3).
  bad = corrupt_header(3, 99);
  decoded = Decode(bad.data(), bad.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
  EXPECT_NE(decoded.status().ToString().find("type"), std::string::npos);

  // Over-length (length field, offset 4-5, larger than any payload):
  // must be rejected from the header alone — a decoder trusting it
  // would read past the buffer.
  bad = corrupt_header(4, 0xFF);
  bad[5] = 0xFF;
  decoded = Decode(bad.data(), bad.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
  EXPECT_NE(decoded.status().ToString().find("over-length"),
            std::string::npos);

  // Length/type mismatch (claims another kind's size).
  bad = corrupt_header(4, static_cast<uint8_t>(sizeof(UpdatePayload)));
  decoded = Decode(bad.data(), bad.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
}

TEST(WireTest, TrailingBytesBelongToTheNextFrame) {
  // Decode consumes exactly one frame; a back-to-back stream decodes
  // frame by frame through the `consumed` cursor.
  const Frame first = Frame::Update(1, 2, 10, 3, 1.0, 0.0);
  const Frame second = Frame::Shutdown(7);
  uint8_t buf[2 * kMaxFrameSize];
  const size_t n1 = Encode(first, buf, sizeof(buf));
  const size_t n2 = Encode(second, buf + n1, sizeof(buf) - n1);
  ASSERT_GT(n1, 0u);
  ASSERT_GT(n2, 0u);

  size_t consumed = 0;
  Result<Frame> decoded = Decode(buf, n1 + n2, &consumed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(consumed, n1);
  ExpectSameFrame(first, *decoded);

  decoded = Decode(buf + consumed, n1 + n2 - consumed, &consumed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(consumed, n2);
  ExpectSameFrame(second, *decoded);
}

TEST(WireTest, PeekFrameSizeValidatesTheHeaderOnly) {
  const Frame frame = Frame::Update(1, 0, 5, 2, 0.0, 0.0);
  uint8_t buf[kMaxFrameSize];
  const size_t encoded = Encode(frame, buf, sizeof(buf));

  Result<size_t> size = PeekFrameSize(buf, kHeaderSize);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, encoded);

  // Too short for a header: IoError (wait for more bytes).
  size = PeekFrameSize(buf, kHeaderSize - 1);
  ASSERT_FALSE(size.ok());
  EXPECT_TRUE(size.status().IsIoError());

  // Corrupt payload is invisible to Peek (header-only contract) but
  // caught by Decode.
  uint8_t corrupt[kMaxFrameSize];
  std::memcpy(corrupt, buf, encoded);
  corrupt[kHeaderSize + 1] ^= 0x40;
  size = PeekFrameSize(corrupt, encoded);
  EXPECT_TRUE(size.ok());
  Result<Frame> decoded = Decode(corrupt, encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIoError());
  EXPECT_NE(decoded.status().ToString().find("checksum"),
            std::string::npos);
}

}  // namespace
}  // namespace d3t::net::wire
