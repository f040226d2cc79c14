#ifndef D3T_NET_WIRE_H_
#define D3T_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/result.h"
#include "common/status.h"
#include "sim/time.h"

namespace d3t::net::wire {

/// Versioned packed frame format for inter-repository traffic: the
/// update pushes the engine moves between overlay members, the feed a
/// serving node ingests (hello, source ticks, scenario ops, shutdown,
/// resubscribe), and the one result channel back to a collector
/// (obs-snapshot chunks: a registry snapshot plus a flight-recorder
/// spill). A frame is an 8-byte header followed by one fixed-size POD
/// payload whose shape is selected by the header's type byte:
///
///   offset  size  field
///        0     2  magic     (0xD37A)
///        2     1  version   (3)
///        3     1  type      (FrameType)
///        4     2  length    (payload bytes; must match the type)
///        6     2  checksum  (Fletcher-16 over header bytes 0..5 + payload)
///
/// Payloads mirror the engine's POD event vocabulary (sim::Event, the
/// delivery Job, core::ScenarioOp) with raw fixed-width fields — the
/// wire layer sits below core/ in the include DAG, so it re-states the
/// field shapes instead of including them. Byte order is host order:
/// frames currently cross ring buffers and loopback streams on one
/// machine; a cross-machine socket transport would pin little-endian
/// here and swap on big-endian hosts.
///
/// Decode() is the only entry point for untrusted bytes. It never reads
/// past `size`, and it rejects truncated, over-length, wrong-version,
/// wrong-type and checksum-corrupt input with a precise Status.

inline constexpr uint16_t kMagic = 0xD37A;
/// v2: feed frames (hello / source-tick / scenario-op / shutdown) carry
/// an explicit sequence number, kResubscribe joins the vocabulary, and
/// metrics reports grow fault/recovery counters. v1 peers reject v2
/// frames by version byte — there is no mixed-version negotiation.
/// v3: the metrics-report (6) and engine-report (8) kinds are retired;
/// results travel only as obs-snapshot streams. The pull-poll kind (4)
/// is retired too, without a version bump: no peer ever sent one across
/// a process boundary. Their type bytes stay unassigned (decoding them
/// is "unknown frame type") and the other kinds keep their numbers and
/// images.
inline constexpr uint8_t kVersion = 3;
inline constexpr size_t kHeaderSize = 8;

/// Discriminator of the payload variant. Values are wire contract:
/// renumbering is a version bump.
enum class FrameType : uint8_t {
  kInvalid = 0,
  /// Feed handshake: world fingerprint the consumer validates before
  /// ingesting anything else.
  kHello = 1,
  /// One source trace tick (the live ingest feed).
  kSourceTick = 2,
  /// One update message pushed along an overlay edge (push engine).
  kUpdate = 3,
  // 4: the pull-poll kind, retired in v3.
  /// One scripted world-mutation op (mirrors core::ScenarioOp).
  kScenarioOp = 5,
  // 6: the metrics-report kind, retired in v3.
  /// End of feed.
  kShutdown = 7,
  // 8: the engine-report kind, retired in v3.
  /// Feed recovery: a consumer that detected a sequence gap asks the
  /// publisher to rewind its cursor and retransmit from `resume_seq`.
  kResubscribe = 9,
  /// One seq-numbered chunk of a node's observability stream (metrics
  /// snapshot entries or flight-recorder trace events), reported
  /// upstream. The only result channel: a node's engine, feed and
  /// transport numbers all travel as registry entries. serve/ owns the
  /// chunking/reassembly bridge.
  kObsSnapshot = 10,
};

/// Human-readable type name for diagnostics ("invalid" for unknowns).
const char* FrameTypeName(FrameType type);

// d3t-lint: pod-event
struct FrameHeader {
  uint16_t magic = kMagic;
  uint8_t version = kVersion;
  uint8_t type = 0;
  uint16_t length = 0;
  uint16_t checksum = 0;
};
static_assert(sizeof(FrameHeader) == kHeaderSize,
              "the wire header is an 8-byte contract; growing it breaks "
              "every peer");
static_assert(std::is_trivially_copyable_v<FrameHeader>,
              "headers are memcpy'd straight off byte streams");
static_assert(offsetof(FrameHeader, checksum) == 6,
              "the checksum covers header bytes [0, 6); its own offset "
              "is part of the wire contract");

// d3t-lint: pod-event
struct HelloPayload {
  /// Peer id the feed is addressed to.
  uint32_t node;
  /// Overlay member count (source included) of the world being fed.
  uint32_t member_count;
  /// Item count of the world being fed.
  uint32_t item_count;
  /// Feed sequence number (hello is always seq 0, the first frame of a
  /// feed; retransmitted hellos repeat seq 0).
  uint32_t seq;
  /// World seed, echoed for diagnostics; consumers need not check it.
  uint64_t world_seed;
};
static_assert(sizeof(HelloPayload) == 24, "hello frames are 24-byte PODs");
static_assert(std::is_trivially_copyable_v<HelloPayload>,
              "wire payloads must stay trivially copyable");

// d3t-lint: pod-event
struct SourceTickPayload {
  uint32_t item;
  /// Index of this tick within the item's trace (0 = initial value).
  uint32_t tick_index;
  int64_t at_us;
  double value;
  /// Feed sequence number: position of this frame in the publisher's
  /// total order (hello = 0, then schedule entries, then shutdown).
  uint32_t seq;
  uint32_t reserved;
};
static_assert(sizeof(SourceTickPayload) == 32,
              "source-tick frames are 32-byte PODs");
static_assert(std::is_trivially_copyable_v<SourceTickPayload>,
              "wire payloads must stay trivially copyable");

// d3t-lint: pod-event
struct UpdatePayload {
  /// Overlay member pushing the update.
  uint32_t src;
  /// Overlay member the update is addressed to.
  uint32_t dst;
  /// Arrival instant at `dst` (send time + edge delay), microseconds.
  int64_t arrival_us;
  uint32_t item;
  uint32_t reserved;
  double value;
  /// Policy tag riding the update (the centralized policy's tolerance
  /// tag; 0 under policies that do not tag).
  double tag;
};
static_assert(sizeof(UpdatePayload) == 40,
              "update frames mirror the engine's 24-byte Job plus "
              "addressing; 40-byte PODs");
static_assert(std::is_trivially_copyable_v<UpdatePayload>,
              "wire payloads must stay trivially copyable");

// d3t-lint: pod-event
struct ScenarioOpPayload {
  int64_t at_us;
  /// core::ScenarioOpKind as a raw value; consumers range-check before
  /// casting (the wire layer sits below core/ and cannot name the enum).
  uint32_t kind;
  uint32_t member;
  uint32_t item;
  /// Feed sequence number (see SourceTickPayload::seq).
  uint32_t seq;
  double c;
};
static_assert(sizeof(ScenarioOpPayload) == 32,
              "scenario-op frames mirror the 32-byte core::ScenarioOp");
static_assert(std::is_trivially_copyable_v<ScenarioOpPayload>,
              "wire payloads must stay trivially copyable");

// d3t-lint: pod-event
struct ShutdownPayload {
  uint32_t node;
  /// Feed sequence number (see SourceTickPayload::seq); shutdown is the
  /// last frame of a feed, so its seq equals the feed's frame count - 1.
  uint32_t seq;
};
static_assert(sizeof(ShutdownPayload) == 8,
              "shutdown frames are 8-byte PODs");
static_assert(std::is_trivially_copyable_v<ShutdownPayload>,
              "wire payloads must stay trivially copyable");

/// Feed-recovery request: sent upstream (consumer -> publisher) when a
/// consumer detects a sequence gap or wants the tail of a feed resent.
/// The publisher rewinds its per-subscriber cursor to `resume_seq` (the
/// first sequence number the consumer is missing, i.e. last contiguous
/// seq + 1) and retransmits, provided the cursor still falls inside its
/// bounded replay window.
// d3t-lint: pod-event
struct ResubscribePayload {
  /// Peer id of the requesting consumer.
  uint32_t node;
  /// First sequence number to retransmit.
  uint32_t resume_seq;
};
static_assert(sizeof(ResubscribePayload) == 8,
              "resubscribe frames are 8-byte PODs");
static_assert(std::is_trivially_copyable_v<ResubscribePayload>,
              "wire payloads must stay trivially copyable");

/// One chunk of a node's observability stream. obs::Snapshot (up to 256
/// 24-byte entries) and a flight-recorder spill (any number of 32-byte
/// obs::TraceEvents) both exceed a fixed payload, so they cross the wire
/// as a seq-numbered chunk sequence: `seq` runs 0..total-1 over one
/// stream, `chunk_kind` says what the words carry, `count` how many
/// records ride this chunk. Records are memcpy'd into `words` back to
/// back (the obs PODs are padding-free), so reassembly on the far side
/// is byte-identical by construction — the cluster test pins that. The
/// wire layer sits below obs/ consumers in serve/, which own the
/// chunking bridge (serve::MakeObsSnapshotFrames / ObsAccumulator).
// d3t-lint: pod-event
struct ObsSnapshotPayload {
  /// Chunk carries obs::SnapshotEntry records (3 words each).
  static constexpr uint16_t kChunkSnapshotEntries = 0;
  /// Chunk carries obs::TraceEvent records (4 words each).
  static constexpr uint16_t kChunkTraceEvents = 1;
  /// Stream header, always seq 0 with count 0: words[0] = snapshot
  /// entry total, words[1] = snapshot truncated flag, words[2] = trace
  /// events following, words[3]/words[4] = the recorder's cumulative
  /// recorded/dropped counts.
  static constexpr uint16_t kChunkHeader = 2;
  /// Reporting node (cluster peer id).
  uint32_t node;
  uint16_t chunk_kind;
  /// Records packed into `words` (0 allowed: an empty stream is one
  /// chunk announcing total=1, count=0).
  uint16_t count;
  /// Chunk index within this node's stream.
  uint32_t seq;
  /// Total chunks in this node's stream.
  uint32_t total;
  uint64_t words[20];
};
static_assert(sizeof(ObsSnapshotPayload) == 176,
              "obs-snapshot chunks fill the largest payload slot: 16-byte "
              "chunk header + 20 packed words");
static_assert(std::is_trivially_copyable_v<ObsSnapshotPayload>,
              "wire payloads must stay trivially copyable");

/// A decoded frame: the type tag plus the payload variant it selects.
/// Only the member matching `type` is meaningful; factories below are
/// the one way frames are built, and they aggregate-initialize every
/// field of the active member (payload structs deliberately have no
/// default member initializers — a union member must stay trivially
/// default-constructible — and are padding-free by construction, so the
/// encoder's checksum covers only initialized bytes).
// d3t-lint: pod-event
struct Frame {
  union Payload {
    HelloPayload hello;
    SourceTickPayload source_tick;
    UpdatePayload update;
    ScenarioOpPayload scenario;
    ShutdownPayload shutdown;
    ResubscribePayload resubscribe;
    ObsSnapshotPayload obs_snapshot;
  };

  FrameType type = FrameType::kInvalid;
  Payload u;

  static Frame Hello(uint32_t node, uint32_t member_count,
                     uint32_t item_count, uint64_t world_seed,
                     uint32_t seq = 0);
  static Frame SourceTick(uint32_t item, uint32_t tick_index, int64_t at_us,
                          double value, uint32_t seq = 0);
  static Frame Update(uint32_t src, uint32_t dst, int64_t arrival_us,
                      uint32_t item, double value, double tag);
  static Frame ScenarioOp(int64_t at_us, uint32_t kind, uint32_t member,
                          uint32_t item, double c, uint32_t seq = 0);
  static Frame Shutdown(uint32_t node, uint32_t seq = 0);
  static Frame Resubscribe(uint32_t node, uint32_t resume_seq);
  /// `payload` must have every field set, unused `words` zeroed
  /// (serve::MakeObsSnapshotFrames is the one bridge from
  /// obs::Snapshot / obs::TraceEvent streams).
  static Frame ObsSnapshot(const ObsSnapshotPayload& payload);
};
static_assert(sizeof(Frame) == 184,
              "decoded frames are 184-byte slots (8-byte-aligned tag + "
              "176-byte payload union) — transport rings size to this");
static_assert(std::is_trivially_copyable_v<Frame>,
              "frames cross ring buffers by memcpy");

inline constexpr size_t kMaxPayloadSize = sizeof(Frame::Payload);
inline constexpr size_t kMaxFrameSize = kHeaderSize + kMaxPayloadSize;

/// True for the frame kinds a feed publisher emits in sequence (hello,
/// source-tick, scenario-op, shutdown) — exactly the kinds that carry a
/// `seq` field and participate in gap detection / resubscribe recovery.
bool IsFeedFrame(FrameType type);

/// Sequence number of a feed frame; 0 for non-feed kinds.
uint32_t FeedSeq(const Frame& frame);

/// Stamps the sequence number of a feed frame; no-op for other kinds.
void SetFeedSeq(Frame& frame, uint32_t seq);

/// Payload bytes of a frame of `type`; 0 for kInvalid/unknown values.
size_t PayloadSize(FrameType type);

/// Total encoded size (header + payload) of a frame of `type`; just
/// kHeaderSize for unknown types (which cannot be encoded).
size_t EncodedSize(FrameType type);

/// Serializes `frame` into `out` (capacity `cap` bytes) and returns the
/// bytes written — 0 when the type is unknown or `cap` is too small.
/// A kMaxFrameSize buffer always fits any frame.
size_t Encode(const Frame& frame, uint8_t* out, size_t cap);

/// Validates the header prefix of a byte stream and returns the full
/// size of the frame it announces, without touching the payload.
/// `size` >= kHeaderSize is required (IoError "truncated" otherwise) —
/// stream deframers call this to learn how many bytes to wait for.
Result<size_t> PeekFrameSize(const uint8_t* data, size_t size);

/// Decodes one frame from the front of `data`. Never reads beyond
/// `size`. On success `*consumed` (when non-null) is set to the bytes
/// the frame occupied; trailing bytes are ignored (they belong to the
/// next frame). Errors: IoError for truncation and checksum mismatch,
/// InvalidArgument for bad magic/version/type/length.
Result<Frame> Decode(const uint8_t* data, size_t size,
                     size_t* consumed = nullptr);

}  // namespace d3t::net::wire

#endif  // D3T_NET_WIRE_H_
