#ifndef D3T_OBS_REGISTRY_H_
#define D3T_OBS_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace d3t::obs {

/// Metric slot handle. Registration returns one; the hot mutation calls
/// take one. kInvalidMetricId (returned when the registry is full or a
/// name is re-registered under a different kind) makes every mutation a
/// no-op, so callers never branch on registration success on hot paths.
using MetricId = uint32_t;
inline constexpr MetricId kInvalidMetricId = UINT32_MAX;

enum class MetricKind : uint32_t {
  kCounter = 0,    // monotonically added uint64
  kGauge = 1,      // last/extreme double, stored as raw bits
  kHistogram = 2,  // log2-bucketed uint64 sample counts
};

inline constexpr size_t kHistogramBuckets = 16;

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a 64 over the metric name. The hash is the cross-process
/// identity of a metric: snapshots carry hashes, not strings, so a
/// Snapshot POD stays fixed-size and checksummable on the wire.
constexpr uint64_t HashMetricName(const char* name) {
  uint64_t hash = kFnvOffset;
  for (size_t i = 0; name[i] != '\0'; ++i) {
    hash ^= static_cast<uint8_t>(name[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

/// FNV-1a 64 over `size` raw bytes. A variable-length result (such as a
/// per-member loss vector) cannot ride a fixed-size snapshot entry, but
/// its length plus this digest still pin it bit for bit: any change of
/// value, order or length breaks the match.
uint64_t HashBytes(const void* data, size_t size);

/// Gauges travel through uint64-shaped slots and wire words as raw IEEE
/// bits; these keep the conversion in one place.
inline uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}
inline double BitsToDouble(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// One snapshot record. Counters and gauges emit one entry (index 0);
/// histograms emit one entry per non-empty bucket (index = bucket).
// d3t-lint: pod-event
struct SnapshotEntry {
  uint64_t name_hash;  // HashMetricName of the registered name
  uint32_t kind;       // MetricKind
  uint32_t index;      // histogram bucket; 0 otherwise
  uint64_t value;      // count, or gauge bits
};
static_assert(sizeof(SnapshotEntry) == 24,
              "SnapshotEntry is pinned at 24 bytes");
static_assert(std::is_trivially_copyable_v<SnapshotEntry>,
              "SnapshotEntry must stay a POD: it crosses the wire in "
              "kObsSnapshot chunks");

/// A registry's state at one instant, as a fixed-size POD that can be
/// memcpy'd, chunked onto the wire, and compared without knowing which
/// subsystem produced it. Entries keep registration order, so two runs
/// that register the same metrics in the same order snapshot
/// byte-identically.
// d3t-lint: pod-event
struct Snapshot {
  static constexpr size_t kMaxEntries = 256;
  uint32_t count = 0;      // live entries
  uint32_t truncated = 0;  // entries that did not fit
  SnapshotEntry entries[kMaxEntries];
};
static_assert(sizeof(Snapshot) == 8 + sizeof(SnapshotEntry) * Snapshot::kMaxEntries,
              "Snapshot is pinned: a 8-byte header plus kMaxEntries entries");
static_assert(std::is_trivially_copyable_v<Snapshot>,
              "Snapshot must stay a POD");

/// Fixed-slot named metrics. Registration (cold) interns the name and
/// returns a MetricId; mutation (hot) is an indexed add/store with no
/// allocation, hashing, or locking — the registry is single-threaded by
/// the same contract as the transports. Lookup structures are plain
/// vectors scanned linearly: registration happens once per run, and
/// linear scans keep the layer free of unordered containers.
class Registry {
 public:
  /// Holds up to Snapshot::kMaxEntries metrics, as one snapshot does.
  Registry();

  /// Registers (or finds) a metric. Re-registering a name with the same
  /// kind returns the existing id — publishers can re-derive ids
  /// idempotently. A kind mismatch or a full registry returns
  /// kInvalidMetricId.
  MetricId Counter(const std::string& name);
  MetricId Gauge(const std::string& name);
  MetricId Histogram(const std::string& name);

  /// Hot mutations; no-ops on kInvalidMetricId.
  // d3t-lint: hot
  void Add(MetricId id, uint64_t delta = 1) {
    if (id >= slots_.size()) return;
    slots_[id].value += delta;
  }
  // d3t-lint: hot
  void Set(MetricId id, double value) {
    if (id >= slots_.size()) return;
    slots_[id].value = DoubleBits(value);
  }
  // d3t-lint: hot
  void Observe(MetricId id, uint64_t value) {
    if (id >= slots_.size()) return;
    size_t bucket = 0;
    while (bucket + 1 < kHistogramBuckets && (value >> (bucket + 1)) != 0) {
      ++bucket;
    }
    ++slots_[id].buckets[bucket];
  }

  /// The registered name behind a snapshot entry's hash, or nullptr.
  const std::string* NameOf(uint64_t name_hash) const;

  /// The one readback: every value leaves the registry through a
  /// snapshot (read it with SnapshotCounter, SnapshotGauge, FindEntry
  /// or EntriesMatch).
  Snapshot TakeSnapshot() const;

 private:
  struct Slot {
    std::string name;
    uint64_t hash = 0;
    MetricKind kind = MetricKind::kCounter;
    uint64_t value = 0;  // counter count or gauge bits
    uint64_t buckets[kHistogramBuckets] = {};
  };

  MetricId Register(const std::string& name, MetricKind kind);

  std::vector<Slot> slots_;
};

/// First entry matching (name_hash, index), or nullptr.
const SnapshotEntry* FindEntry(const Snapshot& snapshot, uint64_t name_hash,
                               uint32_t index = 0);

/// Convenience for tests and tables: the counter value under `name`
/// (0 when absent), and the gauge value under `name` (0.0 when absent).
uint64_t SnapshotCounter(const Snapshot& snapshot, const char* name);
double SnapshotGauge(const Snapshot& snapshot, const char* name);

/// Byte-wise equality over the live prefix — the wire round-trip pin.
bool SnapshotsIdentical(const Snapshot& a, const Snapshot& b);

/// Ok iff `actual` holds every entry of `expected`'s snapshot with the
/// same kind and the same value bits (gauges compare as raw IEEE bits,
/// so NaN and signed-zero drift count). Entries only `actual` carries
/// are ignored. This is the cross-process identity check: a collector
/// runs the direct engine into its own registry and matches a node's
/// reassembled snapshot against it. Otherwise Internal naming the first
/// expected metric that is missing or differs.
Status EntriesMatch(const Registry& expected, const Snapshot& actual);

}  // namespace d3t::obs

#endif  // D3T_OBS_REGISTRY_H_
