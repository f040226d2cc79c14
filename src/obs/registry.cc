#include "obs/registry.h"

#include <utility>

namespace d3t::obs {

uint64_t HashBytes(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = kFnvOffset;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

Registry::Registry() { slots_.reserve(Snapshot::kMaxEntries); }

MetricId Registry::Register(const std::string& name, MetricKind kind) {
  const uint64_t hash = HashMetricName(name.c_str());
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].hash != hash || slots_[i].name != name) continue;
    return slots_[i].kind == kind ? static_cast<MetricId>(i)
                                  : kInvalidMetricId;
  }
  if (slots_.size() >= Snapshot::kMaxEntries) return kInvalidMetricId;
  Slot slot;
  slot.name = name;
  slot.hash = hash;
  slot.kind = kind;
  slots_.push_back(std::move(slot));
  return static_cast<MetricId>(slots_.size() - 1);
}

MetricId Registry::Counter(const std::string& name) {
  return Register(name, MetricKind::kCounter);
}

MetricId Registry::Gauge(const std::string& name) {
  return Register(name, MetricKind::kGauge);
}

MetricId Registry::Histogram(const std::string& name) {
  return Register(name, MetricKind::kHistogram);
}

const std::string* Registry::NameOf(uint64_t name_hash) const {
  for (const Slot& slot : slots_) {
    if (slot.hash == name_hash) return &slot.name;
  }
  return nullptr;
}

Snapshot Registry::TakeSnapshot() const {
  Snapshot snapshot{};
  for (const Slot& slot : slots_) {
    if (slot.kind == MetricKind::kHistogram) {
      for (size_t bucket = 0; bucket < kHistogramBuckets; ++bucket) {
        if (slot.buckets[bucket] == 0) continue;
        if (snapshot.count >= Snapshot::kMaxEntries) {
          ++snapshot.truncated;
          continue;
        }
        SnapshotEntry& entry = snapshot.entries[snapshot.count++];
        entry.name_hash = slot.hash;
        entry.kind = static_cast<uint32_t>(slot.kind);
        entry.index = static_cast<uint32_t>(bucket);
        entry.value = slot.buckets[bucket];
      }
      continue;
    }
    if (snapshot.count >= Snapshot::kMaxEntries) {
      ++snapshot.truncated;
      continue;
    }
    SnapshotEntry& entry = snapshot.entries[snapshot.count++];
    entry.name_hash = slot.hash;
    entry.kind = static_cast<uint32_t>(slot.kind);
    entry.index = 0;
    entry.value = slot.value;
  }
  return snapshot;
}

const SnapshotEntry* FindEntry(const Snapshot& snapshot, uint64_t name_hash,
                               uint32_t index) {
  for (uint32_t i = 0; i < snapshot.count; ++i) {
    if (snapshot.entries[i].name_hash == name_hash &&
        snapshot.entries[i].index == index) {
      return &snapshot.entries[i];
    }
  }
  return nullptr;
}

uint64_t SnapshotCounter(const Snapshot& snapshot, const char* name) {
  const SnapshotEntry* entry = FindEntry(snapshot, HashMetricName(name));
  return entry != nullptr ? entry->value : 0;
}

double SnapshotGauge(const Snapshot& snapshot, const char* name) {
  const SnapshotEntry* entry = FindEntry(snapshot, HashMetricName(name));
  return entry != nullptr ? BitsToDouble(entry->value) : 0.0;
}

bool SnapshotsIdentical(const Snapshot& a, const Snapshot& b) {
  if (a.count != b.count || a.truncated != b.truncated) return false;
  return std::memcmp(a.entries, b.entries,
                     a.count * sizeof(SnapshotEntry)) == 0;
}

Status EntriesMatch(const Registry& expected, const Snapshot& actual) {
  const Snapshot want = expected.TakeSnapshot();
  for (uint32_t i = 0; i < want.count; ++i) {
    const SnapshotEntry& entry = want.entries[i];
    const SnapshotEntry* got =
        FindEntry(actual, entry.name_hash, entry.index);
    if (got != nullptr && got->kind == entry.kind &&
        got->value == entry.value) {
      continue;
    }
    // The entry came from `expected`'s own slots, so its name is there.
    std::string msg(got == nullptr ? "metric missing: " : "metric mismatch: ");
    msg += *expected.NameOf(entry.name_hash);
    if (entry.kind == static_cast<uint32_t>(MetricKind::kHistogram)) {
      msg += " bucket " + std::to_string(entry.index);
    }
    return Status::Internal(msg);
  }
  return Status::Ok();
}

}  // namespace d3t::obs
