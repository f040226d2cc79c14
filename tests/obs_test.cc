// obs/ subsystem: flight-recorder ring semantics (drop-oldest, logical
// clock, canonical ordering), metric registry registration/mutation/
// snapshot/merge invariants, exporter determinism, and the kObsSnapshot
// chunking bridge — every reassembly pinned byte-identical because the
// records are memcpy'd PODs end to end.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/wire.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "serve/cluster.h"
#include "gtest/gtest.h"

namespace d3t::obs {
namespace {

TEST(RecorderTest, RecordsAtLogicalClockAndExplicitTimes) {
  Recorder recorder(8);
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_EQ(recorder.size(), 0u);

  recorder.set_now(100);
  recorder.Record(TraceEventKind::kSourceTick, 3, DoubleBits(1.5));
  recorder.RecordAt(250, TraceEventKind::kDelivery, 7, 3, DoubleBits(1.5));

  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.at(0).at_us, 100);
  EXPECT_EQ(recorder.at(0).kind,
            static_cast<uint16_t>(TraceEventKind::kSourceTick));
  EXPECT_EQ(recorder.at(0).actor, 3u);
  EXPECT_EQ(recorder.at(1).at_us, 250);
  EXPECT_EQ(recorder.at(1).actor, 7u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(RecorderTest, DropsOldestOnWrapAndCountsEverything) {
  Recorder recorder(4);
  for (uint32_t i = 0; i < 10; ++i) {
    recorder.RecordAt(i, TraceEventKind::kDelivery, i);
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  // The four most recent survive, oldest-first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recorder.at(i).at_us, static_cast<int64_t>(6 + i));
    EXPECT_EQ(recorder.at(i).actor, static_cast<uint32_t>(6 + i));
  }
}

TEST(RecorderTest, ClearResetsRetainedAndCounters) {
  Recorder recorder(4);
  recorder.RecordAt(1, TraceEventKind::kRepair, 2, 3);
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
  recorder.RecordAt(9, TraceEventKind::kRepair, 1, 1);
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.at(0).at_us, 9);
}

TEST(RecorderTest, ZeroCapacityIsClampedToOne) {
  Recorder recorder(0);
  EXPECT_EQ(recorder.capacity(), 1u);
  recorder.RecordAt(1, TraceEventKind::kDelivery, 1);
  recorder.RecordAt(2, TraceEventKind::kDelivery, 2);
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.at(0).at_us, 2);
}

TEST(RegistryTest, RegistrationIsIdempotentAndKindChecked) {
  Registry registry;
  const MetricId a = registry.Counter("engine.messages");
  ASSERT_NE(a, kInvalidMetricId);
  EXPECT_EQ(registry.Counter("engine.messages"), a);
  // Same name under a different kind is a registration error.
  EXPECT_EQ(registry.Gauge("engine.messages"), kInvalidMetricId);
  EXPECT_EQ(registry.TakeSnapshot().count, 1u);
}

TEST(RegistryTest, FullRegistryReturnsInvalidAndMutationsAreNoOps) {
  // A registry holds as many metrics as one snapshot carries.
  Registry registry;
  for (size_t i = 0; i < Snapshot::kMaxEntries; ++i) {
    EXPECT_NE(registry.Counter("c" + std::to_string(i)), kInvalidMetricId);
  }
  const MetricId overflow = registry.Counter("overflow");
  EXPECT_EQ(overflow, kInvalidMetricId);
  registry.Add(overflow, 100);  // must not crash or touch anything
  registry.Set(overflow, 1.0);
  registry.Observe(overflow, 1);
  const Snapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(snapshot.count, Snapshot::kMaxEntries);
  EXPECT_EQ(snapshot.truncated, 0u);
  for (uint32_t i = 0; i < snapshot.count; ++i) {
    EXPECT_EQ(snapshot.entries[i].value, 0u);
  }
}

TEST(RegistryTest, CountersGaugesHistogramsReadBack) {
  Registry registry;
  const MetricId c = registry.Counter("c");
  const MetricId g = registry.Gauge("g");
  const MetricId h = registry.Histogram("h");
  registry.Add(c);
  registry.Add(c, 41);
  registry.Set(g, 2.5);
  registry.Set(g, -0.5);  // gauges keep the last written value
  registry.Observe(h, 0);
  registry.Observe(h, 1);
  registry.Observe(h, 1023);
  const Snapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(SnapshotCounter(snapshot, "c"), 42u);
  EXPECT_DOUBLE_EQ(SnapshotGauge(snapshot, "g"), -0.5);
  // 0 and 1 share bucket 0; 1023 lands in bucket 9.
  const SnapshotEntry* low = FindEntry(snapshot, HashMetricName("h"), 0);
  const SnapshotEntry* high = FindEntry(snapshot, HashMetricName("h"), 9);
  ASSERT_NE(low, nullptr);
  ASSERT_NE(high, nullptr);
  EXPECT_EQ(low->value, 2u);
  EXPECT_EQ(high->value, 1u);
}

TEST(RegistryTest, SnapshotKeepsRegistrationOrderAndExpandsBuckets) {
  Registry registry;
  registry.Add(registry.Counter("first"), 1);
  const MetricId h = registry.Histogram("spans");
  registry.Observe(h, 1);   // bucket 0
  registry.Observe(h, 9);   // bucket 3
  registry.Observe(h, 9);
  registry.Set(registry.Gauge("loss"), 1.25);

  const Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.count, 4u);
  EXPECT_EQ(snapshot.truncated, 0u);
  EXPECT_EQ(snapshot.entries[0].name_hash, HashMetricName("first"));
  EXPECT_EQ(snapshot.entries[0].value, 1u);
  EXPECT_EQ(snapshot.entries[1].name_hash, HashMetricName("spans"));
  EXPECT_EQ(snapshot.entries[1].index, 0u);
  EXPECT_EQ(snapshot.entries[1].value, 1u);
  EXPECT_EQ(snapshot.entries[2].index, 3u);
  EXPECT_EQ(snapshot.entries[2].value, 2u);
  EXPECT_EQ(snapshot.entries[3].name_hash, HashMetricName("loss"));
  EXPECT_DOUBLE_EQ(BitsToDouble(snapshot.entries[3].value), 1.25);

  EXPECT_EQ(SnapshotCounter(snapshot, "first"), 1u);
  EXPECT_DOUBLE_EQ(SnapshotGauge(snapshot, "loss"), 1.25);
  EXPECT_EQ(FindEntry(snapshot, HashMetricName("missing")), nullptr);
}

TEST(RegistryTest, SnapshotsIdenticalIsBytewise) {
  Registry a;
  a.Add(a.Counter("x"), 5);
  Registry b;
  b.Add(b.Counter("x"), 5);
  EXPECT_TRUE(SnapshotsIdentical(a.TakeSnapshot(), b.TakeSnapshot()));
  b.Add(b.Counter("x"), 1);
  EXPECT_FALSE(SnapshotsIdentical(a.TakeSnapshot(), b.TakeSnapshot()));
}

TEST(RegistryTest, HashBytesPinsValuesOrderAndLength) {
  auto hash = [](const std::vector<double>& v) {
    return HashBytes(v.data(), v.size() * sizeof(double));
  };
  const uint64_t base = hash({0.0, 1.25, -1.0, 3.5});
  EXPECT_EQ(base, hash({0.0, 1.25, -1.0, 3.5}));
  EXPECT_NE(base, hash({0.0, 1.25, -1.0}));        // length
  EXPECT_NE(base, hash({1.25, 0.0, -1.0, 3.5}));   // order
  EXPECT_NE(base, hash({0.0, 1.25, -1.0, 3.51}));  // value
  EXPECT_NE(base, hash({-0.0, 1.25, -1.0, 3.5}));  // sign bit of a zero
  // The byte hash and the name hash are the same FNV-1a.
  EXPECT_EQ(HashBytes("ab", 2), HashMetricName("ab"));
}

TEST(RegistryTest, EntriesMatchNamesTheFirstMissingOrDriftedMetric) {
  auto fill = [](Registry& r) {
    r.Add(r.Counter("engine.messages"), 12);
    r.Set(r.Gauge("engine.loss_percent"), 0.0);
    r.Observe(r.Histogram("engine.span_jobs"), 3);
  };
  Registry expected;
  fill(expected);
  Registry actual;
  actual.Add(actual.Counter("node.feed_frames"), 9);  // extras are ignored
  fill(actual);
  EXPECT_TRUE(EntriesMatch(expected, actual.TakeSnapshot()).ok());

  // A drifted counter is named.
  expected.Add(expected.Counter("engine.messages"), 1);
  Status drift = EntriesMatch(expected, actual.TakeSnapshot());
  ASSERT_FALSE(drift.ok());
  EXPECT_NE(drift.message().find("mismatch: engine.messages"),
            std::string::npos)
      << drift.ToString();
  actual.Add(actual.Counter("engine.messages"), 1);
  EXPECT_TRUE(EntriesMatch(expected, actual.TakeSnapshot()).ok());

  // Gauges compare as bits: -0.0 == 0.0 numerically, yet it drifts.
  actual.Set(actual.Gauge("engine.loss_percent"), -0.0);
  drift = EntriesMatch(expected, actual.TakeSnapshot());
  ASSERT_FALSE(drift.ok());
  EXPECT_NE(drift.message().find("engine.loss_percent"), std::string::npos);
  actual.Set(actual.Gauge("engine.loss_percent"), 0.0);

  // A histogram bucket the other side lacks is named with its bucket.
  expected.Observe(expected.Histogram("engine.span_jobs"), 100);
  drift = EntriesMatch(expected, actual.TakeSnapshot());
  ASSERT_FALSE(drift.ok());
  EXPECT_NE(drift.message().find("missing: engine.span_jobs bucket 6"),
            std::string::npos)
      << drift.ToString();

  // A metric the other side never published is missing.
  Registry empty;
  drift = EntriesMatch(expected, empty.TakeSnapshot());
  ASSERT_FALSE(drift.ok());
  EXPECT_NE(drift.message().find("missing: engine.messages"),
            std::string::npos);
}

TEST(ExportTest, CanonicalTraceSortsByFullKey) {
  Recorder recorder(8);
  recorder.RecordAt(200, TraceEventKind::kDelivery, 1, 9);
  recorder.RecordAt(100, TraceEventKind::kSourceTick, 2, 1);
  recorder.RecordAt(200, TraceEventKind::kDelivery, 1, 3);
  recorder.RecordAt(200, TraceEventKind::kSourceTick, 0, 0);

  const std::vector<TraceEvent> canonical = CanonicalTrace(recorder);
  ASSERT_EQ(canonical.size(), 4u);
  EXPECT_EQ(canonical[0].at_us, 100);
  EXPECT_EQ(canonical[1].at_us, 200);
  // Equal times order by kind, then actor, then arg.
  EXPECT_EQ(canonical[1].kind,
            static_cast<uint16_t>(TraceEventKind::kSourceTick));
  EXPECT_EQ(canonical[2].arg, 3u);
  EXPECT_EQ(canonical[3].arg, 9u);
}

TEST(ExportTest, DumpTraceIsInsertionOrderInvariant) {
  Recorder forward(8);
  Recorder reverse(8);
  for (int i = 0; i < 5; ++i) {
    forward.RecordAt(10 * i, TraceEventKind::kDelivery,
                     static_cast<uint32_t>(i), static_cast<uint64_t>(i));
  }
  for (int i = 4; i >= 0; --i) {
    reverse.RecordAt(10 * i, TraceEventKind::kDelivery,
                     static_cast<uint32_t>(i), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(DumpTrace(forward), DumpTrace(reverse));
  EXPECT_NE(DumpTrace(forward).find("delivery actor=2 arg=2"),
            std::string::npos);
}

TEST(ExportTest, ChromeTraceJsonNamesEveryEventAndProcess) {
  Recorder recorder(4);
  recorder.RecordAt(1500, TraceEventKind::kFrameTx, 0, 2, 1);
  const std::string json = ChromeTraceJson(recorder, /*pid=*/3, "node3");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"node3\""), std::string::npos);
  EXPECT_NE(json.find("\"frame-tx\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1500"), std::string::npos);
}

TEST(ExportTest, NodeSummaryTableReadsSnapshotsAndExtras) {
  Registry registry;
  registry.Add(registry.Counter("engine.messages"), 123);
  registry.Set(registry.Gauge("engine.loss_percent"), 4.5);
  registry.Add(registry.Counter("feed.bytes_rx"), 2048);
  const Snapshot snapshot = registry.TakeSnapshot();

  NodeSummaryRow row;
  row.label = "node0";
  row.snapshot = &snapshot;
  row.extra = {"yes"};
  const std::string table =
      NodeSummaryTable({row}, {"identical"}).ToString();
  EXPECT_NE(table.find("node0"), std::string::npos);
  EXPECT_NE(table.find("123"), std::string::npos);
  EXPECT_NE(table.find("4.500"), std::string::npos);
  EXPECT_NE(table.find("2.0"), std::string::npos);  // feedKB
  EXPECT_NE(table.find("identical"), std::string::npos);
  EXPECT_NE(table.find("yes"), std::string::npos);
}

// ---------------------------------------------------------------------------
// kObsSnapshot chunking bridge (serve::MakeObsSnapshotFrames /
// serve::ObsAccumulator)

Snapshot BigSnapshot(size_t entries) {
  Registry registry;
  for (size_t i = 0; i < entries; ++i) {
    registry.Add(registry.Counter("metric." + std::to_string(i)), i + 1);
  }
  return registry.TakeSnapshot();
}

TEST(ObsSnapshotBridgeTest, RoundTripsSnapshotAndTraceByteIdentically) {
  const Snapshot snapshot = BigSnapshot(14);  // 3 entry chunks (6+6+2)
  Recorder recorder(32);
  for (uint32_t i = 0; i < 11; ++i) {  // 3 trace chunks (5+5+1)
    recorder.RecordAt(i * 7, TraceEventKind::kDelivery, i, i * 2, i * 3,
                      static_cast<uint16_t>(i));
  }

  const std::vector<net::wire::Frame> frames =
      serve::MakeObsSnapshotFrames(/*node=*/2, snapshot, &recorder);
  ASSERT_EQ(frames.size(), 7u);  // header + 3 entry + 3 trace chunks

  serve::ObsAccumulator accumulator;
  for (const net::wire::Frame& frame : frames) {
    ASSERT_EQ(frame.type, net::wire::FrameType::kObsSnapshot);
    // Genuine wire round trip: encode, decode, then accumulate.
    uint8_t image[net::wire::kMaxFrameSize];
    const size_t n = net::wire::Encode(frame, image, sizeof(image));
    ASSERT_GT(n, 0u);
    Result<net::wire::Frame> decoded = net::wire::Decode(image, n);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(accumulator.Accept(decoded->u.obs_snapshot).ok());
  }
  ASSERT_TRUE(accumulator.complete());
  EXPECT_TRUE(SnapshotsIdentical(accumulator.snapshot(), snapshot));
  ASSERT_EQ(accumulator.trace().size(), recorder.size());
  for (size_t i = 0; i < recorder.size(); ++i) {
    EXPECT_EQ(std::memcmp(&accumulator.trace()[i], &recorder.at(i),
                          sizeof(TraceEvent)),
              0);
  }
  EXPECT_EQ(accumulator.recorded(), recorder.recorded());
  EXPECT_EQ(accumulator.dropped(), recorder.dropped());
}

TEST(ObsSnapshotBridgeTest, EmptyStreamIsOneHeaderChunk) {
  const Snapshot empty{};
  const std::vector<net::wire::Frame> frames =
      serve::MakeObsSnapshotFrames(0, empty, nullptr);
  ASSERT_EQ(frames.size(), 1u);
  serve::ObsAccumulator accumulator;
  ASSERT_TRUE(accumulator.Accept(frames[0].u.obs_snapshot).ok());
  EXPECT_TRUE(accumulator.complete());
  EXPECT_EQ(accumulator.snapshot().count, 0u);
  EXPECT_TRUE(accumulator.trace().empty());
}

TEST(ObsSnapshotBridgeTest, RejectsGapsReordersAndMalformedChunks) {
  const Snapshot snapshot = BigSnapshot(8);
  const std::vector<net::wire::Frame> frames =
      serve::MakeObsSnapshotFrames(1, snapshot, nullptr);
  ASSERT_GE(frames.size(), 3u);

  {
    // Skipping the header is a precise error.
    serve::ObsAccumulator accumulator;
    EXPECT_FALSE(accumulator.Accept(frames[1].u.obs_snapshot).ok());
  }
  {
    // A gap after the header is a precise error.
    serve::ObsAccumulator accumulator;
    ASSERT_TRUE(accumulator.Accept(frames[0].u.obs_snapshot).ok());
    EXPECT_FALSE(accumulator.Accept(frames[2].u.obs_snapshot).ok());
  }
  {
    // A duplicate chunk is a precise error.
    serve::ObsAccumulator accumulator;
    ASSERT_TRUE(accumulator.Accept(frames[0].u.obs_snapshot).ok());
    ASSERT_TRUE(accumulator.Accept(frames[1].u.obs_snapshot).ok());
    EXPECT_FALSE(accumulator.Accept(frames[1].u.obs_snapshot).ok());
  }
  {
    // A header announcing records its chunk total has no room for is
    // rejected, not completed as a silent partial result.
    net::wire::ObsSnapshotPayload header = frames[0].u.obs_snapshot;
    header.total = 1;
    header.words[0] = 5;  // snapshot entries
    header.words[2] = 7;  // trace events
    serve::ObsAccumulator accumulator;
    Status rejected = accumulator.Accept(header);
    ASSERT_FALSE(rejected.ok());
    EXPECT_TRUE(rejected.IsInvalidArgument());
    EXPECT_NE(rejected.message().find("at chunk 0"), std::string::npos)
        << rejected.ToString();
    EXPECT_FALSE(accumulator.complete());
  }
  {
    // An absurd trace-event count is rejected before anything is sized
    // from it (it used to throw from vector::reserve).
    net::wire::ObsSnapshotPayload header = frames[0].u.obs_snapshot;
    header.words[2] = UINT64_MAX;
    serve::ObsAccumulator accumulator;
    Status rejected = accumulator.Accept(header);
    ASSERT_FALSE(rejected.ok());
    EXPECT_TRUE(rejected.IsInvalidArgument());
    EXPECT_FALSE(accumulator.complete());
    EXPECT_TRUE(accumulator.trace().empty());
  }
}

}  // namespace
}  // namespace d3t::obs
