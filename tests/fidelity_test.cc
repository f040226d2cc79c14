#include "core/fidelity.h"

#include "gtest/gtest.h"
#include "trace/trace.h"

namespace d3t::core {
namespace {

using Timeline = std::vector<trace::Tick>;

TEST(FidelityTest, PerfectSyncIsZeroLoss) {
  const Timeline source = {{0, 10.0}, {100, 10.05}};  // within tolerance
  FidelityTracker tracker(0.1, &source);
  tracker.Finalize(1000);
  EXPECT_EQ(tracker.out_of_sync_time(), 0);
  EXPECT_DOUBLE_EQ(tracker.LossPercent(), 0.0);
}

TEST(FidelityTest, ViolationWindowMeasured) {
  const Timeline source = {{0, 10.0}, {100, 10.5}};  // violated from t=100
  FidelityTracker tracker(0.1, &source);
  tracker.OnRepositoryValue(300, 10.5);  // repaired at t=300
  tracker.Finalize(1000);
  EXPECT_EQ(tracker.out_of_sync_time(), 200);
  EXPECT_DOUBLE_EQ(tracker.LossPercent(), 20.0);
}

TEST(FidelityTest, ViolationUntilEndCounts) {
  const Timeline source = {{0, 10.0}, {900, 11.0}};
  FidelityTracker tracker(0.1, &source);
  tracker.OnRepositoryValue(950, 10.5);  // still out of tolerance
  tracker.Finalize(1000);
  EXPECT_EQ(tracker.out_of_sync_time(), 100);
  EXPECT_DOUBLE_EQ(tracker.LossPercent(), 10.0);
}

TEST(FidelityTest, RepeatedViolationsAccumulate) {
  const Timeline source = {{0, 10.0}, {100, 11.0}, {200, 12.0}};
  FidelityTracker tracker(0.1, &source);  // out at 100 and at 200
  tracker.OnRepositoryValue(150, 11.0);   // in
  tracker.OnRepositoryValue(280, 12.0);   // in
  tracker.Finalize(1000);
  EXPECT_EQ(tracker.out_of_sync_time(), 50 + 80);
}

TEST(FidelityTest, BoundaryIsNotViolation) {
  const Timeline source = {{0, 10.0}, {100, 10.5}};  // |diff| == c exactly
  FidelityTracker tracker(0.5, &source);
  tracker.Finalize(200);
  EXPECT_EQ(tracker.out_of_sync_time(), 0);
}

TEST(FidelityTest, RepoOvershootAlsoViolates) {
  const Timeline source = {{0, 10.0}};
  FidelityTracker tracker(0.1, &source);
  tracker.OnRepositoryValue(100, 10.9);  // repo ahead of source
  tracker.OnRepositoryValue(200, 10.0);
  tracker.Finalize(1000);
  EXPECT_EQ(tracker.out_of_sync_time(), 100);
}

TEST(FidelityTest, EventsAfterFinalizeIgnored) {
  const Timeline source = {{0, 10.0}, {150, 99.0}};
  FidelityTracker tracker(0.1, &source);
  tracker.Finalize(100);
  tracker.SyncTo(200);  // the t=150 tick lies past the window
  tracker.OnRepositoryValue(250, 50.0);
  EXPECT_EQ(tracker.out_of_sync_time(), 0);
  EXPECT_DOUBLE_EQ(tracker.LossPercent(), 0.0);
}

TEST(FidelityTest, FinalizeIdempotent) {
  const Timeline source = {{0, 10.0}};
  FidelityTracker tracker(0.1, &source);
  tracker.OnRepositoryValue(0, 11.0);
  tracker.Finalize(100);
  tracker.Finalize(500);
  EXPECT_EQ(tracker.out_of_sync_time(), 100);
  EXPECT_DOUBLE_EQ(tracker.LossPercent(), 100.0);
}

TEST(FidelityTest, ZeroWindowLossIsZero) {
  const Timeline source = {{0, 10.0}};
  FidelityTracker tracker(0.1, &source);
  tracker.Finalize(0);
  EXPECT_DOUBLE_EQ(tracker.LossPercent(), 0.0);
}

TEST(FidelityTest, AlternatingProcessesExactIntegral) {
  // Hand-computed scenario where each process both opens and closes
  // violations.
  const Timeline source = {
      {0, 0.0}, {10, 2.0}, {20, 0.5}, {30, 3.0}, {50, 4.0}};
  FidelityTracker tracker(1.0, &source);
  // source 2.0 at 10: out (diff 2); 0.5 at 20: in, out 10;
  // 3.0 at 30: out (diff 3).
  tracker.OnRepositoryValue(45, 2.5);  // in (diff 0.5), out 15
  // source 4.0 at 50: out (diff 1.5).
  tracker.OnRepositoryValue(70, 4.0);  // in, out 20
  tracker.OnRepositoryValue(80, 5.5);  // out (diff 1.5) to the end
  tracker.Finalize(100);
  EXPECT_EQ(tracker.out_of_sync_time(), 10 + 15 + 20 + 20);
  EXPECT_DOUBLE_EQ(tracker.LossPercent(), 65.0);
}

// ---------------------------------------------------------------------------
// Timeline cursor: the source process is integrated from the bound
// timeline whenever the repository side moves and at Finalize.

TEST(LazyFidelityTest, MatchesEagerOnHandScenario) {
  // Source steps come from the bound timeline alone; the two repository
  // updates catch the cursor up.
  const Timeline source = {
      {0, 0.0}, {10, 2.0}, {20, 0.5}, {30, 3.0}, {50, 4.0}};
  FidelityTracker tracker(1.0, &source);
  tracker.OnRepositoryValue(45, 2.5);
  tracker.OnRepositoryValue(70, 4.0);
  tracker.Finalize(100);
  EXPECT_EQ(tracker.out_of_sync_time(), 10 + 15 + 20);
  EXPECT_DOUBLE_EQ(tracker.LossPercent(), 45.0);
}

TEST(LazyFidelityTest, FinalizeIntegratesUnconsumedTraceTail) {
  // No repository update ever arrives; the whole violation window is
  // discovered at Finalize.
  const Timeline source = {{0, 10.0}, {900, 11.0}};
  FidelityTracker tracker(0.1, &source);
  tracker.Finalize(1000);
  EXPECT_EQ(tracker.out_of_sync_time(), 100);
  EXPECT_DOUBLE_EQ(tracker.LossPercent(), 10.0);
}

TEST(LazyFidelityTest, RepeatedTraceValuesAreNotUpdates) {
  // Polls that repeat the previous value are not source updates: they
  // must integrate exactly like a compacted timeline without them.
  const Timeline source = {
      {0, 10.0}, {100, 10.0}, {200, 11.0}, {300, 11.0}, {400, 11.0}};
  FidelityTracker tracker(0.1, &source);
  tracker.OnRepositoryValue(250, 11.0);
  tracker.Finalize(500);
  EXPECT_EQ(tracker.out_of_sync_time(), 50);  // violated only [200, 250)
}

TEST(LazyFidelityTest, SourceTickAtRepositoryUpdateTimeIsAppliedFirst) {
  // A trace tick at exactly the repository-update time belongs to the
  // past of that update (zero-duration intermediate states carry no
  // weight either way).
  const Timeline source = {{0, 10.0}, {100, 12.0}};
  FidelityTracker tracker(0.1, &source);
  tracker.OnRepositoryValue(100, 12.0);  // repairs at the same instant
  tracker.Finalize(200);
  EXPECT_EQ(tracker.out_of_sync_time(), 0);
}

TEST(LazyFidelityTest, EventsAfterFinalizeIgnored) {
  const Timeline source = {{0, 10.0}, {150, 99.0}};
  FidelityTracker tracker(0.1, &source);
  tracker.Finalize(100);
  tracker.OnRepositoryValue(160, 50.0);
  EXPECT_EQ(tracker.out_of_sync_time(), 0);
  EXPECT_DOUBLE_EQ(tracker.LossPercent(), 0.0);
}

}  // namespace
}  // namespace d3t::core
