// Runtime x fault-injection composition: a device that fails permanently
// mid-run must neither lose nor double-count pages — its remaining work
// re-enters the surviving lanes' queues through the same transplant path work
// stealing uses, and every job still matches the CPU oracle.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/runtime.h"
#include "fault/injector.h"
#include "util/rng.h"

namespace ndp::core {
namespace {

db::Column RandomColumn(size_t n, uint64_t seed) {
  db::Column col = db::Column::Int64("v");
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) col.Append(rng.NextInRange(0, 999999));
  return col;
}

uint64_t Oracle(const db::Column& col, int64_t lo, int64_t hi) {
  uint64_t n = 0;
  for (size_t i = 0; i < col.size(); ++i) n += col[i] >= lo && col[i] <= hi;
  return n;
}

jafar::DeviceConfig Config() {
  return jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                     accel::DatapathResources{})
      .ValueOrDie();
}

/// Dooms `device`: every job hangs at dispatch, and the runtime's per-lane
/// driver gets a single-attempt retry budget, so the first lease on that lane
/// is a permanent failure. A short watchdog keeps the test fast.
RuntimeConfig DoomedLaneConfig() {
  RuntimeConfig cfg;
  cfg.driver.retry.max_attempts = 1;
  cfg.driver.watchdog_base_ps = 5'000'000;  // 5 us
  return cfg;
}

TEST(RuntimeFaultsTest, FailedLanePagesAreReassignedNotLostNotDoubled) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 2, Config());
  fault::FaultPlan plan;
  plan.hang_per_job = 1.0;
  StatsScope fault_scope(array.mutable_stats(), "fault");
  fault::FaultInjector injector(plan, fault_scope);
  array.device(1).set_fault_injector(&injector);  // only device 1 is doomed

  NdpRuntime runtime(&array, DoomedLaneConfig());
  db::Column col = RandomColumn(60'000, 81);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  auto s1 = runtime.SubmitSelect(placed, 0, 333'333).ValueOrDie();
  auto s2 = runtime.SubmitSelect(placed, 666'666, 999'999).ValueOrDie();
  ASSERT_TRUE(runtime.Drain().ok());

  EXPECT_EQ(runtime.lanes_alive(), 3u);
  EXPECT_GT(array.stats().ReadValue("array.runtime.lane_failures"), 0.0);
  EXPECT_GT(array.stats().ReadValue("array.runtime.chunks_reassigned"), 0.0);

  const JobResult* r1 = runtime.result(s1);
  const JobResult* r2 = runtime.result(s2);
  ASSERT_TRUE(r1 && r2);
  ASSERT_TRUE(r1->status.ok()) << r1->status.ToString();
  ASSERT_TRUE(r2->status.ok()) << r2->status.ToString();
  // Exact-bitmap comparison: a lost page would clear bits, a double-counted
  // page could not survive this check either way.
  EXPECT_EQ(r1->matches, Oracle(col, 0, 333'333));
  EXPECT_EQ(r2->matches, Oracle(col, 666'666, 999'999));
  uint64_t popcount = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    bool expect = col[i] >= 0 && col[i] <= 333'333;
    ASSERT_EQ(r1->bitmap.Get(i), expect) << "row " << i;
    popcount += expect;
  }
  EXPECT_EQ(popcount, r1->matches);
}

TEST(RuntimeFaultsTest, FailureMidStealComposesWithReassignment) {
  // Skewed placement forces steals onto the doomed lane: device 1 goes down
  // while (or after) it receives transplanted pages, which must bounce to a
  // surviving lane rather than vanish.
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 2, Config());
  fault::FaultPlan plan;
  plan.hang_per_job = 1.0;
  StatsScope fault_scope(array.mutable_stats(), "fault");
  fault::FaultInjector injector(plan, fault_scope);
  array.device(1).set_fault_injector(&injector);

  NdpRuntime runtime(&array, DoomedLaneConfig());
  db::Column col = RandomColumn(1u << 17, 82);
  PlacedColumn placed =
      array.PlaceColumn(col, {6.0, 1.0, 1.0, 1.0}).ValueOrDie();
  auto id = runtime.SubmitSelect(placed, 100'000, 900'000).ValueOrDie();
  ASSERT_TRUE(runtime.Drain().ok());

  const JobResult* r = runtime.result(id);
  ASSERT_TRUE(r != nullptr);
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  EXPECT_EQ(r->matches, Oracle(col, 100'000, 900'000));
  EXPECT_EQ(runtime.lanes_alive(), 3u);
}

TEST(RuntimeFaultsTest, QueuedPartlyDoneChunkKeepsItsBitmapOnLaneFailure) {
  // Device 1 finishes one lease of a batch select, then an interactive
  // select preempts the rest of that chunk and hangs the lane. The batch
  // chunk's finished prefix sits in the dead lane's queue: its bits must
  // survive, and only its unfinished rows move to device 0.
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  NdpRuntime runtime(&array, DoomedLaneConfig());
  db::Column a = RandomColumn(200'000, 3);
  db::Column b = RandomColumn(20'000, 4);
  PlacedColumn placed_a = array.PlaceColumn(a).ValueOrDie();
  PlacedColumn placed_b = array.PlaceColumn(b).ValueOrDie();
  auto batch = runtime.SubmitSelect(placed_a, 0, 499'999).ValueOrDie();
  // Device 1's first lease is 69 pages, one device job per page.
  ASSERT_TRUE(array.RunUntilTrue([&] {
    return array.stats().ReadValue("array.dev1.jobs_completed") >= 69.0;
  }));
  fault::FaultPlan plan;
  plan.hang_per_job = 1.0;
  StatsScope fault_scope(array.mutable_stats(), "fault");
  fault::FaultInjector injector(plan, fault_scope);
  array.device(1).set_fault_injector(&injector);
  auto interactive = runtime
                         .SubmitSelect(placed_b, 0, 499'999,
                                       JobPriority::kInteractive)
                         .ValueOrDie();
  ASSERT_TRUE(runtime.Drain().ok());

  EXPECT_EQ(array.stats().ReadValue("array.runtime.lane_failures"), 1.0);
  EXPECT_EQ(array.stats().ReadValue("array.runtime.chunks_reassigned"), 2.0);
  for (auto [id, col] : {std::pair{batch, &a}, std::pair{interactive, &b}}) {
    const JobResult* r = runtime.result(id);
    ASSERT_TRUE(r != nullptr);
    ASSERT_TRUE(r->status.ok()) << r->status.ToString();
    EXPECT_EQ(r->matches, Oracle(*col, 0, 499'999));
    uint64_t wrong = 0;
    for (size_t i = 0; i < col->size(); ++i) {
      wrong += r->bitmap.Get(i) != ((*col)[i] <= 499'999);
    }
    EXPECT_EQ(wrong, 0u) << "job " << id;
  }
}

TEST(RuntimeFaultsTest, AllLanesFailedFailsJobsCleanly) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, Config());
  fault::FaultPlan plan;
  plan.hang_per_job = 1.0;
  StatsScope fault_scope(array.mutable_stats(), "fault");
  fault::FaultInjector injector(plan, fault_scope);
  array.device(0).set_fault_injector(&injector);

  NdpRuntime runtime(&array, DoomedLaneConfig());
  db::Column col = RandomColumn(8'192, 83);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  auto id = runtime.SubmitSelect(placed, 0, 1).ValueOrDie();
  ASSERT_TRUE(runtime.Drain().ok());
  const JobResult* r = runtime.result(id);
  ASSERT_TRUE(r != nullptr);
  EXPECT_FALSE(r->status.ok());
  EXPECT_EQ(runtime.lanes_alive(), 0u);
  // A fresh submission is rejected up front rather than hanging.
  EXPECT_EQ(runtime.SubmitSelect(placed, 0, 1).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ndp::core
