#include "core/scheduler.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ndp::core {
namespace {

db::Column RandomColumn(size_t n, uint64_t seed = 1) {
  db::Column col = db::Column::Int64("v");
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) col.Append(rng.NextInRange(0, 999999));
  return col;
}

TEST(NdpSchedulerTest, SlicedSelectMatchesExclusiveResult) {
  db::Column col = RandomColumn(100000, 3);
  core::SystemModel sys(PlatformConfig::Gem5());
  NdpScheduler scheduler(&sys, SchedulerConfig{});
  auto sliced = scheduler.RunSlicedSelect(col, 100000, 500000).ValueOrDie();
  uint64_t oracle = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    oracle += col[i] >= 100000 && col[i] <= 500000;
  }
  EXPECT_EQ(sliced.matches, oracle);
  EXPECT_GT(sliced.slices, 1u);
  EXPECT_EQ(sliced.ownership_transfers, sliced.slices * 2);
  // Ownership is back with the host at the end.
  EXPECT_EQ(sys.dram().channel(0).rank(0).owner(), dram::RankOwner::kHost);
}

TEST(NdpSchedulerTest, RowsPerLeaseScalesWithLease) {
  core::SystemModel sys(PlatformConfig::Gem5());
  SchedulerConfig small;
  small.lease_bus_cycles = 5000;
  SchedulerConfig big;
  big.lease_bus_cycles = 50000;
  NdpScheduler s_small(&sys, small), s_big(&sys, big);
  EXPECT_GT(s_big.RowsPerLease(), 5 * s_small.RowsPerLease());
  // Lease rows are whole 4 kB pages.
  EXPECT_EQ(s_small.RowsPerLease() % 512, 0u);
}

TEST(NdpSchedulerTest, SlicingCostsThroughputButBoundsStall) {
  db::Column col = RandomColumn(262144, 5);
  // Exclusive baseline.
  core::SystemModel sys_ex(PlatformConfig::Gem5());
  auto exclusive = sys_ex.RunJafarSelect(col, 0, 499999).ValueOrDie();
  // Sliced run.
  core::SystemModel sys_sl(PlatformConfig::Gem5());
  SchedulerConfig cfg;
  cfg.lease_bus_cycles = 20000;
  cfg.host_window_bus_cycles = 2000;
  NdpScheduler scheduler(&sys_sl, cfg);
  auto sliced = scheduler.RunSlicedSelect(col, 0, 499999).ValueOrDie();
  EXPECT_EQ(sliced.matches, exclusive.matches);
  // Slicing costs something (hand-offs + host windows) but not too much.
  EXPECT_GT(sliced.duration_ps, exclusive.duration_ps);
  EXPECT_LT(sliced.duration_ps, exclusive.duration_ps * 2);
}

TEST(NdpSchedulerTest, HostWindowLetsCoRunningCpuProgress) {
  db::Column col = RandomColumn(262144, 7);
  core::SystemModel sys(PlatformConfig::Gem5());
  (void)sys.PinColumn(col);
  uint64_t cpu_base = sys.Allocate(100000 * 8, 4096);
  cpu::AggregateScanStream stream(100000, cpu_base);
  bool cpu_done = false;
  ASSERT_TRUE(sys.cpu().Run(&stream, [&](sim::Tick) { cpu_done = true; }).ok());

  SchedulerConfig cfg;
  cfg.lease_bus_cycles = 10000;
  cfg.host_window_bus_cycles = 10000;
  NdpScheduler scheduler(&sys, cfg);
  auto sliced = scheduler.RunSlicedSelect(col, 0, 499999).ValueOrDie();
  sys.eq().RunUntilTrue([&] { return cpu_done; });
  // The longest CPU stall is bounded by roughly one lease (plus hand-off).
  sim::Tick lease_ps = cfg.lease_bus_cycles *
                       sys.config().dram_timing.tck_ps;
  EXPECT_LT(sys.cpu().stats().max_retire_gap_ps, 3 * lease_ps);
  EXPECT_GT(sliced.slices, 2u);
}

TEST(NdpSchedulerTest, PermanentDeviceFailureIsReported) {
  db::Column col = RandomColumn(65536, 9);
  PlatformConfig config = PlatformConfig::Gem5();
  config.fault_plan.hang_per_job = 1.0;  // every dispatch wedges
  config.driver.retry.max_attempts = 2;
  core::SystemModel sys(config);
  NdpScheduler scheduler(&sys, SchedulerConfig{});
  auto sliced = scheduler.RunSlicedSelect(col, 0, 499999);
  // A slice whose retry budget runs out fails the whole select; it must not
  // come back as OK with the failed slice's rows missing.
  EXPECT_FALSE(sliced.ok());
  EXPECT_GT(sys.driver().stats().permanent_failures, 0u);
  // The failed slice still handed the rank back to the host.
  EXPECT_EQ(sys.dram().channel(0).rank(0).owner(), dram::RankOwner::kHost);
}

}  // namespace
}  // namespace ndp::core
