// Multi-query runtime tests: lease-controller properties (QoS monotonicity,
// starvation freedom), oracle-matched concurrent jobs, work-stealing
// makespan, and byte-identical determinism.
#include "core/runtime.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/host_traffic.h"
#include "util/rng.h"

namespace ndp::core {
namespace {

db::Column RandomColumn(size_t n, uint64_t seed = 1) {
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

// -- LeaseController ----------------------------------------------------------

TEST(LeaseControllerTest, GrowsTowardCapWhenChannelIdle) {
  RuntimeConfig cfg;
  LeaseController lc(cfg);
  uint64_t initial = lc.NextLeaseBusCycles();
  for (int i = 0; i < 32; ++i) lc.Observe(10'000, 0, 0);
  EXPECT_TRUE(lc.ChannelIdle());
  EXPECT_GT(lc.NextLeaseBusCycles(), initial);
  EXPECT_EQ(lc.NextLeaseBusCycles(),
            std::min(cfg.lease_max_bus_cycles, cfg.qos_max_stall_bus_cycles));
  EXPECT_GT(lc.qos_grows(), 0u);
  // Idle channel collapses the host window to its floor.
  EXPECT_EQ(lc.HostWindowBusCycles(lc.NextLeaseBusCycles()),
            kHostWindowMinBusCycles);
}

TEST(LeaseControllerTest, ShrinksToFloorWhenOverBudget) {
  RuntimeConfig cfg;
  LeaseController lc(cfg);
  for (int i = 0; i < 32; ++i) lc.Observe(10'000, 9'000, 100);
  EXPECT_TRUE(lc.OverBudget());
  EXPECT_EQ(lc.NextLeaseBusCycles(), kLeaseMinBusCycles);
  EXPECT_GT(lc.qos_shrinks(), 0u);
  // Busy channel gets a window sized to keep the duty cycle within budget:
  // W >= L * (1 - beta) / beta.
  uint64_t lease = lc.NextLeaseBusCycles();
  double beta = cfg.qos_budget_fraction();
  EXPECT_GE(static_cast<double>(lc.HostWindowBusCycles(lease)),
            static_cast<double>(lease) * (1.0 - beta) / beta - 1.0);
}

TEST(LeaseControllerTest, HoldsInTheMiddleBand) {
  RuntimeConfig cfg;
  LeaseController lc(cfg);
  uint64_t initial = lc.NextLeaseBusCycles();
  // Busy fraction between idle threshold and budget: no adaptation.
  for (int i = 0; i < 16; ++i) lc.Observe(10'000, 1'500, 20);
  EXPECT_EQ(lc.NextLeaseBusCycles(), initial);
  EXPECT_EQ(lc.qos_shrinks() + lc.qos_grows(), 0u);
}

// Property: for the same observation sequence, a tighter QoS budget (smaller
// slowdown fraction and/or smaller stall cap) never yields a larger lease,
// and never a smaller host window.
TEST(LeaseControllerTest, TighterBudgetIsMonotone) {
  Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    RuntimeConfig loose;
    loose.qos_max_cpu_slowdown_pct = 10.0 + 40.0 * rng.NextDouble();
    loose.qos_max_stall_bus_cycles =
        20'000 + rng.NextBounded(100'000);
    RuntimeConfig tight = loose;
    // Stay above the 5% idle threshold (Validate requires threshold < budget).
    tight.qos_max_cpu_slowdown_pct =
        loose.qos_max_cpu_slowdown_pct * (0.6 + 0.3 * rng.NextDouble());
    tight.qos_max_stall_bus_cycles =
        kLeaseMinBusCycles +
        rng.NextBounded(static_cast<uint32_t>(loose.qos_max_stall_bus_cycles -
                                              kLeaseMinBusCycles + 1));
    ASSERT_TRUE(loose.Validate().ok());
    ASSERT_TRUE(tight.Validate().ok());

    LeaseController lc_loose(loose), lc_tight(tight);
    EXPECT_LE(lc_tight.NextLeaseBusCycles(), lc_loose.NextLeaseBusCycles());
    for (int step = 0; step < 200; ++step) {
      uint64_t window = 1'000 + rng.NextBounded(20'000);
      uint64_t busy = rng.NextBounded(static_cast<uint32_t>(window + 1));
      uint64_t requests = rng.NextBounded(200);
      lc_loose.Observe(window, busy, requests);
      lc_tight.Observe(window, busy, requests);
      uint64_t lease_loose = lc_loose.NextLeaseBusCycles();
      uint64_t lease_tight = lc_tight.NextLeaseBusCycles();
      ASSERT_LE(lease_tight, lease_loose)
          << "trial " << trial << " step " << step;
      // Both controllers see identical EWMAs, so ChannelIdle agrees; at the
      // same lease, the tighter budget demands at least as long a window.
      ASSERT_EQ(lc_tight.ChannelIdle(), lc_loose.ChannelIdle());
      ASSERT_GE(lc_tight.HostWindowBusCycles(lease_tight),
                lc_loose.HostWindowBusCycles(lease_tight))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(RuntimeConfigTest, ValidateRejectsBadKnobs) {
  RuntimeConfig cfg;
  cfg.qos_max_cpu_slowdown_pct = 5.0;  // budget fraction == idle threshold
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = RuntimeConfig{};
  cfg.qos_max_stall_bus_cycles = 100;  // below lease_min
  EXPECT_FALSE(cfg.Validate().ok());
}

// -- NdpRuntime ---------------------------------------------------------------

TEST(NdpRuntimeTest, ConcurrentJobsMatchOracle) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 2, Config());
  RuntimeConfig cfg;
  NdpRuntime runtime(&array, cfg);
  db::Column a = RandomColumn(40'000, 21);
  db::Column b = RandomColumn(25'000, 22);
  PlacedColumn pa = array.PlaceColumn(a).ValueOrDie();
  PlacedColumn pb = array.PlaceColumn(b).ValueOrDie();

  auto s1 = runtime.SubmitSelect(pa, 0, 249'999).ValueOrDie();
  auto s2 = runtime.SubmitSelect(pa, 500'000, 999'999,
                                 JobPriority::kInteractive).ValueOrDie();
  auto s3 = runtime.SubmitSelect(pb, 100'000, 200'000).ValueOrDie();
  auto g1 = runtime.SubmitAggregate(pb, jafar::AggKind::kSum).ValueOrDie();
  ASSERT_TRUE(runtime.Drain().ok());

  const JobResult* r1 = runtime.result(s1);
  const JobResult* r2 = runtime.result(s2);
  const JobResult* r3 = runtime.result(s3);
  const JobResult* r4 = runtime.result(g1);
  ASSERT_TRUE(r1 && r2 && r3 && r4);
  EXPECT_EQ(r1->matches, Oracle(a, 0, 249'999));
  EXPECT_EQ(r2->matches, Oracle(a, 500'000, 999'999));
  EXPECT_EQ(r3->matches, Oracle(b, 100'000, 200'000));
  int64_t sum = 0;
  for (size_t i = 0; i < b.size(); ++i) sum += b[i];
  EXPECT_EQ(r4->agg_value, sum);
  // Bitmaps are exact, not just popcount-equal.
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(r1->bitmap.Get(i), a[i] >= 0 && a[i] <= 249'999) << "row " << i;
  }
  EXPECT_GT(r1->leases, 0u);
}

TEST(NdpRuntimeTest, StealingCutsSkewedMakespan) {
  db::Column col = RandomColumn(1u << 18, 31);
  auto run = [&](bool steal) {
    DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, Config());
    RuntimeConfig cfg;
    cfg.steal_enabled = steal;
    NdpRuntime runtime(&array, cfg);
    // 4x skew: device 0 holds ~4/7 of the column.
    PlacedColumn placed =
        array.PlaceColumn(col, {4.0, 1.0, 1.0, 1.0}).ValueOrDie();
    // Idle warm-up: give the lease controllers an observable stretch of
    // channel silence, as on any real system that has been up a while. A
    // t=0 submission would pay the conservative no-observation first window
    // in both runs, drowning the steal/no-steal contrast in a constant.
    array.eq().RunUntil(array.eq().Now() + 20'000'000);
    auto id = runtime.SubmitSelect(placed, 0, 499'999).ValueOrDie();
    EXPECT_TRUE(runtime.Drain().ok());
    const JobResult* r = runtime.result(id);
    EXPECT_EQ(r->matches, Oracle(col, 0, 499'999));
    return r->completed_ps - r->submitted_ps;
  };
  sim::Tick with_steal = run(true);
  sim::Tick without = run(false);
  EXPECT_GE(static_cast<double>(without),
            1.5 * static_cast<double>(with_steal))
      << "stealing should cut the 4x-skew makespan by >= 1.5x (got "
      << static_cast<double>(without) / static_cast<double>(with_steal)
      << "x)";
}

TEST(NdpRuntimeTest, BatchJobsCompleteUnderSaturatingHostTraffic) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, Config());
  RuntimeConfig cfg;
  NdpRuntime runtime(&array, cfg);
  db::Column col = RandomColumn(16'384, 41);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();

  // CPU traffic saturating the one channel, over its own region. The rate
  // sits just above the channel's service rate: utilization pins at ~1.0
  // while the backlog (and thus retry-event volume) grows only slowly.
  uint64_t region = array.AllocOnDevice(0, 1u << 20).ValueOrDie();
  HostTrafficConfig tc;
  tc.reqs_per_us = 280.0;
  tc.seed = 7;
  tc.retry_backoff_ps = 500'000;  // 500 ns between backpressure retries
  HostTrafficGen traffic(&array.eq(), &array.dram().controller(0), tc);
  traffic.AddRegion(region, 1u << 20);
  traffic.Start();
  // Let the generator run alone so the controller EWMA starts saturated.
  array.eq().RunUntil(array.eq().Now() + 20'000'000);

  auto id = runtime.SubmitSelect(placed, 0, 499'999).ValueOrDie();
  ASSERT_TRUE(runtime.WaitFor(id).ok());  // starvation freedom: completes
  traffic.Stop();
  const JobResult* r = runtime.result(id);
  ASSERT_TRUE(r->status.ok());
  EXPECT_EQ(r->matches, Oracle(col, 0, 499'999));
  // The run was admission-gated and QoS-shrunk along the way.
  EXPECT_GT(array.stats().ReadValue("array.runtime.admission_defers"), 0.0);
  EXPECT_GT(runtime.controller(0).qos_shrinks(), 0u);
  EXPECT_GT(traffic.completed(), 0u);
}

TEST(NdpRuntimeTest, DeterministicAcrossRuns) {
  auto run = [] {
    DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
    RuntimeConfig cfg;
    NdpRuntime runtime(&array, cfg);
    db::Column col = RandomColumn(50'000, 51);
    PlacedColumn placed = array.PlaceColumn(col, {3.0, 1.0}).ValueOrDie();
    uint64_t region = array.AllocOnDevice(1, 1u << 18).ValueOrDie();
    HostTrafficConfig tc;
    tc.reqs_per_us = 40.0;
    tc.seed = 9;
    HostTrafficGen traffic(&array.eq(), &array.dram().controller(0), tc);
    traffic.AddRegion(region, 1u << 18);
    traffic.Start();
    auto s1 = runtime.SubmitSelect(placed, 0, 333'333).ValueOrDie();
    auto s2 = runtime.SubmitAggregate(placed, jafar::AggKind::kMax).ValueOrDie();
    EXPECT_TRUE(runtime.WaitFor(s1).ok());
    EXPECT_TRUE(runtime.WaitFor(s2).ok());
    traffic.Stop();
    return array.stats().Snapshot().ToText() +
           std::to_string(array.eq().Now());
  };
  std::string first = run();
  std::string second = run();
  EXPECT_EQ(first, second) << "same seed must give byte-identical stats";
}

TEST(NdpRuntimeTest, PushdownHookFeedsPlanExecution) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(20'000, 61);
  db::QueryContext ctx;
  ctx.ndp_select = runtime.MakePushdownHook();
  db::PositionList ndp = ScanSelect(&ctx, col, db::Pred::Between(0, 99'999));
  db::QueryContext cpu_ctx;
  db::PositionList cpu =
      ScanSelect(&cpu_ctx, col, db::Pred::Between(0, 99'999));
  EXPECT_EQ(ndp, cpu);
}

TEST(NdpRuntimeTest, PushdownHookReplacesAColumnWrittenAfterPlacement) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(20'000, 62);
  db::QueryContext ctx;
  ctx.ndp_select = runtime.MakePushdownHook();
  db::QueryContext cpu_ctx;
  const db::Pred pred = db::Pred::Between(0, 99'999);
  EXPECT_EQ(ScanSelect(&ctx, col, pred), ScanSelect(&cpu_ctx, col, pred));
  for (size_t i = 0; i < col.size(); i += 3) col.Set(i, 42);
  for (int64_t i = 0; i < 500; ++i) col.Append(i * 7);
  EXPECT_EQ(ScanSelect(&ctx, col, pred), ScanSelect(&cpu_ctx, col, pred));
}

TEST(NdpRuntimeTest, PushdownHookPlacesAColumnAtARecycledAddress) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::QueryContext ctx;
  ctx.ndp_select = runtime.MakePushdownHook();
  db::QueryContext cpu_ctx;
  const db::Pred pred = db::Pred::Between(0, 99'999);
  std::optional<db::Column> slot;
  slot.emplace(RandomColumn(20'000, 63));
  const db::Column* first = &*slot;
  EXPECT_EQ(ScanSelect(&ctx, *slot, pred), ScanSelect(&cpu_ctx, *slot, pred));
  slot.reset();
  slot.emplace(RandomColumn(20'000, 64));
  ASSERT_EQ(&*slot, first);  // the same address, another column
  EXPECT_EQ(ScanSelect(&ctx, *slot, pred), ScanSelect(&cpu_ctx, *slot, pred));
}

TEST(NdpRuntimeTest, PreemptedBatchChunkKeepsItsBitmap) {
  // An interactive select preempts a half-done batch chunk on the only lane
  // and reuses the column's placement out region. The batch job's finished
  // leases must keep their bits: they are folded when each lease ends, not
  // when the chunk retires after the interactive job overwrote the region.
  DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(1u << 18, 7);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  auto batch = runtime.SubmitSelect(placed, 0, 499'999).ValueOrDie();
  ASSERT_TRUE(array.RunUntilTrue([&] {
    return array.stats().ReadValue("array.runtime.leases") >= 2.0;
  }));
  auto interactive = runtime
                         .SubmitSelect(placed, 500'000, 999'999,
                                       JobPriority::kInteractive)
                         .ValueOrDie();
  ASSERT_TRUE(runtime.Drain().ok());

  for (auto [id, lo, hi] : {std::tuple{batch, 0, 499'999},
                            std::tuple{interactive, 500'000, 999'999}}) {
    const JobResult* r = runtime.result(id);
    ASSERT_TRUE(r != nullptr);
    ASSERT_TRUE(r->status.ok()) << r->status.ToString();
    EXPECT_EQ(r->matches, Oracle(col, lo, hi));
    uint64_t wrong = 0;
    for (size_t i = 0; i < col.size(); ++i) {
      wrong += r->bitmap.Get(i) != (col[i] >= lo && col[i] <= hi);
    }
    EXPECT_EQ(wrong, 0u) << "job " << id;
  }
}

TEST(NdpRuntimeTest, BatchHookRunsConjunctsConcurrently) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column a = RandomColumn(20'000, 71);
  db::Column b = RandomColumn(20'000, 72);
  auto hook = runtime.MakePushdownBatchHook();
  auto lists = hook({{&a, db::Pred::Le(500'000)}, {&b, db::Pred::Ge(400'000)}});
  ASSERT_TRUE(lists.ok());
  ASSERT_EQ(lists.value().size(), 2u);
  db::QueryContext cpu_ctx;
  EXPECT_EQ(lists.value()[0],
            ScanSelect(&cpu_ctx, a, db::Pred::Le(500'000)));
  EXPECT_EQ(lists.value()[1],
            ScanSelect(&cpu_ctx, b, db::Pred::Ge(400'000)));
}

// -- Result lifetime ----------------------------------------------------------

TEST(NdpRuntimeResultTest, BurstSelectResultGoesOnlyToItsCallback) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(1u << 14, 81);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, 99'999}, {250'000, 749'999}, {900'000, 999'999}};
  std::vector<uint64_t> calls(ranges.size(), 0);
  std::vector<uint64_t> matches(ranges.size(), 0);
  std::vector<NdpRuntime::BurstSelect> burst;
  for (size_t i = 0; i < ranges.size(); ++i) {
    NdpRuntime::BurstSelect b;
    b.col = &placed;
    b.lo = ranges[i].first;
    b.hi = ranges[i].second;
    b.opts.on_done = [&calls, &matches, i](const JobResult& r) {
      ++calls[i];
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      matches[i] = r.matches;
    };
    burst.push_back(std::move(b));
  }
  std::vector<NdpRuntime::JobId> ids =
      runtime.SubmitSelectBurst(std::move(burst)).ValueOrDie();
  ASSERT_TRUE(runtime.Drain().ok());
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(calls[i], 1u) << "select " << i;
    EXPECT_EQ(matches[i], Oracle(col, ranges[i].first, ranges[i].second));
    EXPECT_EQ(runtime.result(ids[i]), nullptr)
        << "a burst select's result goes to its callback only";
  }
}

TEST(NdpRuntimeResultTest, WaitForKnowsRetiredJobsAndRejectsUnknownIds) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(1u << 12, 82);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  auto id = runtime.SubmitSelect(placed, 0, 499'999).ValueOrDie();
  NdpRuntime::BurstSelect b;
  b.col = &placed;
  b.lo = 0;
  b.hi = 499'999;
  auto burst_id = runtime.SubmitSelectBurst({b}).ValueOrDie().front();
  ASSERT_TRUE(runtime.Drain().ok());
  // Both jobs are finished and retired; waiting on them is still OK.
  EXPECT_TRUE(runtime.WaitFor(id).ok());
  EXPECT_TRUE(runtime.WaitFor(burst_id).ok());
  EXPECT_EQ(runtime.WaitFor(0).code(), StatusCode::kNotFound);
  EXPECT_EQ(runtime.WaitFor(burst_id + 1).code(), StatusCode::kNotFound);
}

TEST(NdpRuntimeResultTest, PublicSubmitResultOutlivesDrainAndLaterJobs) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(1u << 12, 83);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  auto id = runtime.SubmitSelect(placed, 100'000, 599'999).ValueOrDie();
  ASSERT_TRUE(runtime.Drain().ok());
  auto later = runtime.SubmitAggregate(placed, jafar::AggKind::kCount)
                   .ValueOrDie();
  ASSERT_TRUE(runtime.Drain().ok());
  const JobResult* r = runtime.result(id);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->status.ok());
  EXPECT_EQ(r->matches, Oracle(col, 100'000, 599'999));
  EXPECT_EQ(r->bitmap.size(), col.size());
  ASSERT_NE(runtime.result(later), nullptr);
  EXPECT_EQ(runtime.result(later)->agg_value,
            static_cast<int64_t>(col.size()));
}

TEST(NdpRuntimeResultTest, FailedJobRetiresWhenItsInFlightSiblingLeaseEnds) {
  // Lane 0 is busy with a long batch scan when an interactive burst select
  // arrives with a deadline that has passed by the time lane 0 reaches a
  // chunk boundary. Lane 1 was idle and started its part at once, so the
  // job is failed (FailJob) while lane 1's lease of it is still running.
  // That lease must come back to a live job: the job retires only when the
  // lease ends its chunk (under ASan an early retire is a use-after-free).
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  RuntimeConfig cfg;
  cfg.steal_enabled = false;
  NdpRuntime runtime(&array, cfg);
  db::Column busy = RandomColumn(1u << 18, 84);
  db::Column col = RandomColumn(1u << 18, 85);
  PlacedColumn busy_placed = array.PlaceColumn(busy, {1.0, 0.0}).ValueOrDie();
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  // Idle warm-up, so both channels' lease controllers have seen an idle
  // window: equal lease lengths and short host windows on both lanes.
  array.RunUntil(array.eq().Now() + 20'000'000);
  auto scan = runtime.SubmitSelect(busy_placed, 0, 499'999).ValueOrDie();
  ASSERT_TRUE(array.RunUntilTrue([&] {
    return array.stats().ReadValue("array.runtime.leases") >= 1.0;
  }));
  array.RunUntil(array.eq().Now() + 5'000'000);  // 5 us into lane 0's lease

  const std::string dev1_done = "array.dev1.jobs_completed";
  uint64_t calls = 0;
  double dev1_done_at_fail = -1.0;
  NdpRuntime::BurstSelect b;
  b.col = &placed;
  b.lo = 0;
  b.hi = 499'999;
  b.opts.priority = JobPriority::kInteractive;
  b.opts.deadline_ps = array.eq().Now() + 1'000;
  b.opts.on_done = [&](const JobResult& r) {
    ++calls;
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_GE(r.leases, 1u);
    dev1_done_at_fail = array.stats().ReadValue(dev1_done);
  };
  auto id = runtime.SubmitSelectBurst({b}).ValueOrDie().front();
  ASSERT_TRUE(array.RunUntilTrue([&] { return calls > 0; }));

  EXPECT_TRUE(runtime.WaitFor(id).ok());
  // The sibling lease was still out when the job failed; it comes back now.
  ASSERT_TRUE(array.RunUntilTrue([&] {
    return array.stats().ReadValue(dev1_done) > dev1_done_at_fail ||
           runtime.result(scan) != nullptr;
  }));
  EXPECT_GT(array.stats().ReadValue(dev1_done), dev1_done_at_fail);
  ASSERT_TRUE(runtime.Drain().ok());
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(runtime.result(id), nullptr);
  const JobResult* r = runtime.result(scan);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->matches, Oracle(busy, 0, 499'999));
}

}  // namespace
}  // namespace ndp::core
