// Ingress x fault-injection composition: a device that hangs under load must
// make its tenant SHED, not spin — the retry budget caps amplification, the
// CPU fallback absorbs what one token buys, and the whole faulted run stays
// a pure function of the seed (byte-identical digests).
#include <gtest/gtest.h>

#include <vector>

#include "core/host_traffic.h"
#include "core/ingress.h"
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

/// Single-attempt driver retry plus a short watchdog: the first lease on a
/// doomed lane becomes a fast permanent failure, so these tests measure the
/// ingress retry budget, not the watchdog.
RuntimeConfig DoomedLaneConfig() {
  RuntimeConfig cfg;
  cfg.driver.retry.max_attempts = 1;
  cfg.driver.watchdog_base_ps = 5'000'000;  // 5 us
  return cfg;
}

TEST(IngressFaultsTest, RetryBudgetExhaustionShedsInsteadOfSpinning) {
  // One lane, doomed: every NDP attempt fails. With a 1-token bucket and no
  // refill, exactly one request can buy a retry (which lands on the CPU
  // fallback once the lane is declared dead); the rest must shed.
  DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, Config());
  fault::FaultPlan plan;
  plan.hang_per_job = 1.0;
  StatsScope fault_scope(array.mutable_stats(), "fault");
  fault::FaultInjector injector(plan, fault_scope);
  array.device(0).set_fault_injector(&injector);

  NdpRuntime runtime(&array, DoomedLaneConfig());
  db::Column col = RandomColumn(8'192, 91);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();

  IngressConfig cfg;
  cfg.retry_tokens = 1.0;
  cfg.retry_refill_per_ms = 0.0;
  cfg.governor_enabled = false;
  cfg.cpu_scan_bus_cycles_per_row = 1;
  TenantSpec tenant;
  tenant.name = "interactive";
  tenant.priority = JobPriority::kInteractive;
  tenant.deadline_ps = 0;  // no deadline: the budget, not the clock, decides
  ServingIngress ingress(&runtime, &array, cfg, {tenant});
  ingress.AddTable(&col, &placed);

  std::vector<ServingResult> results;
  ServingRequest req;
  req.lo = 100'000;
  req.hi = 400'000;
  ingress.Start();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ingress.Enqueue(0, req, [&results](const ServingResult& r) {
      results.push_back(r);
    }));
  }
  ingress.Stop();
  // The drain terminating at all is the spin check: an unbudgeted retry loop
  // against a dead lane would never quiesce.
  ASSERT_TRUE(ingress.Drain().ok());
  ASSERT_TRUE(runtime.Drain().ok());

  ASSERT_EQ(results.size(), 3u);
  uint64_t served_cpu = 0, shed_budget = 0;
  for (const ServingResult& r : results) {
    if (r.outcome == ServeOutcome::kOkCpuFallback) {
      ++served_cpu;
      EXPECT_EQ(r.matches, Oracle(col, 100'000, 400'000));
    } else {
      EXPECT_EQ(r.outcome, ServeOutcome::kShedRetryBudget);
      ++shed_budget;
    }
  }
  EXPECT_EQ(served_cpu, 1u);
  EXPECT_EQ(shed_budget, 2u);
  EXPECT_EQ(array.stats().ReadValue("array.ingress.retries"), 1.0);
  EXPECT_EQ(array.stats().ReadValue("array.ingress.shed_retry_budget"), 2.0);
  EXPECT_EQ(runtime.lanes_alive(), 0u);
}

uint64_t FaultedRunDigests(uint64_t seed, uint64_t* outcome_digest,
                           uint64_t* goodput) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  fault::FaultPlan plan;
  plan.hang_per_job = 1.0;
  StatsScope fault_scope(array.mutable_stats(), "fault");
  fault::FaultInjector injector(plan, fault_scope);
  array.device(0).set_fault_injector(&injector);  // device 1 stays healthy

  NdpRuntime runtime(&array, DoomedLaneConfig());
  db::Column col = RandomColumn(8'192, 92);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  ServingIngress ingress(&runtime, &array, IngressConfig{}, [] {
    TenantSpec t;
    t.name = "interactive";
    t.priority = JobPriority::kInteractive;
    t.deadline_ps = 0;
    return std::vector<TenantSpec>{t};
  }());
  ingress.AddTable(&col, &placed);

  FleetConfig fcfg;
  fcfg.reqs_per_us = 0.02;
  fcfg.seed = seed;
  ClientFleet fleet(&array.eq(), &ingress, fcfg);
  ingress.Start();
  fleet.Start();
  array.eq().RunUntil(array.eq().Now() + 300'000'000);  // 300 us
  fleet.Stop();
  ingress.Stop();
  NDP_CHECK(ingress.Drain().ok());
  NDP_CHECK(runtime.Drain().ok());
  *outcome_digest = fleet.outcome_digest();
  *goodput = fleet.goodput();
  return fleet.issue_digest();
}

TEST(IngressFaultsTest, FaultedServingIsAPureFunctionOfTheSeed) {
  uint64_t out_a = 0, out_b = 0, good_a = 0, good_b = 0;
  uint64_t issue_a = FaultedRunDigests(42, &out_a, &good_a);
  uint64_t issue_b = FaultedRunDigests(42, &out_b, &good_b);
  // Same seed, same doomed lane: the entire serving history — every arrival
  // and every terminal outcome, recovery included — replays identically.
  EXPECT_EQ(issue_a, issue_b);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(good_a, good_b);
  // The surviving lane (plus budgeted recovery) kept serving.
  EXPECT_GT(good_a, 0u);
}

}  // namespace
}  // namespace ndp::core
