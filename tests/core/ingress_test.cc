// Serving-ingress unit tests: config validation, every shed point at the
// door (ring full, slot pool empty, expired, governor), deadline propagation
// through admission and retire, the brownout CPU-fallback route, and the
// registered stats surface the governor itself reads.
#include "core/ingress.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/host_traffic.h"
#include "core/runtime.h"
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

std::vector<TenantSpec> TwoTenants(sim::Tick interactive_deadline_ps = 0,
                                   sim::Tick batch_deadline_ps = 0) {
  TenantSpec interactive;
  interactive.name = "interactive";
  interactive.priority = JobPriority::kInteractive;
  interactive.deadline_ps = interactive_deadline_ps;
  TenantSpec batch;
  batch.name = "batch";
  batch.priority = JobPriority::kBatch;
  batch.deadline_ps = batch_deadline_ps;
  return {interactive, batch};
}

ServingRequest Req(uint32_t tenant, int64_t lo, int64_t hi,
                   sim::Tick deadline_ps = 0) {
  ServingRequest req;
  req.tenant = tenant;
  req.table = 0;
  req.lo = lo;
  req.hi = hi;
  req.deadline_ps = deadline_ps;
  return req;
}

// -- IngressConfig ------------------------------------------------------------

TEST(IngressConfigTest, ValidateRejectsBadShapes) {
  EXPECT_TRUE(IngressConfig{}.Validate().ok());
  IngressConfig cfg;
  cfg.ring_capacity = 100;  // not a power of two
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = IngressConfig{};
  cfg.rings = 8;
  cfg.slots = 4;  // fewer slots than rings
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = IngressConfig{};
  cfg.shed_threshold = 0.9;  // shed above brownout
  cfg.brownout_threshold = 0.8;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = IngressConfig{};
  cfg.governor_hysteresis = cfg.shed_threshold;  // must be strictly below
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = IngressConfig{};
  cfg.governor_alpha = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
}

// -- Door sheds ---------------------------------------------------------------

TEST(ServingIngressTest, ShedsAtRingCapacityAndSlotExhaustion) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(1024);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();

  IngressConfig cfg;
  cfg.rings = 1;
  cfg.ring_capacity = 2;
  cfg.slots = 8;
  ServingIngress ingress(&runtime, &array, cfg, TwoTenants());
  ASSERT_EQ(ingress.AddTable(&col, &placed), 0u);

  // Without pumping, the third request finds the ring full; the refused
  // request must release its slot back to the pool.
  std::vector<ServeOutcome> outcomes;
  auto record = [&outcomes](const ServingResult& r) {
    outcomes.push_back(r.outcome);
  };
  EXPECT_TRUE(ingress.Enqueue(0, Req(0, 0, 10), record));
  EXPECT_TRUE(ingress.Enqueue(0, Req(0, 0, 10), record));
  EXPECT_FALSE(ingress.Enqueue(0, Req(0, 0, 10), record));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], ServeOutcome::kShedRingFull);
  EXPECT_EQ(ingress.slots_in_use(), 2u);
  EXPECT_GT(array.stats().ReadValue("array.ingress.shed_ring_full"), 0.0);

  // Exhaust the pool through a second ring: with 8 slots and 2 held, a
  // too-small pool sheds before the ring does.
  IngressConfig tiny;
  tiny.rings = 1;
  tiny.ring_capacity = 8;
  tiny.slots = 2;
  DimmArray array2(dram::DramTiming::DDR3_1600(), 1, 1, Config());
  NdpRuntime runtime2(&array2, RuntimeConfig{});
  PlacedColumn placed2 = array2.PlaceColumn(col).ValueOrDie();
  ServingIngress ingress2(&runtime2, &array2, tiny, TwoTenants());
  ingress2.AddTable(&col, &placed2);
  outcomes.clear();
  EXPECT_TRUE(ingress2.Enqueue(0, Req(0, 0, 10), record));
  EXPECT_TRUE(ingress2.Enqueue(0, Req(0, 0, 10), record));
  EXPECT_FALSE(ingress2.Enqueue(0, Req(0, 0, 10), record));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], ServeOutcome::kShedSlotsExhausted);
  EXPECT_GT(array2.stats().ReadValue("array.ingress.shed_slots_exhausted"),
            0.0);
}

TEST(ServingIngressTest, ExpiredDeadlineIsRefusedAtTheDoor) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(1024);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  ServingIngress ingress(&runtime, &array, IngressConfig{}, TwoTenants());
  ingress.AddTable(&col, &placed);

  array.eq().RunUntil(1'000'000);  // now = 1 us; deadline below is in the past
  std::vector<ServeOutcome> outcomes;
  EXPECT_FALSE(ingress.Enqueue(0, Req(0, 0, 10, /*deadline_ps=*/500'000),
                               [&outcomes](const ServingResult& r) {
                                 outcomes.push_back(r.outcome);
                               }));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], ServeOutcome::kExpiredAtAdmission);
  EXPECT_EQ(ingress.slots_in_use(), 0u);
  EXPECT_GT(array.stats().ReadValue("array.ingress.expired_at_admission"),
            0.0);
}

// -- The served path ----------------------------------------------------------

TEST(ServingIngressTest, ServesBothPrioritiesAndMatchesOracle) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(8192);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  ServingIngress ingress(&runtime, &array, IngressConfig{}, TwoTenants());
  ingress.AddTable(&col, &placed);

  std::vector<ServingResult> results;
  auto record = [&results](const ServingResult& r) { results.push_back(r); };
  ingress.Start();
  EXPECT_TRUE(ingress.Enqueue(0, Req(0, 100'000, 600'000), record));
  EXPECT_TRUE(ingress.Enqueue(1, Req(1, 0, 300'000), record));
  ingress.Stop();
  ASSERT_TRUE(ingress.Drain().ok());
  ASSERT_TRUE(runtime.Drain().ok());

  ASSERT_EQ(results.size(), 2u);
  for (const ServingResult& r : results) {
    EXPECT_EQ(r.outcome, ServeOutcome::kOk);
    EXPECT_GT(r.completed_ps, r.accepted_ps);
  }
  EXPECT_EQ(results[0].matches, Oracle(col, 100'000, 600'000));
  EXPECT_EQ(results[1].matches, Oracle(col, 0, 300'000));
  // The counter surface the bench and the governor read, by registered name.
  const StatsRegistry& reg = array.stats();
  EXPECT_EQ(reg.ReadValue("array.ingress.accepted"), 2.0);
  EXPECT_GE(reg.ReadValue("array.ingress.bursts"), 1.0);
  EXPECT_EQ(reg.ReadValue("array.ingress.admitted_interactive"), 1.0);
  EXPECT_EQ(reg.ReadValue("array.ingress.admitted_batch"), 1.0);
  EXPECT_EQ(reg.ReadValue("array.ingress.completed_ndp"), 2.0);
  EXPECT_EQ(reg.ReadValue("array.ingress.slots_in_use"), 0.0);
}

TEST(ServingIngressTest, DeadlinePropagatesIntoTheRuntimeAndCancels) {
  // Control run: measure the undisturbed accepted-to-completed latency.
  db::Column col = RandomColumn(8192);
  sim::Tick control_latency = 0;
  {
    DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, Config());
    NdpRuntime runtime(&array, RuntimeConfig{});
    PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
    ServingIngress ingress(&runtime, &array, IngressConfig{}, TwoTenants());
    ingress.AddTable(&col, &placed);
    ServingResult out;
    ingress.Start();
    ingress.Enqueue(0, Req(0, 0, 500'000),
                    [&out](const ServingResult& r) { out = r; });
    ingress.Stop();
    ASSERT_TRUE(ingress.Drain().ok());
    ASSERT_TRUE(runtime.Drain().ok());
    ASSERT_EQ(out.outcome, ServeOutcome::kOk);
    control_latency = out.completed_ps - out.accepted_ps;
    ASSERT_GT(control_latency, 0);
  }

  // Same request with a deadline at half that latency: it survives admission
  // (the pump runs well before the midpoint) but must be cancelled at a chunk
  // boundary instead of completing late.
  DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  ServingIngress ingress(&runtime, &array, IngressConfig{}, TwoTenants());
  ingress.AddTable(&col, &placed);
  ServingResult out;
  ingress.Start();
  ingress.Enqueue(
      0, Req(0, 0, 500'000, array.eq().Now() + control_latency / 2),
      [&out](const ServingResult& r) { out = r; });
  ingress.Stop();
  ASSERT_TRUE(ingress.Drain().ok());
  ASSERT_TRUE(runtime.Drain().ok());
  EXPECT_EQ(out.outcome, ServeOutcome::kDeadlineExceeded);
  EXPECT_GT(array.stats().ReadValue("array.ingress.deadline_exceeded"), 0.0);
  EXPECT_GE(array.stats().ReadValue("array.runtime.deadline_cancellations"),
            1.0);
}

// -- Overload governor --------------------------------------------------------

TEST(ServingIngressTest, GovernorEscalatesShedsBatchAndRoutesToCpu) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(32 * 1024);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();

  IngressConfig cfg;
  cfg.rings = 1;
  cfg.ring_capacity = 8;
  // Four slow jobs put occupancy exactly at the brownout threshold (4/5 =
  // 0.8) while leaving one slot free for the post-brownout arrival below.
  cfg.slots = 5;
  cfg.governor_alpha = 1.0;  // react on the first occupancy sample
  cfg.governor_poll_bus_cycles = 1'600;
  cfg.brownout_ndp_inflight = 1;
  cfg.cpu_scan_bus_cycles_per_row = 1;
  ServingIngress ingress(&runtime, &array, cfg, TwoTenants());
  ingress.AddTable(&col, &placed);

  std::vector<ServeOutcome> outcomes;
  auto record = [&outcomes](const ServingResult& r) {
    outcomes.push_back(r.outcome);
  };
  ingress.Start();
  EXPECT_EQ(ingress.state(), OverloadState::kHealthy);
  // Fill the pool with slow interactive work; the first governor sample sees
  // occupancy 1.0 and jumps straight to brownout.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ingress.Enqueue(0, Req(0, 0, 500'000), record));
  }
  ASSERT_TRUE(array.RunUntilTrue(
      [&ingress] { return ingress.state() == OverloadState::kBrownout; }));
  EXPECT_GE(ingress.occupancy_ewma(), cfg.brownout_threshold);
  EXPECT_GT(array.stats().ReadValue("array.ingress.governor_transitions"),
            0.0);
  EXPECT_GT(array.stats().ReadValue("array.ingress.overload_state"), 0.0);
  EXPECT_GT(array.stats().ReadValue("array.ingress.occupancy_ewma"), 0.0);

  // Under brownout a batch tenant is refused at the door...
  size_t before = outcomes.size();
  EXPECT_FALSE(ingress.Enqueue(0, Req(1, 0, 500'000), record));
  ASSERT_EQ(outcomes.size(), before + 1);
  EXPECT_EQ(outcomes.back(), ServeOutcome::kShedLowPriority);
  EXPECT_GT(array.stats().ReadValue("array.ingress.shed_low_priority"), 0.0);

  // ...while interactive overflow past the NDP bound routes to the
  // bit-identical CPU fallback.
  ASSERT_TRUE(ingress.Enqueue(0, Req(0, 0, 500'000), record));
  ingress.Stop();
  ASSERT_TRUE(ingress.Drain().ok());
  ASSERT_TRUE(runtime.Drain().ok());
  EXPECT_GT(array.stats().ReadValue("array.ingress.completed_cpu"), 0.0);
  uint64_t served = 0;
  for (ServeOutcome o : outcomes) served += IsGoodput(o);
  EXPECT_EQ(served, 5u);
}

TEST(ServingIngressTest, RetryTokensRefillTowardCapacity) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  IngressConfig cfg;
  cfg.retry_tokens = 4.0;
  cfg.retry_refill_per_ms = 2.0;
  ServingIngress ingress(&runtime, &array, cfg, TwoTenants());
  // The bucket starts full and refill never overshoots the cap.
  EXPECT_DOUBLE_EQ(ingress.retry_tokens(0), 4.0);
  array.eq().RunUntil(10'000'000'000);  // 10 simulated ms
  EXPECT_DOUBLE_EQ(ingress.retry_tokens(0), 4.0);
}

}  // namespace
}  // namespace ndp::core
