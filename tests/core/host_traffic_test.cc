// ClientFleet tests: seeded-stream reproducibility (the digests), deadline
// propagation vs the naive control mode, open-loop weight splitting and
// per-request accounting, and oracle mismatch detection.
#include "core/host_traffic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/ingress.h"
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

jafar::DeviceConfig Config() {
  return jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                     accel::DatapathResources{})
      .ValueOrDie();
}

/// One serving stack (array + runtime + ingress + fleet) driven for
/// `window_ps`, returning the fleet for inspection via the runner.
struct Stack {
  explicit Stack(const db::Column& col, FleetConfig fcfg,
                 std::vector<TenantSpec> tenants,
                 IngressConfig icfg = IngressConfig{})
      : array(dram::DramTiming::DDR3_1600(), 2, 1, Config()),
        runtime(&array, RuntimeConfig{}),
        placed(array.PlaceColumn(col).ValueOrDie()),
        ingress(&runtime, &array, icfg, std::move(tenants)),
        fleet(&array.eq(), &ingress, fcfg,
              StatsScope(array.mutable_stats(), "fleet")) {
    ingress.AddTable(&col, &placed);
  }

  void Run(sim::Tick window_ps) {
    ingress.Start();
    fleet.Start();
    array.eq().RunUntil(array.eq().Now() + window_ps);
    fleet.Stop();
    ingress.Stop();
    ASSERT_TRUE(ingress.Drain().ok());
    ASSERT_TRUE(runtime.Drain().ok());
  }

  DimmArray array;
  NdpRuntime runtime;
  PlacedColumn placed;
  ServingIngress ingress;
  ClientFleet fleet;
};

std::vector<TenantSpec> OneOpenTenant(sim::Tick deadline_ps) {
  TenantSpec t;
  t.name = "interactive";
  t.priority = JobPriority::kInteractive;
  t.deadline_ps = deadline_ps;
  return {t};
}

TEST(ClientFleetTest, SameSeedSameDigestsDifferentSeedDiffers) {
  db::Column col = RandomColumn(4096);
  FleetConfig fcfg;
  fcfg.reqs_per_us = 0.05;
  fcfg.seed = 7;
  uint64_t issue[3], outcome[3];
  for (int run = 0; run < 3; ++run) {
    fcfg.seed = run < 2 ? 7 : 8;
    Stack s(col, fcfg, OneOpenTenant(500'000'000));
    s.Run(200'000'000);  // 200 us
    ASSERT_GT(s.fleet.issued(), 0u);
    issue[run] = s.fleet.issue_digest();
    outcome[run] = s.fleet.outcome_digest();
  }
  // The issued stream and the terminal outcomes are pure functions of the
  // seed: equal seeds agree byte for byte, a different seed diverges.
  EXPECT_EQ(issue[0], issue[1]);
  EXPECT_EQ(outcome[0], outcome[1]);
  EXPECT_NE(issue[0], issue[2]);
}

TEST(ClientFleetTest, DeadlinePropagationOnCancelsOffCompletesLate) {
  db::Column col = RandomColumn(4096);
  FleetConfig fcfg;
  fcfg.reqs_per_us = 0.02;
  fcfg.seed = 11;
  // An impossible 1 ns SLO: with propagation ON nothing survives admission;
  // with it OFF (the naive control) the ingress happily completes everything
  // — and the fleet's client-side judgment still refuses to call it goodput.
  const sim::Tick slo_ps = 1'000;

  fcfg.propagate_deadlines = true;
  {
    Stack s(col, fcfg, OneOpenTenant(slo_ps));
    s.Run(200'000'000);
    const ClientFleet::TenantStats& ts = s.fleet.tenant_stats(0);
    ASSERT_GT(ts.issued, 0u);
    EXPECT_EQ(ts.goodput, 0u);
    EXPECT_EQ(ts.late, ts.issued);
    EXPECT_EQ(s.array.stats().ReadValue("array.ingress.completed_ndp"), 0.0);
    EXPECT_GT(s.array.stats().ReadValue("array.ingress.expired_at_admission"),
              0.0);
    EXPECT_EQ(s.array.stats().ReadValue("fleet.tenant0.goodput"), 0.0);
    EXPECT_EQ(s.array.stats().ReadValue("fleet.tenant0.late"),
              static_cast<double>(ts.late));
  }

  fcfg.propagate_deadlines = false;
  {
    Stack s(col, fcfg, OneOpenTenant(slo_ps));
    s.Run(200'000'000);
    const ClientFleet::TenantStats& ts = s.fleet.tenant_stats(0);
    ASSERT_GT(ts.issued, 0u);
    // The work was done — just uselessly late.
    EXPECT_GT(s.array.stats().ReadValue("array.ingress.completed_ndp"), 0.0);
    EXPECT_EQ(ts.goodput, 0u);
    EXPECT_GT(ts.late, 0u);
  }
}

TEST(ClientFleetTest, OpenLoopWeightSplitsArrivals) {
  db::Column col = RandomColumn(4096);
  TenantSpec heavy;
  heavy.name = "heavy";
  heavy.priority = JobPriority::kInteractive;
  heavy.weight = 3.0;
  heavy.deadline_ps = 0;
  TenantSpec light = heavy;
  light.name = "light";
  light.weight = 1.0;
  FleetConfig fcfg;
  fcfg.reqs_per_us = 0.2;
  fcfg.seed = 13;
  Stack s(col, fcfg, {heavy, light});
  s.Run(500'000'000);  // ~100 arrivals
  uint64_t h = s.fleet.tenant_stats(0).issued;
  uint64_t l = s.fleet.tenant_stats(1).issued;
  ASSERT_GT(l, 0u);
  // 3:1 expected split; Poisson noise leaves plenty of room around 2:1.
  EXPECT_GT(h, 2 * l);
  // After the drain every issued request has exactly one terminal outcome.
  for (uint32_t t = 0; t < 2; ++t) {
    const ClientFleet::TenantStats& ts = s.fleet.tenant_stats(t);
    EXPECT_EQ(ts.issued, ts.goodput + ts.shed + ts.late + ts.failed) << t;
  }
}

TEST(ClientFleetTest, OracleDisagreementCountsMismatches) {
  db::Column col = RandomColumn(4096);
  FleetConfig fcfg;
  fcfg.reqs_per_us = 0.02;
  fcfg.seed = 19;
  Stack s(col, fcfg, OneOpenTenant(0));
  // A deliberately wrong oracle: every completion must be flagged.
  s.fleet.set_oracle([](const ServingRequest&) { return ~uint64_t{0}; });
  s.Run(200'000'000);
  ASSERT_GT(s.fleet.goodput(), 0u);
  EXPECT_EQ(s.fleet.mismatches(), s.fleet.goodput());
  EXPECT_EQ(s.array.stats().ReadValue("fleet.tenant0.mismatches"),
            static_cast<double>(s.fleet.mismatches()));
  EXPECT_EQ(s.array.stats().ReadValue("fleet.tenant0.issued"),
            static_cast<double>(s.fleet.issued()));
}

}  // namespace
}  // namespace ndp::core
