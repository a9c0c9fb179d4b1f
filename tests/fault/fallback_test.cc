// Graceful-degradation tests: a faulted JAFAR must never produce a wrong
// query answer — failed pushdowns transparently re-execute on the CPU scalar
// path (bit-identical to a CPU-only run and to the zone-map path), repeated
// failures open the circuit breaker, and partial device results can never
// double-count rows.
#include <gtest/gtest.h>

#include <string>

#include "core/pushdown.h"
#include "core/system.h"
#include "util/rng.h"

namespace ndp::core {
namespace {

/// StatsSnapshot::ToText pads the path to a fixed column, so a substring
/// match on "path value" never hits; find the line and compare its value.
bool DumpHas(const std::string& dump, const std::string& path, long long v) {
  size_t pos = dump.find(path + " ");
  if (pos == std::string::npos) return false;
  size_t eol = dump.find('\n', pos);
  std::string line = dump.substr(pos, eol - pos);
  return std::stoll(line.substr(line.find_last_of(' ') + 1)) == v;
}

db::Column MakeColumn(uint64_t rows, uint64_t seed) {
  db::Column col = db::Column::Int64("col");
  col.Reserve(rows);
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) col.Append(rng.NextInRange(0, 999));
  return col;
}

TEST(PushdownHygieneTest, AcceptsStrictlyIncreasingInRange) {
  EXPECT_TRUE(ValidatePushdownResult({}, 10).ok());
  EXPECT_TRUE(ValidatePushdownResult({0, 1, 5, 9}, 10).ok());
}

TEST(PushdownHygieneTest, RejectsDuplicatesOutOfOrderAndOutOfRange) {
  // A duplicated position is exactly the double-count a leaked partial
  // device result would produce.
  EXPECT_EQ(ValidatePushdownResult({3, 3}, 10).code(), StatusCode::kInternal);
  EXPECT_EQ(ValidatePushdownResult({5, 2}, 10).code(), StatusCode::kInternal);
  EXPECT_EQ(ValidatePushdownResult({2, 10}, 10).code(),
            StatusCode::kInternal);
}

TEST(FallbackTest, PermanentDeviceFailureFallsBackBitIdentically) {
  db::Column col = MakeColumn(2048, 41);
  db::Pred pred = db::Pred::Between(100, 499);

  // CPU-only oracle.
  db::QueryContext plain;
  db::PositionList expected = db::ScanSelect(&plain, col, pred);

  PlatformConfig config = PlatformConfig::Gem5();
  config.fault_plan.seed = 51;
  config.fault_plan.hang_per_job = 1.0;  // every dispatch wedges
  config.driver.retry.max_attempts = 2;
  SystemModel sys(config);
  db::QueryContext ctx;
  ctx.ndp_select = sys.MakePushdownHook();

  db::PositionList got = db::ScanSelect(&ctx, col, pred);
  EXPECT_EQ(got, expected);
  // The operator layer recorded the degradation, not a plain CPU scan.
  ASSERT_EQ(ctx.stats.size(), 1u);
  EXPECT_EQ(ctx.stats[0].op, "scan_select[cpu_fallback]");
  EXPECT_EQ(ctx.stats[0].rows_out, expected.size());

  const jafar::DriverStats& ds = sys.driver().stats();
  EXPECT_GT(ds.watchdog_fires, 0u);
  EXPECT_EQ(ds.permanent_failures, 1u);
  std::string dump = sys.DumpStats();
  EXPECT_TRUE(DumpHas(dump, "system.core.pushdown_fallbacks", 1)) << dump;
  EXPECT_NE(dump.find("system.jafar.watchdog_fires"), std::string::npos);
  EXPECT_NE(dump.find("system.fault.hangs_injected"), std::string::npos);
}

TEST(FallbackTest, RepeatedFailuresOpenTheCircuitBreaker) {
  db::Column col = MakeColumn(2048, 42);
  db::Pred pred = db::Pred::Between(0, 499);
  db::QueryContext plain;
  db::PositionList expected = db::ScanSelect(&plain, col, pred);

  PlatformConfig config = PlatformConfig::Gem5();
  config.fault_plan.seed = 52;
  config.fault_plan.hang_per_job = 1.0;
  config.driver.retry.max_attempts = 1;
  SystemModel sys(config);
  db::QueryContext ctx;
  ctx.ndp_select = sys.MakePushdownHook();

  EXPECT_FALSE(sys.degraded_mode());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(db::ScanSelect(&ctx, col, pred), expected) << "select " << i;
  }
  // Three consecutive device failures: breaker open.
  EXPECT_TRUE(sys.degraded_mode());
  sim::Tick wedged_at = sys.eq().Now();

  // While degraded, selects are still answered (CPU path) but most calls
  // decline without touching the device at all.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(db::ScanSelect(&ctx, col, pred), expected);
  }
  EXPECT_TRUE(sys.degraded_mode());
  EXPECT_EQ(sys.eq().Now(), wedged_at);  // non-probe declines cost no sim time
  std::string dump = sys.DumpStats();
  EXPECT_TRUE(DumpHas(dump, "system.core.degraded_mode", 1)) << dump;
  EXPECT_NE(dump.find("system.core.pushdown_probes"), std::string::npos);
}

TEST(FallbackTest, MidScanFailureAgreesWithPlainScanNoDoubleCounting) {
  // A multi-page select where some pages succeed before one fails past its
  // retry budget: the accumulated partial matches must be discarded, and the
  // CPU fallback must agree exactly with a hook-less scan of the same
  // predicate (the partial-result double-count would show up here).
  db::Column col = MakeColumn(8192, 43);
  db::Pred pred = db::Pred::Between(100, 499);
  db::QueryContext plain;
  db::PositionList expected = db::ScanSelect(&plain, col, pred);

  PlatformConfig config = PlatformConfig::Gem5();
  // Seed chosen so the device stream's first hang lands on the fifth page
  // dispatch: four pages complete, then the budget-of-one attempt fails.
  config.fault_plan.seed = 57;
  config.fault_plan.hang_per_job = 0.25;
  config.driver.retry.max_attempts = 1;  // any hang is a permanent failure
  SystemModel sys(config);
  db::QueryContext ctx;
  ctx.ndp_select = sys.MakePushdownHook();

  db::PositionList got = db::ScanSelect(&ctx, col, pred);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(ctx.stats.back().rows_out, expected.size());

  // The failure really was mid-scan: some pages completed before the fatal
  // one (partial accumulation happened and was then discarded).
  EXPECT_EQ(ctx.stats.back().op, "scan_select[cpu_fallback]");
  EXPECT_GT(sys.jafar().stats().jobs_completed, 0u);
  EXPECT_GE(sys.driver().stats().permanent_failures, 1u);
}

TEST(FallbackTest, RecoveredFaultsKeepPushdownOnDevice) {
  // Faults inside the retry budget are invisible to the operator layer: the
  // select still reports scan_select[jafar] and matches the oracle.
  db::Column col = MakeColumn(4096, 44);
  db::Pred pred = db::Pred::Between(100, 499);
  db::QueryContext plain;
  db::PositionList expected = db::ScanSelect(&plain, col, pred);

  PlatformConfig config = PlatformConfig::Gem5();
  config.fault_plan.seed = 54;
  config.fault_plan.hang_per_job = 0.3;
  SystemModel sys(config);
  db::QueryContext ctx;
  ctx.ndp_select = sys.MakePushdownHook();

  EXPECT_EQ(db::ScanSelect(&ctx, col, pred), expected);
  EXPECT_EQ(ctx.stats.back().op, "scan_select[jafar]");
  EXPECT_FALSE(sys.degraded_mode());
  EXPECT_GT(sys.driver().stats().retries, 0u);
  EXPECT_EQ(sys.driver().stats().permanent_failures, 0u);
}

}  // namespace
}  // namespace ndp::core
