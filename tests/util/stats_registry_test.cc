#include "util/stats_registry.h"

#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "util/stats.h"

namespace ndp {
namespace {

TEST(StatsRegistryTest, CounterReadsThroughPointer) {
  StatsRegistry reg;
  uint64_t cell = 0;
  ASSERT_TRUE(reg.RegisterCounter("a.b.c", &cell).ok());
  EXPECT_EQ(reg.Snapshot().Count("a.b.c"), 0u);
  cell = 41;
  ++cell;
  EXPECT_EQ(reg.Snapshot().Count("a.b.c"), 42u);
}

TEST(StatsRegistryTest, RejectsDuplicatePaths) {
  StatsRegistry reg;
  uint64_t a = 0, b = 0;
  // ndp-lint: stats-dead-ok throwaway path probing duplicate rejection
  ASSERT_TRUE(reg.RegisterCounter("dup", &a).ok());
  // ndp-lint: stats-dead-ok throwaway path probing duplicate rejection
  Status again = reg.RegisterCounter("dup", &b);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  // Across kinds too: the path namespace is global.
  // ndp-lint: stats-dead-ok throwaway path probing duplicate rejection
  EXPECT_EQ(reg.RegisterGauge("dup", &b).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(StatsRegistryTest, RejectsEmptyPath) {
  StatsRegistry reg;
  uint64_t cell = 0;
  // ndp-lint: stats-path-ok (negative test: the empty path must be rejected)
  EXPECT_EQ(reg.RegisterCounter("", &cell).code(),
            StatusCode::kInvalidArgument);
}

TEST(StatsRegistryTest, FnBackedCounterIsEvaluatedAtSnapshotTime) {
  StatsRegistry reg;
  uint64_t now = 100;
  ASSERT_TRUE(
      reg.RegisterCounter("ticks", std::function<uint64_t()>([&] { return now; }))
          .ok());
  EXPECT_EQ(reg.Snapshot().Count("ticks"), 100u);
  now = 250;
  EXPECT_EQ(reg.Snapshot().Count("ticks"), 250u);
}

TEST(StatsRegistryTest, SnapshotDeltaSubtractsCountersKeepsGauges) {
  StatsRegistry reg;
  uint64_t counter = 10;
  uint64_t gauge = 7;
  double energy = 1.5;
  ASSERT_TRUE(reg.RegisterCounter("c", &counter).ok());
  ASSERT_TRUE(reg.RegisterGauge("g", &gauge).ok());
  ASSERT_TRUE(reg.RegisterCounter("e", &energy).ok());

  StatsSnapshot before = reg.Snapshot();
  counter = 25;
  gauge = 3;  // gauges can go down (it's a level, not an accumulator)
  energy = 4.0;
  StatsSnapshot delta = reg.Snapshot().DeltaSince(before);

  EXPECT_EQ(delta.Count("c"), 15u);
  EXPECT_EQ(delta.Count("g"), 3u);  // after-value, not 3 - 7
  EXPECT_DOUBLE_EQ(delta.Value("e"), 2.5);
}

TEST(StatsRegistryTest, DeltaTreatsMissingBeforeEntryAsZero) {
  StatsSnapshot before;  // empty
  StatsRegistry reg;
  uint64_t c = 9;
  ASSERT_TRUE(reg.RegisterCounter("fresh", &c).ok());
  StatsSnapshot delta = reg.Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.Count("fresh"), 9u);
}

TEST(StatsRegistryTest, HistogramExpandsToPercentilesAndWindowedSums) {
  StatsRegistry reg;
  Histogram hist(0, 100, 100);
  ASSERT_TRUE(reg.RegisterHistogram("h", &hist).ok());
  for (int i = 1; i <= 100; ++i) hist.Add(i - 0.5);

  StatsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Count("h.count"), 100u);
  EXPECT_DOUBLE_EQ(snap.Value("h.sum"), 5000.0);
  EXPECT_DOUBLE_EQ(snap.Value("h.mean"), 50.0);
  EXPECT_NEAR(snap.Value("h.p50"), 50.0, 1.5);
  EXPECT_NEAR(snap.Value("h.p90"), 90.0, 1.5);
  EXPECT_NEAR(snap.Value("h.p99"), 99.0, 1.5);

  // .count/.sum are monotonic (windowable); percentiles are gauges.
  StatsSnapshot before = snap;
  hist.Add(1000.5);  // overflow bucket still counts toward sum/count
  StatsSnapshot delta = reg.Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.Count("h.count"), 1u);
  EXPECT_DOUBLE_EQ(delta.Value("h.sum"), 1000.5);
}

TEST(StatsRegistryTest, ReadValueResolvesScalarsAndHistogramSubpaths) {
  StatsRegistry reg;
  uint64_t counter = 7;
  double gauge = 2.5;
  uint64_t fn_val = 11;
  Histogram hist(0.0, 100.0, 10);
  ASSERT_TRUE(reg.RegisterCounter("c", &counter).ok());
  ASSERT_TRUE(
      reg.RegisterGauge("g", std::function<double()>([&] { return gauge; }))
          .ok());
  ASSERT_TRUE(
      reg.RegisterCounter("f", std::function<uint64_t()>([&] { return fn_val; }))
          .ok());
  ASSERT_TRUE(reg.RegisterHistogram("h", &hist).ok());
  for (int i = 0; i < 100; ++i) hist.Add(static_cast<double>(i));

  EXPECT_DOUBLE_EQ(reg.ReadValue("c"), 7.0);
  counter = 8;
  EXPECT_DOUBLE_EQ(reg.ReadValue("c"), 8.0);  // live, not a snapshot
  EXPECT_DOUBLE_EQ(reg.ReadValue("g"), 2.5);
  EXPECT_DOUBLE_EQ(reg.ReadValue("f"), 11.0);
  EXPECT_DOUBLE_EQ(reg.ReadValue("h.count"), 100.0);
  EXPECT_DOUBLE_EQ(reg.ReadValue("h.sum"), 4950.0);
  EXPECT_DOUBLE_EQ(reg.ReadValue("h.mean"), 49.5);
  EXPECT_GT(reg.ReadValue("h.p99"), reg.ReadValue("h.p50"));
  // Unknown paths and a bare histogram path fall back.
  EXPECT_DOUBLE_EQ(reg.ReadValue("nope", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(reg.ReadValue("h", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(reg.ReadValue("h.p33", -1.0), -1.0);
}

TEST(StatsScopeTest, InertScopeIsSafeAndRegistersNothing) {
  StatsScope scope;  // default-constructed: no registry attached
  uint64_t cell = 0;
  scope.Counter("x", &cell);  // must not crash
  EXPECT_FALSE(scope.active());
  EXPECT_FALSE(scope.Sub("child").active());
}

TEST(StatsScopeTest, SubBuildsDottedPaths) {
  StatsRegistry reg;
  StatsScope root(&reg, "system");
  StatsScope ctrl = root.Sub("dram").Sub("ctrl0");
  EXPECT_EQ(ctrl.prefix(), "system.dram.ctrl0");
  uint64_t cell = 3;
  ctrl.Counter("reads", &cell);
  EXPECT_TRUE(reg.Contains("system.dram.ctrl0.reads"));
  EXPECT_EQ(reg.Snapshot().Count("system.dram.ctrl0.reads"), 3u);
}

TEST(StatsSnapshotTest, TextDumpIsSortedAndDeterministic) {
  StatsRegistry reg;
  uint64_t z = 1, a = 2;
  ASSERT_TRUE(reg.RegisterCounter("zebra", &z).ok());
  ASSERT_TRUE(reg.RegisterCounter("alpha", &a).ok());
  std::string text = reg.DumpText();
  EXPECT_LT(text.find("alpha"), text.find("zebra"));
  EXPECT_EQ(text, reg.DumpText());
}

TEST(StatsSnapshotTest, JsonDumpRoundTrips) {
  StatsRegistry reg;
  uint64_t c = 12345;
  double e = 0.125;
  ASSERT_TRUE(reg.RegisterCounter("sys.count", &c).ok());
  ASSERT_TRUE(reg.RegisterCounter("sys.energy", &e).ok());
  std::string text = reg.DumpJson().Dump();
  auto parsed = json::Value::Parse(text);
  ASSERT_TRUE(parsed.ok());
  const json::Value* count = parsed.value().Find("sys.count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->AsNumber(), 12345.0);
  const json::Value* energy = parsed.value().Find("sys.energy");
  ASSERT_NE(energy, nullptr);
  EXPECT_DOUBLE_EQ(energy->AsNumber(), 0.125);
}

}  // namespace
}  // namespace ndp
