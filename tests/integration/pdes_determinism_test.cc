// Parallel-in-time determinism and equivalence tests.
//
//   * Oracle equivalence: a partitioned DimmArray (per-channel wheels +
//     conservative epoch barriers) must produce the same functional answers
//     (matches, bitmaps, aggregates) as the single-wheel oracle mode.
//   * Run-to-run determinism: two runs on freshly built systems must give
//     byte-identical full stats dumps (including sim.part<k>.* counters and
//     final simulated time) — on the Figure 3 pipeline, on an
//     abl_runtime-style multi-query run under host traffic, and on a faulted
//     run with recovery in the loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bench/bench_util.h"
#include "core/api.h"
#include "core/host_traffic.h"
#include "core/runtime.h"
#include "fault/injector.h"
#include "util/rng.h"

namespace ndp {
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

core::DimmArray MakeArray(uint32_t channels, bool partitioned) {
  return core::DimmArray(dram::DramTiming::DDR3_1600(), channels,
                         /*ranks_per_channel=*/1, Config(),
                         /*rows_per_bank=*/8192, partitioned);
}

// -- Oracle equivalence -------------------------------------------------------

TEST(PdesEquivalenceTest, ParallelSelectMatchesSingleWheelOracle) {
  db::Column col = RandomColumn(80'000, 17);
  uint64_t oracle = Oracle(col, 100'000, 700'000);
  auto run = [&](bool partitioned) {
    core::DimmArray array = MakeArray(4, partitioned);
    array.AcquireAllOwnership();
    core::PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
    return array.RunParallelSelect(placed, 100'000, 700'000).ValueOrDie();
  };
  core::DimmArray::ParallelResult wheel = run(false);
  core::DimmArray::ParallelResult pdes = run(true);
  EXPECT_EQ(wheel.matches, oracle);
  EXPECT_EQ(pdes.matches, oracle);
  ASSERT_EQ(wheel.bitmap.size(), pdes.bitmap.size());
  for (uint64_t w = 0; w < (col.size() + 63) / 64; ++w) {
    ASSERT_EQ(wheel.bitmap.Word(w), pdes.bitmap.Word(w)) << "word " << w;
  }
}

TEST(PdesEquivalenceTest, RuntimeJobsMatchSingleWheelOracle) {
  db::Column col = RandomColumn(60'000, 23);
  uint64_t oracle = Oracle(col, 0, 450'000);
  auto run = [&](bool partitioned) {
    core::DimmArray array = MakeArray(2, partitioned);
    core::NdpRuntime runtime(&array, core::RuntimeConfig{});
    core::PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
    auto sel = runtime.SubmitSelect(placed, 0, 450'000).ValueOrDie();
    auto agg =
        runtime.SubmitAggregate(placed, jafar::AggKind::kSum).ValueOrDie();
    EXPECT_TRUE(runtime.WaitFor(sel).ok());
    EXPECT_TRUE(runtime.WaitFor(agg).ok());
    return std::make_pair(runtime.result(sel)->matches,
                          runtime.result(agg)->agg_value);
  };
  auto [wheel_matches, wheel_sum] = run(false);
  auto [pdes_matches, pdes_sum] = run(true);
  EXPECT_EQ(wheel_matches, oracle);
  EXPECT_EQ(pdes_matches, oracle);
  EXPECT_EQ(wheel_sum, pdes_sum);
}

// -- Run-to-run determinism ---------------------------------------------------

/// Figure 3 pipeline (SystemModel, single global wheel).
std::string RunFig3Pipeline() {
  db::Column col = bench::UniformColumn(32 * 1024);
  core::SystemModel sys(core::PlatformConfig::Gem5());
  auto cpu = sys.RunCpuSelect(col, 0, 499999, db::SelectMode::kBranching)
                 .ValueOrDie();
  auto jaf = sys.RunJafarSelect(col, 0, 499999).ValueOrDie();
  return std::to_string(cpu.duration_ps) + "/" +
         std::to_string(jaf.duration_ps) + "/" + std::to_string(jaf.matches) +
         "\n" + sys.DumpStats();
}

/// abl_runtime-style partitioned run: a 4-channel array, concurrent select +
/// aggregate jobs, host traffic on channel 0. Returns the full registry dump
/// (which includes sim.epochs and every sim.part<k>.* counter) plus the
/// final simulated time.
std::string RunPartitionedRuntimeWorkload() {
  core::DimmArray array = MakeArray(4, /*partitioned=*/true);
  core::NdpRuntime runtime(&array, core::RuntimeConfig{});
  db::Column col = RandomColumn(64'000, 31);
  core::PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  uint64_t region = array.AllocOnDevice(0, 1u << 18).ValueOrDie();
  core::HostTrafficConfig tc;
  tc.reqs_per_us = 40.0;
  tc.seed = 9;
  // The generator's arrival process lives on channel 0's wheel, next to the
  // controller it drives.
  core::HostTrafficGen traffic(&array.partitions()->queue(0),
                               &array.dram().controller(0), tc);
  traffic.AddRegion(region, 1u << 18);
  traffic.Start();
  auto s1 = runtime.SubmitSelect(placed, 0, 333'333).ValueOrDie();
  auto s2 =
      runtime.SubmitAggregate(placed, jafar::AggKind::kMax).ValueOrDie();
  EXPECT_TRUE(runtime.WaitFor(s1).ok());
  EXPECT_TRUE(runtime.WaitFor(s2).ok());
  traffic.Stop();
  EXPECT_EQ(runtime.result(s1)->matches, Oracle(col, 0, 333'333));
  return array.stats().Snapshot().ToText() + "\nnow=" +
         std::to_string(array.eq().Now());
}

TEST(PdesDeterminismTest, Fig3DumpIsByteIdenticalAcrossRuns) {
  std::string first = RunFig3Pipeline();
  EXPECT_EQ(RunFig3Pipeline(), first);
}

TEST(PdesDeterminismTest, PartitionedRuntimeDumpIsByteIdentical) {
  std::string first = RunPartitionedRuntimeWorkload();
  EXPECT_NE(first.find("sim.epochs"), std::string::npos);
  EXPECT_NE(first.find("sim.part0.events"), std::string::npos);
  EXPECT_NE(first.find("sim.part4.events"), std::string::npos);
  EXPECT_EQ(RunPartitionedRuntimeWorkload(), first);
}

/// Faulted partitioned run: one device (on channel 1) draws hangs, stalls,
/// corruptions, and ECC flips from a seeded injector; the driver's recovery
/// machinery (watchdog, retries, writeback checksums) is in the loop. One
/// injector on one device keeps every fault draw on a single partition, so
/// the draw sequence is a pure function of that partition's schedule.
std::string RunFaultedPartitionedWorkload() {
  core::DimmArray array = MakeArray(4, /*partitioned=*/true);
  fault::FaultPlan plan;
  plan.seed = 1001;
  plan.hang_per_job = 0.1;
  plan.stall_per_burst = 0.002;
  plan.corrupt_per_flush = 0.1;
  plan.ecc_ce_per_burst = 0.01;
  StatsScope fault_scope(array.mutable_stats(), "fault");
  fault::FaultInjector injector(plan, fault_scope);
  array.device(1).set_fault_injector(&injector);

  core::NdpRuntime runtime(&array, core::RuntimeConfig{});
  db::Column col = RandomColumn(48'000, 37);
  core::PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  auto id = runtime.SubmitSelect(placed, 0, 500'000).ValueOrDie();
  EXPECT_TRUE(runtime.WaitFor(id).ok());
  EXPECT_EQ(runtime.result(id)->matches, Oracle(col, 0, 500'000));
  return array.stats().Snapshot().ToText() + "\nnow=" +
         std::to_string(array.eq().Now());
}

TEST(PdesDeterminismTest, FaultedPartitionedDumpIsByteIdentical) {
  std::string first = RunFaultedPartitionedWorkload();
  EXPECT_NE(first.find("fault."), std::string::npos);
  EXPECT_EQ(RunFaultedPartitionedWorkload(), first);
}

}  // namespace
}  // namespace ndp
