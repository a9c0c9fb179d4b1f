// Determinism regression tests: the entire simulation stack must be a pure
// function of its inputs. Two fresh systems running the Figure 3 pipeline on
// the same column must agree bit for bit — durations, match counts, every
// component counter — and a ParallelSweep must produce identical results at
// any worker-thread count (the property that makes the parallel benches'
// output byte-identical across NDP_BENCH_THREADS settings).
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/parallel_sweep.h"
#include "core/api.h"
#include "gtest/gtest.h"

namespace ndp {
namespace {

struct PipelineResult {
  sim::Tick cpu_ps = 0;
  sim::Tick jafar_ps = 0;
  sim::Tick ownership_ps = 0;
  uint64_t cpu_matches = 0;
  uint64_t jafar_matches = 0;
  std::string stats_dump;
  std::string stats_json;

  bool operator==(const PipelineResult& o) const {
    return cpu_ps == o.cpu_ps && jafar_ps == o.jafar_ps &&
           ownership_ps == o.ownership_ps && cpu_matches == o.cpu_matches &&
           jafar_matches == o.jafar_matches && stats_dump == o.stats_dump &&
           stats_json == o.stats_json;
  }
};

PipelineResult RunPipeline(const db::Column& col, int64_t hi) {
  core::SystemModel sys(core::PlatformConfig::Gem5());
  auto cpu = sys.RunCpuSelect(col, 0, hi, db::SelectMode::kBranching)
                 .ValueOrDie();
  auto jaf = sys.RunJafarSelect(col, 0, hi).ValueOrDie();
  PipelineResult r;
  r.cpu_ps = cpu.duration_ps;
  r.jafar_ps = jaf.duration_ps;
  r.ownership_ps = jaf.ownership_ps;
  r.cpu_matches = cpu.matches;
  r.jafar_matches = jaf.matches;
  r.stats_dump = sys.DumpStats();
  r.stats_json = sys.stats().DumpJson().Dump(/*indent=*/2);
  return r;
}

TEST(DeterminismTest, Fig3PipelineIsBitIdenticalAcrossRuns) {
  db::Column col = bench::UniformColumn(64 * 1024);
  PipelineResult first = RunPipeline(col, 499999);
  PipelineResult second = RunPipeline(col, 499999);
  EXPECT_EQ(first.cpu_ps, second.cpu_ps);
  EXPECT_EQ(first.jafar_ps, second.jafar_ps);
  EXPECT_EQ(first.ownership_ps, second.ownership_ps);
  EXPECT_EQ(first.cpu_matches, second.cpu_matches);
  EXPECT_EQ(first.jafar_matches, second.jafar_matches);
  // Full registry dump, byte for byte: every counter, gauge, and histogram
  // percentile of every component, in both text and JSON renderings.
  EXPECT_EQ(first.stats_dump, second.stats_dump);
  EXPECT_EQ(first.stats_json, second.stats_json);
  EXPECT_NE(first.stats_dump.find("system.dram.ctrl0.reads_served"),
            std::string::npos);
}

struct FaultedResult {
  uint64_t matches = 0;
  std::string stats_dump;
};

/// Runs a JAFAR select under an active fault campaign (hangs, mid-job stalls,
/// bitmap corruption, ECC flips) whose recovery stays inside the driver's
/// retry budget.
FaultedResult RunFaultedPipeline(const db::Column& col, uint64_t fault_seed) {
  core::PlatformConfig config = core::PlatformConfig::Gem5();
  config.fault_plan.seed = fault_seed;
  config.fault_plan.hang_per_job = 0.1;
  config.fault_plan.stall_per_burst = 0.002;
  config.fault_plan.corrupt_per_flush = 0.1;
  config.fault_plan.ecc_ce_per_burst = 0.01;
  core::SystemModel sys(config);
  auto jaf = sys.RunJafarSelect(col, 0, 499999).ValueOrDie();
  FaultedResult r;
  r.matches = jaf.matches;
  r.stats_dump = sys.DumpStats();
  return r;
}

TEST(DeterminismTest, SameFaultSeedIsByteIdentical) {
  db::Column col = bench::UniformColumn(32 * 1024);
  FaultedResult first = RunFaultedPipeline(col, 1001);
  FaultedResult second = RunFaultedPipeline(col, 1001);
  // Same plan, same workload: every injected fault, watchdog fire, retry,
  // and recovery latency lands on the same tick — the registry dumps match
  // byte for byte.
  EXPECT_EQ(first.matches, second.matches);
  EXPECT_EQ(first.stats_dump, second.stats_dump);
  EXPECT_NE(first.stats_dump.find("system.fault."), std::string::npos);
}

TEST(DeterminismTest, DifferentFaultSeedsStillAgreeOnResults) {
  db::Column col = bench::UniformColumn(32 * 1024);
  uint64_t oracle = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    oracle += col[i] >= 0 && col[i] <= 499999;
  }
  FaultedResult a = RunFaultedPipeline(col, 2001);
  FaultedResult b = RunFaultedPipeline(col, 2002);
  // Different fault sequences, but recovery makes the answer fault-invariant.
  EXPECT_EQ(a.matches, oracle);
  EXPECT_EQ(b.matches, oracle);
}

TEST(DeterminismTest, ParallelSweepIsThreadCountInvariant) {
  db::Column col = bench::UniformColumn(16 * 1024);
  const std::vector<int64_t> his = {-1, 99999, 499999, 899999, 999999};
  auto run_point = [&](size_t i) { return RunPipeline(col, his[i]); };
  std::vector<PipelineResult> serial =
      bench::ParallelSweep<PipelineResult>(his.size(), run_point,
                                           /*num_threads=*/1);
  std::vector<PipelineResult> parallel =
      bench::ParallelSweep<PipelineResult>(his.size(), run_point,
                                           /*num_threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "sweep point " << i;
  }
}

TEST(ParallelSweepTest, ResultsAreInPointOrderRegardlessOfClaimOrder) {
  const size_t n = 257;  // not a multiple of any thread count
  std::vector<size_t> out = bench::ParallelSweep<size_t>(
      n, [](size_t i) { return i * 3 + 1; }, /*num_threads=*/5);
  ASSERT_EQ(out.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * 3 + 1);
}

TEST(ParallelSweepTest, NestedSweepSpawnsItsOwnThreads) {
  // A sweep point that itself sweeps runs a whole sweep of its own: its
  // threads claim the inner points and are joined before the point returns.
  std::vector<uint64_t> out = bench::ParallelSweep<uint64_t>(
      6,
      [](size_t i) {
        std::vector<uint64_t> inner = bench::ParallelSweep<uint64_t>(
            4, [i](size_t j) { return static_cast<uint64_t>(i * 10 + j); },
            /*num_threads=*/4);
        return std::accumulate(inner.begin(), inner.end(), uint64_t{0});
      },
      /*num_threads=*/3);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], 4 * static_cast<uint64_t>(i) * 10 + 0 + 1 + 2 + 3);
  }
}

}  // namespace
}  // namespace ndp
