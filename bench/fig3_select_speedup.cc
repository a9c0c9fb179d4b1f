// Figure 3: simulated selection speedup of JAFAR over CPU-only execution as a
// function of query selectivity, on the gem5-like platform (Table 1, left).
//
// Paper setup (§3.1–3.2): 4M rows of uniformly distributed random integers in
// [0, 1M), unsorted and unindexed; single-column range select; selectivity
// swept 0%..100%; the CPU spin-waits while JAFAR runs (no memory contention);
// the CPU baseline does NOT use predication. Expected shape: speedup grows
// from ~5x at 0% selectivity to ~9x at 100%.
//
// Points run in parallel across NDP_BENCH_THREADS workers; each point owns a
// fresh SystemModel, so the output is byte-identical at any thread count.
//
// Device generations: with NDP_DEVICE_GEN unset the sweep runs v1_rank_io and
// v2_bank_level head-to-head (one table per generation); set, it pins the
// sweep to that generation — and a v1_rank_io pin reproduces the pre-refactor
// output byte for byte.
//
// Environment overrides: FIG3_ROWS (default 4194304), FIG3_STEP (default 10),
// NDP_DEVICE_GEN, NDP_BENCH_THREADS (default hardware concurrency).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/parallel_sweep.h"
#include "bench/reporter.h"
#include "core/api.h"

int main() {
  using namespace ndp;
  const uint64_t rows = bench::EnvU64("FIG3_ROWS", 4u * 1024 * 1024);
  const uint64_t step = bench::EnvU64("FIG3_STEP", 10);
  const std::vector<jafar::DeviceGeneration> gens = bench::EnvGenerations();
  const bool pinned = gens.size() == 1;

  bench::PrintHeader(
      "Figure 3 — JAFAR speedup on selects vs. selectivity "
      "(gem5-like platform, " +
      std::to_string(rows) + " uniform random rows)");

  db::Column col = bench::UniformColumn(rows);

  std::vector<uint64_t> pcts;
  for (uint64_t pct = 0; pct <= 100; pct += step) pcts.push_back(pct);

  struct PointResult {
    uint64_t pct = 0;
    uint64_t cpu_ps = 0, jafar_ps = 0;
    uint64_t cpu_matches = 0, jafar_matches = 0;
    uint64_t cpu_mispredicts = 0, pages = 0;
    double accel_frac = 0;
    StatsSnapshot cpu_counters, jafar_counters;
  };
  // The sweep is (generation x selectivity), generation-major: results for
  // gens[g] live at [g * pcts.size(), (g + 1) * pcts.size()).
  std::vector<PointResult> results = bench::ParallelSweep<PointResult>(
      gens.size() * pcts.size(), [&](size_t i) {
        // Each point runs on a fresh system so bank/cache state is identical.
        PointResult r;
        r.pct = pcts[i % pcts.size()];
        core::PlatformConfig plat = core::PlatformConfig::Gem5();
        plat.device_gen = gens[i / pcts.size()];
        core::SystemModel sys(plat);
        // Selectivity via the range's upper bound over the [0, 1M) domain.
        int64_t hi = static_cast<int64_t>(r.pct * 10000) - 1;
        auto cpu = sys.RunCpuSelect(col, 0, hi, db::SelectMode::kBranching)
                       .ValueOrDie();
        auto jaf = sys.RunJafarSelect(col, 0, hi).ValueOrDie();
        r.cpu_ps = cpu.duration_ps;
        r.jafar_ps = jaf.duration_ps;
        r.cpu_matches = cpu.matches;
        r.jafar_matches = jaf.matches;
        r.cpu_mispredicts = cpu.stats.mispredicts;
        // Fraction of the JAFAR run spent inside the accelerated region, i.e.
        // excluding per-page invocation overhead and the ownership hand-off
        // (§3.1: the paper reports 93%).
        r.pages = jaf.stats.jobs_completed;
        sim::Tick overhead_ps =
            r.pages * jafar::kInvocationOverheadCycles *
                sys.jafar().config().clock.period_ps() +
            jaf.ownership_ps;
        r.accel_frac = 1.0 - static_cast<double>(overhead_ps) /
                                 static_cast<double>(jaf.duration_ps);
        r.cpu_counters = cpu.counters;
        r.jafar_counters = jaf.counters;
        return r;
      });

  bench::Reporter report("fig3");
  {
    core::PlatformConfig plat = core::PlatformConfig::Gem5();
    report.Config("rows", static_cast<double>(rows))
        .Config("step", static_cast<double>(step))
        .Config("platform", "gem5")
        .Config("generations",
                bench::GenerationsConfigJson(gens, plat.dram_timing,
                                             plat.dram_org,
                                             plat.jafar_datapath));
  }

  double min_speedup = 1e30, max_speedup = 0;
  for (size_t g = 0; g < gens.size(); ++g) {
    const char* gen_name = jafar::DeviceGenerationToString(gens[g]);
    if (!pinned) std::printf("\n---- generation: %s ----\n", gen_name);
    std::printf(
        "\n%-12s %-14s %-14s %-10s %-12s %-12s %-10s\n", "selectivity",
        "cpu_time_ms", "jafar_time_ms", "speedup", "cpu_misp", "jafar_pages",
        "accel_frac");
    for (size_t i = 0; i < pcts.size(); ++i) {
      const PointResult& r = results[g * pcts.size() + i];
      if (r.cpu_matches != r.jafar_matches) {
        std::fprintf(stderr, "MISMATCH at %llu%% (%s): cpu=%llu jafar=%llu\n",
                     (unsigned long long)r.pct, gen_name,
                     (unsigned long long)r.cpu_matches,
                     (unsigned long long)r.jafar_matches);
        return 1;
      }
      double speedup =
          static_cast<double>(r.cpu_ps) / static_cast<double>(r.jafar_ps);
      min_speedup = std::min(min_speedup, speedup);
      max_speedup = std::max(max_speedup, speedup);
      std::printf("%9llu%%  %-14.3f %-14.3f %-10.2f %-12llu %-12llu %-10.3f\n",
                  (unsigned long long)r.pct, bench::Ms(r.cpu_ps),
                  bench::Ms(r.jafar_ps), speedup,
                  (unsigned long long)r.cpu_mispredicts,
                  (unsigned long long)r.pages, r.accel_frac);
      std::string label = std::to_string(r.pct) + "%";
      if (!pinned) label += std::string(" ") + gen_name;
      report.AddPoint(label)
          .Metric("selectivity_pct", static_cast<double>(r.pct))
          .Metric("cpu_time_ms", bench::Ms(r.cpu_ps))
          .Metric("jafar_time_ms", bench::Ms(r.jafar_ps))
          .Metric("speedup", speedup)
          .Metric("matches", static_cast<double>(r.cpu_matches))
          .Metric("cpu_mispredicts", static_cast<double>(r.cpu_mispredicts))
          .Metric("jafar_pages", static_cast<double>(r.pages))
          .Metric("accel_frac", r.accel_frac)
          .Counters("cpu", r.cpu_counters)
          .Counters("jafar", r.jafar_counters);
    }
  }

  std::printf(
      "\nPaper: speedup rises from ~5x (0%% selectivity) to ~9x (100%%).\n");
  std::printf("Measured: %.2fx .. %.2fx (ratio %.2f; paper ratio 9/5 = 1.80)\n",
              min_speedup, max_speedup, max_speedup / min_speedup);

  // §2.2 wait-time observation, from the device counters of a 50% run.
  core::SystemModel sys(core::PlatformConfig::Gem5());
  auto jaf = sys.RunJafarSelect(col, 0, 499999).ValueOrDie();
  std::printf(
      "JAFAR wait fraction: %.2f of each access spent waiting on DRAM "
      "(paper: ~9 of 13 ns = 0.69)\n",
      jaf.stats.WaitFraction());
  report.Config("wait_fraction_at_50pct", jaf.stats.WaitFraction());
  return report.WriteJson() ? 0 : 1;
}
