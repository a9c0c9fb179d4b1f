// Ablation — multi-DIMM scaling (§4 "Memory Management": "adding support for
// more than one DIMM is an essential future step"). Partitions one column
// across 1..8 JAFAR-equipped DIMMs and runs the selects in parallel.
//
// With NDP_DEVICE_GEN unset the sweep runs v1_rank_io and v2_bank_level
// head-to-head (one table per generation); set, it pins the sweep to that
// generation, and a v1_rank_io pin reproduces the pre-refactor output.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/parallel_sweep.h"
#include "bench/reporter.h"
#include "core/api.h"
#include "core/dimm_array.h"

using namespace ndp;

int main() {
  const uint64_t rows = bench::EnvU64("ABL_ROWS", 2u * 1024 * 1024);
  bench::PrintHeader("Ablation — multi-DIMM parallel select scaling (" +
                     std::to_string(rows) + " rows)");
  db::Column col = bench::UniformColumn(rows);
  const std::vector<jafar::DeviceGeneration> gens = bench::EnvGenerations();
  const bool pinned = gens.size() == 1;
  // DimmArray builds its DRAM organization from defaults (8 banks, 8 KB
  // rows) plus the channel/rank counts, none of which affect the per-bank
  // comparator derivation — a default organization matches.
  const dram::DramOrganization org;
  std::vector<jafar::DeviceConfig> cfgs;
  for (jafar::DeviceGeneration gen : gens) {
    cfgs.push_back(bench::DeriveDeviceConfig(gen, dram::DramTiming::DDR3_1600(),
                                             org, accel::DatapathResources{}));
  }

  uint64_t oracle = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    oracle += col[i] >= 0 && col[i] <= 499999;
  }

  const std::vector<uint32_t> channel_counts = {1, 2, 4, 8};
  struct PointResult {
    uint32_t channels = 0;
    uint32_t devices = 0;
    double ms = 0;
    StatsSnapshot counters;
  };
  // Generation-major: results for gens[g] live at [g * channel_counts.size(),
  // (g + 1) * channel_counts.size()).
  std::vector<PointResult> results = bench::ParallelSweep<PointResult>(
      gens.size() * channel_counts.size(), [&](size_t i) {
        PointResult r;
        r.channels = channel_counts[i % channel_counts.size()];
        core::DimmArray array(dram::DramTiming::DDR3_1600(), r.channels, 1,
                              cfgs[i / channel_counts.size()],
                              /*rows_per_bank=*/8192);
        array.AcquireAllOwnership();
        core::PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
        auto result = array.RunParallelSelect(placed, 0, 499999).ValueOrDie();
        NDP_CHECK(result.matches == oracle);
        NDP_CHECK(result.bitmap.CountOnes() == oracle);
        r.devices = array.num_devices();
        r.ms = bench::Ms(result.duration_ps);
        r.counters = result.counters;
        return r;
      });

  bench::Reporter report("abl_scaling");
  report.Config("rows", static_cast<double>(rows))
      .Config("selectivity_pct", 50.0)
      .Config("generations",
              bench::GenerationsConfigJson(gens, dram::DramTiming::DDR3_1600(),
                                           org, accel::DatapathResources{}));

  for (size_t g = 0; g < gens.size(); ++g) {
    const char* gen_name = jafar::DeviceGenerationToString(gens[g]);
    if (!pinned) std::printf("\n---- generation: %s ----\n", gen_name);
    std::printf("\n%-10s %-10s %-12s %-10s %-12s\n", "channels", "devices",
                "time_ms", "speedup", "efficiency");
    double base_ms = results[g * channel_counts.size()].ms;
    for (size_t i = 0; i < channel_counts.size(); ++i) {
      const PointResult& r = results[g * channel_counts.size() + i];
      double speedup = base_ms / r.ms;
      std::printf("%-10u %-10u %-12.3f %-10.2f %-12.2f\n", r.channels,
                  r.devices, r.ms, speedup, speedup / r.channels);
      std::string label = std::to_string(r.channels) + "ch";
      if (!pinned) label += std::string(" ") + gen_name;
      report.AddPoint(label)
          .Metric("channels", r.channels)
          .Metric("devices", r.devices)
          .Metric("time_ms", r.ms)
          .Metric("speedup", speedup)
          .Metric("efficiency", speedup / r.channels)
          .Counters("", r.counters);
    }
  }
  std::printf(
      "\nExpected: near-linear scaling — each JAFAR streams its own DIMM and\n"
      "the bitmaps merge without cross-DIMM traffic; efficiency dips only\n"
      "from the fixed invocation overhead on the shrinking partitions.\n");
  return report.WriteJson() ? 0 : 1;
}
