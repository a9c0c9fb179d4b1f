// Ablation A4 — memory contention without a scheduler (§3.3). "Without a
// scheduling system, JAFAR can only run while the memory controller is idle."
// We compare exclusive rank ownership (MR3/MPR) against "polite" execution,
// where JAFAR defers to any pending host traffic, while the CPU runs a
// memory-intensive aggregate over a different region of the same channel.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/api.h"

using namespace ndp;

namespace {

/// Runs a JAFAR select while the CPU streams an aggregate; returns the JAFAR
/// completion time (ms) and number of polite back-offs.
std::pair<double, uint64_t> RunWithContention(bool require_ownership,
                                              const db::Column& col,
                                              const db::Column& cpu_col) {
  core::PlatformConfig p = core::PlatformConfig::Gem5();
  p.dram_org.ranks_per_channel = 2;  // JAFAR on rank 0, CPU data on rank 1
  core::SystemModel sys(p);
  uint64_t col_base = sys.PinColumn(col);
  uint64_t out_base = sys.Allocate((col.size() + 7) / 8 + 64, 4096);

  // CPU working set on rank 1 so only bus/bank-level interference remains in
  // the exclusive case.
  uint64_t rank1 = sys.dram().organization().BytesPerRank();
  sys.dram().backing_store().Write(rank1, cpu_col.data(), cpu_col.SizeBytes());

  jafar::DeviceConfig cfg = sys.jafar().config();
  cfg.require_ownership = require_ownership;
  jafar::Device device(&sys.dram(), 0, 0, cfg);
  if (require_ownership) {
    bool granted = false;
    sys.dram().controller(0).TransferOwnership(
        0, dram::RankOwner::kAccelerator, [&](sim::Tick) { granted = true; });
    sys.eq().RunUntilTrue([&] { return granted; });
  }

  // Start the CPU streaming loop (continuous aggregate over rank 1).
  cpu::AggregateScanStream cpu_stream(cpu_col.size(), rank1);
  bool cpu_done = false;
  NDP_CHECK(sys.cpu().Run(&cpu_stream, [&](sim::Tick) { cpu_done = true; }).ok());

  jafar::SelectJob job;
  job.col_base = col_base;
  job.num_rows = col.size();
  job.range_low = 0;
  job.range_high = 499999;
  job.out_base = out_base;
  bool done = false;
  sim::Tick start = sys.eq().Now(), end = 0;
  NDP_CHECK(device.Start(job, [&](const jafar::Completion& c) {
    done = true;
    end = c.completed_at;
  }).ok());
  sys.eq().RunUntilTrue([&] { return done; });
  (void)cpu_done;
  return {bench::Ms(end - start), device.stats().polite_backoffs};
}

}  // namespace

int main() {
  const uint64_t rows = bench::EnvU64("ABL_ROWS", 256u * 1024);
  bench::PrintHeader(
      "Ablation A4 — JAFAR under memory contention, with and without rank "
      "ownership (" +
      std::to_string(rows) + " rows; CPU streams an aggregate concurrently)");
  db::Column col = bench::UniformColumn(rows);
  db::Column cpu_col = bench::UniformColumn(rows, 99);

  auto [own_ms, own_backoffs] = RunWithContention(true, col, cpu_col);
  auto [polite_ms, polite_backoffs] = RunWithContention(false, col, cpu_col);

  std::printf("\n%-44s %-12s %-16s\n", "mode", "jafar_ms", "polite_backoffs");
  std::printf("%-44s %-12.3f %-16llu\n",
              "exclusive rank ownership (MR3/MPR)", own_ms,
              (unsigned long long)own_backoffs);
  std::printf("%-44s %-12.3f %-16llu\n",
              "no scheduler: idle-period stealing only", polite_ms,
              (unsigned long long)polite_backoffs);
  std::printf("slowdown without a scheduler: %.2fx\n", polite_ms / own_ms);
  std::printf(
      "\nExpected: without coordinated scheduling JAFAR repeatedly defers to\n"
      "host traffic and runs several times slower — the paper's motivation\n"
      "for DRAM-ownership scheduling (§3.3).\n");
  return 0;
}
