// Ablation A5 — §4 "Aggregations": sum/min/max/count require minimal extra
// hardware. Compares CPU aggregation scans against the JAFAR aggregate
// engine, unfiltered and bitmap-filtered.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/api.h"

using namespace ndp;

int main() {
  const uint64_t rows = bench::EnvU64("ABL_ROWS", 1u << 20);
  bench::PrintHeader("Ablation A5 — NDP aggregation (" + std::to_string(rows) +
                     " rows)");
  db::Column col = bench::UniformColumn(rows);

  core::SystemModel sys(core::PlatformConfig::Gem5());
  uint64_t col_base = sys.PinColumn(col);
  cpu::AggregateScanStream cpu_scan(col.size(), col_base);
  auto cpu = sys.RunStream(&cpu_scan).ValueOrDie();

  // JAFAR aggregate (sum).
  uint64_t out_addr = sys.Allocate(64, 64);
  bool granted = false;
  sys.driver().AcquireOwnership([&](sim::Tick) { granted = true; });
  sys.eq().RunUntilTrue([&] { return granted; });

  auto run_agg = [&](jafar::AggKind kind, uint64_t bitmap) {
    jafar::AggregateJob job;
    job.col_base = col_base;
    job.num_rows = rows;
    job.kind = kind;
    job.bitmap_base = bitmap;
    job.out_addr = out_addr;
    bool done = false;
    sim::Tick start = sys.eq().Now(), end = 0;
    NDP_CHECK(sys.driver().Submit(job, [&](const jafar::Completion& c) {
      done = true;
      end = c.completed_at;
    }).ok());
    sys.eq().RunUntilTrue([&] { return done; });
    return bench::Ms(end - start);
  };
  double jafar_sum_ms = run_agg(jafar::AggKind::kSum, 0);

  // Functional check against the host-side oracle, read back before the
  // filtered run overwrites out_addr.
  int64_t oracle = 0;
  for (size_t i = 0; i < col.size(); ++i) oracle += col[i];
  int64_t got =
      static_cast<int64_t>(sys.dram().backing_store().Read64(out_addr));
  if (got != oracle) {
    std::fprintf(stderr, "MISMATCH: jafar sum=%lld oracle=%lld\n",
                 (long long)got, (long long)oracle);
    return 1;
  }

  // Filtered aggregate: JAFAR select produces the bitmap, then aggregates
  // under it — the whole filter+agg pipeline stays in memory.
  uint64_t bitmap = sys.Allocate((rows + 7) / 8 + 64, 4096);
  jafar::SelectJob sel;
  sel.col_base = col_base;
  sel.num_rows = rows;
  sel.range_low = 250000;
  sel.range_high = 750000;
  sel.out_base = bitmap;
  bool sel_done = false;
  sim::Tick sel_start = sys.eq().Now(), sel_end = 0;
  NDP_CHECK(sys.jafar().Start(sel, [&](const jafar::Completion& c) {
    sel_done = true;
    sel_end = c.completed_at;
  }).ok());
  sys.eq().RunUntilTrue([&] { return sel_done; });
  double filtered_ms =
      bench::Ms(sel_end - sel_start) + run_agg(jafar::AggKind::kSum, bitmap);

  std::printf("\n%-44s %-12s %-10s\n", "configuration", "time_ms", "speedup");
  std::printf("%-44s %-12.3f %-10s\n", "CPU aggregate scan (sum)",
              bench::Ms(cpu.duration_ps), "1.00");
  std::printf("%-44s %-12.3f %-10.2f\n", "JAFAR aggregate (sum)", jafar_sum_ms,
              bench::Ms(cpu.duration_ps) / jafar_sum_ms);
  std::printf("%-44s %-12.3f %-10.2f\n",
              "JAFAR select (50%) + filtered aggregate", filtered_ms,
              bench::Ms(cpu.duration_ps) / filtered_ms);
  std::printf(
      "\nExpected: the aggregate engine matches select throughput (both are\n"
      "stream-bound); filter+aggregate costs ~2 passes but never moves data\n"
      "up the hierarchy.\n");
  return 0;
}
