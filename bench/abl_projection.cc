// Ablation A6 — §4 "Projections": tuple reconstruction fetches qualifying
// values of one column given a selection on another. Compares the CPU
// late-materialization gather against the JAFAR project engine across
// selectivities.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/api.h"

using namespace ndp;

int main() {
  const uint64_t rows = bench::EnvU64("ABL_ROWS", 512u * 1024);
  bench::PrintHeader("Ablation A6 — NDP projection (" + std::to_string(rows) +
                     " rows)");
  db::Column sel_col = bench::UniformColumn(rows, 1);
  db::Column val_col = bench::UniformColumn(rows, 2);

  std::printf("\n%-12s %-16s %-16s %-10s\n", "selectivity", "cpu_gather_ms",
              "jafar_proj_ms", "speedup");
  for (uint64_t pct : {1ull, 10ull, 25ull, 50ull, 100ull}) {
    int64_t hi = static_cast<int64_t>(pct * 10000) - 1;
    core::SystemModel sys(core::PlatformConfig::Gem5());
    // Build the selection (positions + bitmap) once, outside the timing.
    db::QueryContext ctx;
    db::PositionList pos =
        db::ScanSelect(&ctx, sel_col, db::Pred::Between(0, hi));
    uint64_t col_base = sys.PinColumn(val_col);
    uint64_t pos_base = sys.Allocate(pos.size() * 4);
    uint64_t gather_out = sys.Allocate(pos.size() * 8);
    cpu::ProjectGatherStream gather(pos.data(), pos.size(), pos_base,
                                    col_base, gather_out);
    auto cpu = sys.RunStream(&gather).ValueOrDie();

    BitVector bm = db::PositionsToBitmap(pos, rows);
    uint64_t bitmap = sys.Allocate(bm.num_bytes() + 64, 4096);
    sys.dram().backing_store().Write(bitmap, bm.bytes(), bm.num_bytes());
    uint64_t out = sys.Allocate(rows * 8, 4096);

    bool granted = false;
    sys.driver().AcquireOwnership([&](sim::Tick) { granted = true; });
    sys.eq().RunUntilTrue([&] { return granted; });
    jafar::ProjectJob job;
    job.col_base = col_base;
    job.num_rows = rows;
    job.bitmap_base = bitmap;
    job.out_base = out;
    bool done = false;
    sim::Tick start = sys.eq().Now(), end = 0;
    NDP_CHECK(sys.driver().Submit(job, [&](const jafar::Completion& c) {
      done = true;
      end = c.completed_at;
    }).ok());
    sys.eq().RunUntilTrue([&] { return done; });
    double jafar_ms = bench::Ms(end - start);
    std::printf("%9llu%%  %-16.3f %-16.3f %-10.2f\n", (unsigned long long)pct,
                bench::Ms(cpu.duration_ps), jafar_ms,
                bench::Ms(cpu.duration_ps) / jafar_ms);
  }
  std::printf(
      "\nExpected: the CPU gather cost grows with qualifying rows (dependent\n"
      "loads through the hierarchy); JAFAR streams the column once at fixed\n"
      "cost, so its advantage peaks at high selectivity where every gather\n"
      "is a full cache-line round trip.\n");
  return 0;
}
