// Ablation — a whole query core in memory: TPC-H Q1's filter + grouped
// aggregation (the paper's headline combination of §2's select with §4's
// aggregations). JAFAR selects l_shipdate <= cutoff into a bitmap, then the
// grouped-aggregation engine sums l_quantity per (returnflag, linestatus)
// under that bitmap — no column data ever crosses the memory bus. The CPU
// baseline runs the same select + hash group-by µop kernels.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/api.h"

using namespace ndp;

int main() {
  const double scale = bench::EnvDouble("ABL_TPCH_SCALE", 0.05);
  bench::PrintHeader(
      "Ablation — TPC-H Q1 core (filter + group-by) fully in memory (scale " +
      std::to_string(scale) + ")");
  db::Catalog catalog;
  db::tpch::TpchConfig cfg;
  cfg.scale = scale;
  db::tpch::Generate(cfg, &catalog);
  db::Table& li = catalog.Tab("lineitem");
  const uint64_t rows = li.num_rows();
  int64_t cutoff = db::tpch::DayNumber(1998, 12, 1) - 90;

  // Packed (returnflag, linestatus) key column, as the plan layer builds it.
  db::Column keys = db::Column::Int64("q1_key");
  const db::Column& rf = li.Col("l_returnflag");
  const db::Column& ls = li.Col("l_linestatus");
  for (uint64_t i = 0; i < rows; ++i) keys.Append(rf[i] * 16 + ls[i]);

  core::SystemModel sys(core::PlatformConfig::Gem5());
  uint64_t ship_base = sys.PinColumn(li.Col("l_shipdate"));
  uint64_t key_base = sys.PinColumn(keys);
  uint64_t qty_base = sys.PinColumn(li.Col("l_quantity"));
  uint64_t bitmap = sys.Allocate((rows + 7) / 8 + 64, 4096);
  uint64_t out = sys.Allocate(sys.jafar().config().groupby_buckets * 16, 4096);

  // --- CPU baseline: select µop kernel + hash group-by µop kernel over the
  // qualifying rows (modeled as a full-pass group-by; Q1's filter passes
  // ~98% of rows, so this is within 2% of the exact cost).
  cpu::SelectScanStream sel_stream(li.Col("l_shipdate").data(), rows,
                                   INT64_MIN, cutoff, ship_base,
                                   sys.Allocate(rows * 4), false);
  auto cpu_sel = sys.RunStream(&sel_stream).ValueOrDie();
  cpu::GroupByScanStream gb_stream(keys.data(), rows, key_base, qty_base,
                                   sys.Allocate(64 * 16), 64);
  auto cpu_gb = sys.RunStream(&gb_stream).ValueOrDie();
  double cpu_ms = bench::Ms(cpu_sel.duration_ps + cpu_gb.duration_ps);

  // --- NDP pipeline: select -> bitmap -> filtered group-by, all on-DIMM.
  bool granted = false;
  sys.driver().AcquireOwnership([&](sim::Tick) { granted = true; });
  sys.eq().RunUntilTrue([&] { return granted; });

  sim::Tick start = sys.eq().Now();
  jafar::SelectJob sel;
  sel.col_base = ship_base;
  sel.num_rows = rows;
  sel.op = jafar::CompareOp::kLe;
  sel.range_low = cutoff;
  sel.out_base = bitmap;
  bool sel_done = false;
  NDP_CHECK(sys.jafar().Start(sel, [&](const jafar::Completion&) {
    sel_done = true;
  }).ok());
  sys.eq().RunUntilTrue([&] { return sel_done; });
  sim::Tick select_end = sys.eq().Now();

  jafar::GroupByJob gb;
  gb.key_base = key_base;
  gb.val_base = qty_base;
  gb.num_rows = rows;
  gb.kind = jafar::AggKind::kSum;
  gb.bitmap_base = bitmap;
  gb.out_base = out;
  bool gb_done = false;
  sim::Tick end = 0;
  NDP_CHECK(sys.driver().Submit(gb, [&](const jafar::Completion& c) {
    gb_done = true;
    end = c.completed_at;
  }).ok());
  sys.eq().RunUntilTrue([&] { return gb_done; });
  double ndp_ms = bench::Ms(end - start);

  // Functional check against the reference query implementation.
  db::QueryContext qctx;
  auto reference = db::tpch::RunQ1(&qctx, &catalog);
  bool ok = true;
  for (const auto& row : reference) {
    int64_t rf_code = rf.CodeOf(row.returnflag).ValueOrDie();
    int64_t ls_code = ls.CodeOf(row.linestatus).ValueOrDie();
    int64_t key = rf_code * 16 + ls_code;
    int64_t got = static_cast<int64_t>(
        sys.dram().backing_store().Read64(out + static_cast<uint64_t>(key) * 16));
    int64_t got_n = static_cast<int64_t>(sys.dram().backing_store().Read64(
        out + static_cast<uint64_t>(key) * 16 + 8));
    ok &= got == row.sum_qty && got_n == row.count_order;
  }

  std::printf("\nlineitem rows: %llu; Q1 groups verified against the plan\n",
              (unsigned long long)rows);
  std::printf("%-44s %-12s %-10s\n", "pipeline", "time_ms", "speedup");
  std::printf("%-44s %-12.3f %-10s\n", "CPU select + CPU hash group-by",
              cpu_ms, "1.00");
  std::printf("%-44s %-12.3f %-10.2f   (select %.3f + group-by %.3f)\n",
              "JAFAR select -> bitmap -> JAFAR group-by", ndp_ms,
              cpu_ms / ndp_ms, bench::Ms(select_end - start),
              bench::Ms(end - select_end));
  std::printf("functional check: %s\n", ok ? "sum_qty and counts match RunQ1"
                                           : "MISMATCH");
  return ok ? 0 : 1;
}
