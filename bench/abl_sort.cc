// Ablation — §4 "Sorting": JAFAR's fixed-function bitonic block sorter emits
// 8 KB sorted runs in memory; the CPU merges them (divide and conquer).
// Compared against a pure-CPU bottom-up merge sort with its data-dependent
// merge branch.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/api.h"

using namespace ndp;

int main() {
  const uint64_t rows = bench::EnvU64("ABL_ROWS", 256u * 1024);
  bench::PrintHeader("Ablation — NDP block sort + CPU merge vs. CPU sort (" +
                     std::to_string(rows) + " rows)");
  db::Column col = bench::UniformColumn(rows);

  // CPU-only merge sort.
  core::SystemModel sys(core::PlatformConfig::Gem5());
  uint64_t src = sys.PinColumn(col);
  uint64_t ping = sys.Allocate(rows * 8, 4096);
  cpu::MergeSortStream cpu_sort(rows, src, ping);
  auto cpu = sys.RunStream(&cpu_sort).ValueOrDie();

  // JAFAR block sort, then a CPU merge of the rows/block runs. The merge is
  // modeled as log2(runs) additional merge passes? No: a k-way heap merge is
  // one pass; we charge one MergeSortStream pass per log2(k) levels.
  uint64_t out = sys.Allocate(rows * 8, 4096);
  bool granted = false;
  sys.driver().AcquireOwnership([&](sim::Tick) { granted = true; });
  sys.eq().RunUntilTrue([&] { return granted; });
  jafar::SortJob job;
  job.col_base = src;
  job.num_rows = rows;
  job.out_base = out;
  bool done = false;
  sim::Tick start = sys.eq().Now(), end = 0;
  NDP_CHECK(sys.driver().Submit(job, [&](const jafar::Completion& c) {
    done = true;
    end = c.completed_at;
  }).ok());
  sys.eq().RunUntilTrue([&] { return done; });
  double jafar_block_ms = bench::Ms(end - start);

  // Verify the runs are sorted and a merge reproduces the full sort.
  uint32_t block = jafar::kSortBlockElems;
  std::vector<std::vector<int64_t>> runs;
  for (uint64_t r = 0; r < rows; r += block) {
    uint64_t n = std::min<uint64_t>(block, rows - r);
    std::vector<int64_t> run(n);
    sys.dram().backing_store().Read(out + r * 8, run.data(), n * 8);
    NDP_CHECK(std::is_sorted(run.begin(), run.end()));
    runs.push_back(std::move(run));
  }
  db::QueryContext mctx;
  std::vector<int64_t> merged = db::MergeSortedRuns(&mctx, runs);
  NDP_CHECK(std::is_sorted(merged.begin(), merged.end()));
  NDP_CHECK(merged.size() == rows);

  // CPU merge cost of the device runs: log2(#runs) ping-pong passes.
  uint32_t merge_levels = 0;
  while ((uint64_t{1} << merge_levels) < runs.size()) ++merge_levels;
  double merge_ms = 0;
  if (merge_levels > 0) {
    // One MergeSortStream pass costs ~1/passes of a full CPU sort; reuse the
    // stream with exactly merge_levels passes by scaling measured full cost.
    cpu::MergeSortStream probe(rows, src, ping);
    merge_ms = bench::Ms(cpu.duration_ps) * merge_levels / probe.passes();
  }
  double jafar_total_ms = jafar_block_ms + merge_ms;

  std::printf("\n%-44s %-12s %-10s\n", "configuration", "time_ms", "speedup");
  std::printf("%-44s %-12.3f %-10.2f\n", "CPU merge sort", bench::Ms(cpu.duration_ps),
              1.0);
  std::printf("%-44s %-12.3f %-10s\n", "  JAFAR bitonic block sort (8 kB runs)",
              jafar_block_ms, "-");
  std::printf("%-44s %-12.3f %-10s\n", "  CPU merge of device runs", merge_ms,
              "-");
  std::printf("%-44s %-12.3f %-10.2f\n", "JAFAR blocks + CPU merge",
              jafar_total_ms, bench::Ms(cpu.duration_ps) / jafar_total_ms);
  uint32_t block_levels = 0;
  while ((uint64_t{1} << block_levels) < block) ++block_levels;
  std::printf(
      "\nExpected: the device removes the first log2(block) = %u of %u merge\n"
      "levels (plus all their branch mispredicts); the remaining CPU merge\n"
      "dominates the total — sorting is a partial, not headline, NDP win.\n",
      block_levels, block_levels + merge_levels);
  return 0;
}
