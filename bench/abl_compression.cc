// Ablation — §4 "Indexing and Compression": does NDP obviate compression?
// No — they compound. Frame-of-reference encoding halves the bytes any scan
// must stream, so the compressed JAFAR scan (packed 32-bit datapath on
// rewritten predicates) is ~2x faster again than the raw JAFAR scan, exactly
// as it is for the CPU.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/api.h"
#include "db/compression.h"

using namespace ndp;

int main() {
  const uint64_t rows = bench::EnvU64("ABL_ROWS", 1u << 20);
  bench::PrintHeader("Ablation — FOR compression x NDP (" +
                     std::to_string(rows) + " rows, 50% selectivity)");
  // Values in a narrow band around 5M: FOR-compressible to 32-bit deltas.
  db::Column col = db::Column::Int64("v");
  Rng rng(3);
  for (uint64_t i = 0; i < rows; ++i) {
    col.Append(5000000 + rng.NextInRange(0, 999999));
  }
  auto enc = db::ForEncodedColumn::Encode(col).ValueOrDie();
  int64_t vlo = 5000000, vhi = 5499999;
  int64_t clo, chi;
  NDP_CHECK(enc.CodeRangeFor(vlo, vhi, &clo, &chi));

  // (1) CPU on raw 64-bit data.
  core::SystemModel sys_raw(core::PlatformConfig::Gem5());
  auto cpu_raw = sys_raw.RunCpuSelect(col, vlo, vhi, db::SelectMode::kBranching)
                     .ValueOrDie();
  // (2) JAFAR on raw 64-bit data.
  auto jafar_raw = sys_raw.RunJafarSelect(col, vlo, vhi).ValueOrDie();

  // (3) JAFAR on FOR-encoded data (packed 32-bit lanes).
  core::PlatformConfig p = core::PlatformConfig::Gem5();
  core::SystemModel sys_enc(p);
  jafar::DeviceConfig dcfg = sys_enc.jafar().config();
  dcfg.elem_bytes = 4;
  jafar::Device enc_device(&sys_enc.dram(), 0, 0, dcfg);
  uint64_t code_base = sys_enc.Allocate(enc.SizeBytes(), 4096);
  sys_enc.dram().backing_store().Write(code_base, enc.codes(), enc.SizeBytes());
  uint64_t out = sys_enc.Allocate((rows + 7) / 8 + 64, 4096);
  bool granted = false;
  sys_enc.dram().controller(0).TransferOwnership(
      0, dram::RankOwner::kAccelerator, [&](sim::Tick) { granted = true; });
  sys_enc.eq().RunUntilTrue([&] { return granted; });
  jafar::SelectJob job;
  job.col_base = code_base;
  job.num_rows = rows;
  job.range_low = clo;
  job.range_high = chi;
  job.out_base = out;
  bool done = false;
  sim::Tick start = sys_enc.eq().Now(), end = 0;
  uint64_t enc_matches = 0;
  NDP_CHECK(enc_device.Start(job, [&](const jafar::Completion& c) {
    done = true;
    end = c.completed_at;
    enc_matches = c.matches;
  }).ok());
  sys_enc.eq().RunUntilTrue([&] { return done; });
  double jafar_enc_ms = bench::Ms(end - start);
  NDP_CHECK(enc_matches == cpu_raw.matches);
  NDP_CHECK(jafar_raw.matches == cpu_raw.matches);

  std::printf("\n%-40s %-12s %-12s %-14s\n", "configuration", "bytes_moved",
              "time_ms", "vs_cpu_raw");
  double cpu_ms = bench::Ms(cpu_raw.duration_ps);
  std::printf("%-40s %-12llu %-12.3f %-14.2f\n", "CPU, raw int64",
              (unsigned long long)(rows * 8), cpu_ms, 1.0);
  std::printf("%-40s %-12llu %-12.3f %-14.2f\n", "JAFAR, raw int64",
              (unsigned long long)(rows * 8), bench::Ms(jafar_raw.duration_ps),
              cpu_ms / bench::Ms(jafar_raw.duration_ps));
  std::printf("%-40s %-12llu %-12.3f %-14.2f\n",
              "JAFAR, FOR-encoded (32-bit lanes)",
              (unsigned long long)enc.SizeBytes(), jafar_enc_ms,
              cpu_ms / jafar_enc_ms);
  std::printf(
      "\nExpected: compression and NDP compound — the encoded NDP scan moves\n"
      "half the bytes and doubles the raw NDP speedup; NDP does not obviate\n"
      "compression (§4), it multiplies with it.\n");
  return 0;
}
