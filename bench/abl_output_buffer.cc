// Ablation A1 — output bitmap buffer size n (§2.2: "the output buffer holds
// n bits ... every n cycles the output buffer is fully filled and its
// contents are written back to DRAM"). Each flush interrupts the read stream
// (write bursts + write-to-read turnaround), so a larger buffer amortizes
// those interruptions at the cost of device area.
//
// This ablation drives the device directly with one large job; through the
// Figure-2 paged API the effect disappears, because a 4 KB page holds only
// 512 values and every per-page job ends with a single partial flush no
// matter how large the buffer is — an interaction worth knowing about when
// sizing n (see EXPERIMENTS.md).
#include <cstdio>

#include "bench/bench_util.h"
#include "core/api.h"

using namespace ndp;

int main() {
  const uint64_t rows = bench::EnvU64("ABL_ROWS", 1u << 20);
  bench::PrintHeader("Ablation A1 — JAFAR output buffer size (" +
                     std::to_string(rows) +
                     " rows, single device job, 100% selectivity)");

  db::Column col = bench::UniformColumn(rows);
  std::printf("\n%-14s %-14s %-16s %-14s %-12s\n", "buffer_bits", "jafar_ms",
              "bursts_written", "activates", "vs_best");

  double best = 1e30;
  std::vector<std::tuple<uint32_t, double, uint64_t, uint64_t>> results;
  for (uint32_t bits : {512u, 1024u, 4096u, 16384u, 65536u, 262144u}) {
    sim::EventQueue eq;
    dram::DramOrganization org;
    org.rows_per_bank = 32768;
    dram::ControllerConfig mc;
    mc.refresh_enabled = false;
    dram::DramSystem dram(&eq, dram::DramTiming::DDR3_1600(), org,
                          dram::InterleaveScheme::kContiguous, mc);
    auto cfg = jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                           accel::DatapathResources{})
                   .ValueOrDie();
    cfg.output_buffer_bits = bits;
    jafar::Device device(&dram, 0, 0, cfg);
    bool granted = false;
    dram.controller(0).TransferOwnership(0, dram::RankOwner::kAccelerator,
                                         [&](sim::Tick) { granted = true; });
    eq.RunUntilTrue([&] { return granted; });
    dram.backing_store().Write(0, col.data(), col.SizeBytes());

    jafar::SelectJob job;
    job.col_base = 0;
    job.num_rows = rows;
    job.range_low = 0;
    job.range_high = 999999;
    job.out_base = 1ull << 27;
    bool done = false;
    sim::Tick start = eq.Now(), end = 0;
    NDP_CHECK(device.Start(job, [&](const jafar::Completion& c) {
      done = true;
      end = c.completed_at;
    }).ok());
    eq.RunUntilTrue([&] { return done; });
    double ms = bench::Ms(end - start);
    best = std::min(best, ms);
    results.emplace_back(bits, ms, device.stats().bursts_written,
                         device.stats().activates);
  }
  for (auto& [bits, ms, bw, acts] : results) {
    std::printf("%-14u %-14.3f %-16llu %-14llu %-12.3f\n", bits, ms,
                (unsigned long long)bw, (unsigned long long)acts, ms / best);
  }
  std::printf(
      "\nExpected: total write-back bursts are ~rows/512 regardless of n,\n"
      "but small buffers flush often, paying the write-to-read turnaround\n"
      "(tWTR) each time; beyond a few KB the effect saturates.\n");
  return 0;
}
