// Coordinating DRAM access (§2.2/§3.3 as a demo): a CPU workload and a JAFAR
// select share one channel. Shows the MR3/MPR ownership hand-off protocol,
// what the host controller does with requests while the rank is lent out, and
// the channel-level counters afterwards.
//
//   $ ./build/examples/mixed_contention
#include <cstdio>

#include "core/api.h"
#include "util/rng.h"

using namespace ndp;

int main() {
  db::Column col = db::Column::Int64("shared");
  Rng rng(7);
  for (int i = 0; i < 128 * 1024; ++i) col.Append(rng.NextInRange(0, 999999));

  core::PlatformConfig p = core::PlatformConfig::Gem5();
  p.dram_org.ranks_per_channel = 2;  // rank 0: JAFAR's DIMM, rank 1: CPU data
  core::SystemModel sys(p);
  uint64_t col_base = sys.PinColumn(col);
  uint64_t out = sys.Allocate((col.size() + 7) / 8 + 64, 4096);

  // CPU working set on the other rank.
  db::Column cpu_col = db::Column::Int64("cpu_side");
  for (int i = 0; i < 128 * 1024; ++i) cpu_col.Append(rng.NextInRange(0, 9));
  uint64_t rank1 = sys.dram().organization().BytesPerRank();
  sys.dram().backing_store().Write(rank1, cpu_col.data(), cpu_col.SizeBytes());

  std::printf("rank 0 owner before hand-off: %s\n",
              sys.dram().channel(0).rank(0).owner() == dram::RankOwner::kHost
                  ? "host memory controller"
                  : "accelerator");

  // Acquire ownership while the CPU is already streaming.
  cpu::AggregateScanStream cpu_stream(cpu_col.size(), rank1);
  bool cpu_done = false;
  NDP_CHECK(sys.cpu().Run(&cpu_stream, [&](sim::Tick) { cpu_done = true; }).ok());

  bool granted = false;
  sim::Tick grant_at = 0;
  sys.driver().AcquireOwnership([&](sim::Tick t) {
    granted = true;
    grant_at = t;
  });
  sys.eq().RunUntilTrue([&] { return granted; });
  std::printf("MR3/MPR hand-off completed at %.3f us of simulated time\n",
              static_cast<double>(grant_at) / 1e6);
  std::printf("rank 0 owner after hand-off : accelerator\n");

  jafar::SelectJob job;
  job.col_base = col_base;
  job.num_rows = col.size();
  job.range_low = 100000;
  job.range_high = 200000;
  job.out_base = out;
  bool done = false;
  sim::Tick start = sys.eq().Now(), end = 0;
  uint64_t matches = 0;
  NDP_CHECK(sys.jafar().Start(job, [&](const jafar::Completion& c) {
    done = true;
    end = c.completed_at;
    matches = c.matches;
  }).ok());
  sys.eq().RunUntilTrue([&] { return done; });
  std::printf("\nJAFAR filtered %llu rows in %.3f ms while the CPU streamed "
              "its own rank\n",
              static_cast<unsigned long long>(col.size()),
              static_cast<double>(end - start) / 1e9);
  std::printf("matches: %llu\n",
              static_cast<unsigned long long>(matches));

  bool released = false;
  sys.driver().ReleaseOwnership([&](sim::Tick) { released = true; });
  sys.eq().RunUntilTrue([&] { return released; });
  std::printf("ownership returned to the host controller\n");

  sys.eq().RunUntilTrue([&] { return cpu_done; });
  auto counters = sys.dram().TotalCounters();
  std::printf("\nchannel totals: %llu reads, %llu writes, %llu row hits, "
              "%llu conflicts\n",
              static_cast<unsigned long long>(counters.reads_served),
              static_cast<unsigned long long>(counters.writes_served),
              static_cast<unsigned long long>(counters.row_hits),
              static_cast<unsigned long long>(counters.row_conflicts));
  return 0;
}
