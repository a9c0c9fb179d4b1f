// Ablation A3 — handling data interleaving (§2.2). When column data is
// word-interleaved across two DIMMs, each DIMM's JAFAR sees a contiguous
// stream of every-other logical row and must merge its bitmap bits under a
// mask. Alternatives compared:
//   (a) contiguous layout, one JAFAR scans everything;
//   (b) word-interleaved across 2 DIMMs, two JAFARs run in parallel with
//       masked bitmap write-back (write amplification on the shared bitmap);
//   (c) storage-engine shuffle to contiguous (the NDA-style approach the
//       paper cites), paying a one-time CPU pass first.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/api.h"

using namespace ndp;

namespace {

struct TwoDimmSystem {
  sim::EventQueue eq;
  std::unique_ptr<dram::DramSystem> dram;
  std::unique_ptr<jafar::Device> dev0, dev1;

  explicit TwoDimmSystem(const jafar::DeviceConfig& cfg) {
    dram::DramOrganization org;
    org.channels = 2;
    org.rows_per_bank = 8192;
    dram = std::make_unique<dram::DramSystem>(
        &eq, dram::DramTiming::DDR3_1600(), org,
        dram::InterleaveScheme::kContiguous, dram::ControllerConfig{});
    dev0 = std::make_unique<jafar::Device>(dram.get(), 0, 0, cfg);
    dev1 = std::make_unique<jafar::Device>(dram.get(), 1, 0, cfg);
    for (auto* d : {dev0.get(), dev1.get()}) {
      bool granted = false;
      dram->controller(d->channel_index())
          .TransferOwnership(0, dram::RankOwner::kAccelerator,
                             [&](sim::Tick) { granted = true; });
      eq.RunUntilTrue([&] { return granted; });
    }
  }
};

}  // namespace

int main() {
  const uint64_t rows = bench::EnvU64("ABL_ROWS", 1u << 20);
  bench::PrintHeader("Ablation A3 — DIMM interleaving strategies (" +
                     std::to_string(rows) + " rows)");
  db::Column col = bench::UniformColumn(rows);
  auto cfg = jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                         accel::DatapathResources{})
                 .ValueOrDie();

  // (a) Contiguous, single device.
  double contiguous_ms;
  uint64_t matches_a;
  {
    TwoDimmSystem sys(cfg);
    sys.dram->backing_store().Write(0, col.data(), col.SizeBytes());
    jafar::SelectJob job;
    job.col_base = 0;
    job.num_rows = rows;
    job.range_low = 0;
    job.range_high = 499999;
    job.out_base = 1ull << 28;
    bool done = false;
    sim::Tick end = 0;
    NDP_CHECK(sys.dev0->Start(job, [&](const jafar::Completion& c) {
      done = true;
      end = c.completed_at;
      matches_a = c.matches;
    }).ok());
    sys.eq.RunUntilTrue([&] { return done; });
    contiguous_ms = bench::Ms(end);
  }

  // (b) Word-interleaved across two DIMMs: device k scans the logical rows
  // 2i+k (each DIMM's share is physically contiguous on that DIMM), and both
  // merge into the same logical bitmap with complementary masks.
  double interleaved_ms;
  uint64_t matches_b;
  {
    TwoDimmSystem sys(cfg);
    // Split the column: even rows to DIMM 0, odd rows to DIMM 1.
    std::vector<int64_t> even, odd;
    for (uint64_t i = 0; i < rows; ++i) {
      ((i % 2 == 0) ? even : odd).push_back(col[i]);
    }
    uint64_t dimm1_base = sys.dram->organization().BytesPerRank() *
                          sys.dram->organization().ranks_per_channel;
    sys.dram->backing_store().Write(0, even.data(), even.size() * 8);
    sys.dram->backing_store().Write(dimm1_base, odd.data(), odd.size() * 8);

    auto make_job = [&](uint64_t base, uint64_t n, uint64_t out,
                        uint64_t mask) {
      jafar::SelectJob job;
      job.col_base = base;
      job.num_rows = n;
      job.range_low = 0;
      job.range_high = 499999;
      job.out_base = out;
      job.masked_writeback = true;
      job.writeback_mask = mask;
      return job;
    };
    // Each device writes its own half-bitmap (in its own DIMM); a final
    // interleave of the two halves is the CPU's job, modeled as already
    // reflected in the masked write-back cost.
    bool d0 = false, d1 = false;
    sim::Tick end0 = 0, end1 = 0;
    matches_b = 0;
    NDP_CHECK(sys.dev0
                  ->Start(make_job(0, (rows + 1) / 2, 1ull << 28,
                                   0x5555555555555555ull),
                          [&](const jafar::Completion& c) {
                            d0 = true;
                            end0 = c.completed_at;
                            matches_b += c.matches;
                          })
                  .ok());
    NDP_CHECK(sys.dev1
                  ->Start(make_job(dimm1_base, rows / 2,
                                   dimm1_base + (1ull << 28),
                                   0xAAAAAAAAAAAAAAAAull),
                          [&](const jafar::Completion& c) {
                            d1 = true;
                            end1 = c.completed_at;
                            matches_b += c.matches;
                          })
                  .ok());
    sys.eq.RunUntilTrue([&] { return d0 && d1; });
    interleaved_ms = bench::Ms(std::max(end0, end1));
  }

  // (c) Shuffle-first: a CPU pass rewrites the column contiguously (modeled
  // as a streaming copy at one line per tCCD read + write), then case (a).
  dram::DramTiming t = dram::DramTiming::DDR3_1600();
  double shuffle_ms = static_cast<double>(rows * 8 / 64) * 2.0 *
                      static_cast<double>(t.tccd) *
                      static_cast<double>(t.tck_ps) / 1e9;
  double shuffled_total_ms = shuffle_ms + contiguous_ms;

  NDP_CHECK(matches_a == matches_b);
  std::printf("\n%-44s %-12s %-10s\n", "strategy", "time_ms", "vs_(a)");
  std::printf("%-44s %-12.3f %-10.2f\n",
              "(a) contiguous, 1 JAFAR", contiguous_ms, 1.0);
  std::printf("%-44s %-12.3f %-10.2f\n",
              "(b) word-interleaved, 2 JAFARs + masked WB", interleaved_ms,
              interleaved_ms / contiguous_ms);
  std::printf("%-44s %-12.3f %-10.2f\n",
              "(c) shuffle to contiguous first, then (a)", shuffled_total_ms,
              shuffled_total_ms / contiguous_ms);
  std::printf(
      "\nExpected: (b) approaches 0.5x of (a) — interleaving buys DIMM-level\n"
      "parallelism and the masked write-back overhead is minor; (c) pays a\n"
      "full extra pass over the data up front.\n");
  return 0;
}
