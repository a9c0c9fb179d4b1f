#include "core/scheduler.h"

#include <algorithm>

namespace ndp::core {

uint64_t RowsPerLeaseCycles(const dram::DramTiming& t,
                            const jafar::DeviceConfig& dev,
                            uint64_t lease_bus_cycles) {
  // Burst rate: 8 rows per tCCD bus cycles; subtract the per-page invocation
  // overhead (one device job per 4 KB page).
  uint64_t rows_per_page = 4096 / dev.elem_bytes;
  // Invocation overhead is in device cycles; convert to bus cycles.
  uint64_t overhead_bus_cycles =
      (jafar::kInvocationOverheadCycles * dev.clock.period_ps() + t.tck_ps - 1) /
      t.tck_ps;
  uint64_t cycles_per_page = rows_per_page / 8 * t.tccd + overhead_bus_cycles;
  uint64_t pages = lease_bus_cycles / std::max<uint64_t>(1, cycles_per_page);
  if (pages == 0) pages = 1;
  return pages * rows_per_page;
}

uint64_t NdpScheduler::RowsPerLease() const {
  return RowsPerLeaseCycles(system_->config().dram_timing,
                            system_->jafar().config(),
                            config_.lease_bus_cycles);
}

Result<NdpScheduler::SlicedResult> NdpScheduler::RunSlicedSelect(
    const db::Column& col, int64_t lo, int64_t hi) {
  uint64_t col_base = system_->PinColumn(col);
  uint64_t bitmap = system_->Allocate((col.size() + 7) / 8 + 64, 4096);
  uint64_t rows_per_slice = RowsPerLease();
  sim::EventQueue& eq = system_->eq();
  sim::Tick window_ps =
      config_.host_window_bus_cycles * system_->config().dram_timing.tck_ps;

  SlicedResult result;
  sim::Tick start = eq.Now();
  for (uint64_t row = 0; row < col.size(); row += rows_per_slice) {
    jafar::SelectJob job;
    job.col_base = col_base + row * 8;
    job.num_rows = std::min<uint64_t>(rows_per_slice, col.size() - row);
    job.range_low = lo;
    job.range_high = hi;
    job.out_base = bitmap + row / 8;
    NDP_ASSIGN_OR_RETURN(SystemModel::OwnedRun run, system_->RunOwned(job));
    result.matches += run.completion.matches;
    ++result.slices;
    result.ownership_transfers += 2;
    // Guaranteed host window: the controller drains its queued requests.
    eq.RunUntil(eq.Now() + window_ps);
  }
  result.duration_ps = eq.Now() - start;
  return result;
}

}  // namespace ndp::core
