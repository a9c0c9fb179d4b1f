// Time-sliced rank-ownership scheduling (§2.2, "Coordinating DRAM Access":
// "the query manager can grant 'ownership' of a DRAM rank to JAFAR for a
// specified number of cycles, knowing that JAFAR will finish its allotted
// work in that amount of time"). The NdpScheduler runs a select as a sequence
// of leases: acquire MR3/MPR ownership, process exactly the rows that fit the
// lease, release, and leave the host a guaranteed window to drain its queued
// requests — bounding the latency the co-running CPU workload observes.
#pragma once

#include <cstdint>

#include "core/system.h"

namespace ndp::core {

/// Rows JAFAR can stream within `lease_bus_cycles` of rank ownership (one
/// 8-row burst per tCCD, minus the per-page invocation overhead), rounded
/// down to whole 4 KB pages — at least one page. Shared between the fixed
/// time-slicing below and the adaptive runtime (core/runtime.h).
uint64_t RowsPerLeaseCycles(const dram::DramTiming& timing,
                            const jafar::DeviceConfig& dev,
                            uint64_t lease_bus_cycles);

struct SchedulerConfig {
  /// Ownership lease granted to JAFAR per slice, in DDR3 bus cycles.
  // ndp-lint: never-set-ok scheduler_test sweeps the lease (5k vs 50k)
  uint64_t lease_bus_cycles = 20000;
  /// Host window between leases (the controller drains its queues here).
  // ndp-lint: never-set-ok scheduler_test sets a window per swept lease
  uint64_t host_window_bus_cycles = 4000;
};

/// \brief Runs JAFAR jobs under time-sliced rank ownership.
class NdpScheduler {
 public:
  NdpScheduler(SystemModel* system, SchedulerConfig config)
      : system_(system), config_(config) {}

  struct SlicedResult {
    sim::Tick duration_ps = 0;
    uint64_t matches = 0;
    uint64_t slices = 0;
    uint64_t ownership_transfers = 0;  ///< MRS round trips (2 per slice)
  };

  /// Rows JAFAR can stream within one lease (one burst of 8 rows per tCCD,
  /// minus the invocation overhead), rounded down to whole 4 KB pages.
  uint64_t RowsPerLease() const;

  /// Runs `lo <= v <= hi` over `col` as leased slices, one
  /// SystemModel::RunOwned each. The host controller serves its queues
  /// between slices, so co-running CPU work on the same rank keeps
  /// progressing. A failed slice ends the run with its status.
  Result<SlicedResult> RunSlicedSelect(const db::Column& col, int64_t lo,
                                       int64_t hi);

  const SchedulerConfig& config() const { return config_; }

 private:
  SystemModel* system_;
  SchedulerConfig config_;
};

}  // namespace ndp::core
