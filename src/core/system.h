// SystemModel: one fully-wired simulated machine — event queue, DRAM system,
// cache hierarchy, out-of-order core, and a JAFAR unit with its driver — plus
// timed entry points for the experiments: µop streams on the core (CPU
// selects, database-trace replay) and JAFAR jobs under the MR3 ownership
// hand-off (selects).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/platform.h"
#include "cpu/core.h"
#include "cpu/hierarchy.h"
#include "cpu/kernels.h"
#include "db/operators.h"
#include "dram/dram_system.h"
#include "fault/injector.h"
#include "jafar/driver.h"
#include "util/stats_registry.h"

namespace ndp::core {

/// \brief A complete simulated system instantiated from a PlatformConfig.
class SystemModel {
 public:
  explicit SystemModel(PlatformConfig config);
  NDP_DISALLOW_COPY_AND_ASSIGN(SystemModel);

  const PlatformConfig& config() const { return config_; }
  sim::EventQueue& eq() { return eq_; }
  dram::DramSystem& dram() { return *dram_; }
  cpu::Core& cpu() { return *core_; }
  cpu::CacheHierarchy& caches() { return *hierarchy_; }
  jafar::Device& jafar() { return *device_; }
  jafar::Driver& driver() { return *driver_; }

  /// Bump-allocates physical memory in the JAFAR-equipped rank (channel 0,
  /// rank 0). Page-aligned by default.
  uint64_t Allocate(uint64_t bytes, uint64_t align = 4096);

  /// Ensures `col`'s values are resident in the backing store; returns the
  /// physical base address (stable per column; "pinned", §4 Memory
  /// Management).
  uint64_t PinColumn(const db::Column& col);

  struct CpuRunResult {
    sim::Tick duration_ps = 0;
    cpu::CoreStats stats;        ///< per-run core stats (snapshot delta)
    uint64_t matches = 0;
    /// Full-registry delta over the timed region: every counter in the
    /// system (caches, controllers, JAFAR) attributable to this run.
    StatsSnapshot counters;
  };

  /// Times the CPU select loop over `col` (lo <= v <= hi), with or without
  /// predication (§3.2). Caches can be optionally invalidated first so every
  /// run starts cold, as a fresh query on a large dataset would.
  Result<CpuRunResult> RunCpuSelect(const db::Column& col, int64_t lo,
                                    int64_t hi, db::SelectMode mode,
                                    bool cold_caches = true);

  /// Replays a recorded database trace through the core + memory system.
  Result<CpuRunResult> ReplayTrace(const std::vector<cpu::TraceEvent>& events,
                                   bool cold_caches = true);

  /// Times an arbitrary µop stream on the core. The one CPU timing protocol:
  /// RunCpuSelect and ReplayTrace build their stream and call it, and so do
  /// benches and tests with custom kernels.
  Result<CpuRunResult> RunStream(cpu::UopStream* stream,
                                 bool cold_caches = true);

  struct JafarRunResult {
    sim::Tick duration_ps = 0;       ///< end-to-end, including ownership
    sim::Tick ownership_ps = 0;      ///< MR3 hand-off round trip
    uint64_t matches = 0;
    uint64_t bitmap_addr = 0;
    jafar::DeviceStats stats;        ///< device counters for this run (delta)
    /// Full-registry delta over the timed region (see CpuRunResult).
    StatsSnapshot counters;
  };

  /// Times a full JAFAR select: RunOwned of the paged Figure-2 API over the
  /// pinned column. The CPU spin-waits (no contention), as in the Figure 3
  /// experiment.
  Result<JafarRunResult> RunJafarSelect(const db::Column& col, int64_t lo,
                                        int64_t hi);

  struct OwnedRun {
    sim::Tick start = 0;     ///< ownership requested
    sim::Tick acquired = 0;  ///< the MRS took effect: JAFAR owns the rank
    sim::Tick released = 0;  ///< the rank is back with the host
    jafar::Completion completion;
  };

  /// One §2.2 ownership grant around one job: acquire the JAFAR rank through
  /// MR3, run `job` through the driver, release the rank. The rank is
  /// released on failure too, and a failed job returns its non-OK status.
  Result<OwnedRun> RunOwned(const jafar::JobDescriptor& job);

  /// Builds an NDP pushdown hook for db::QueryContext::ndp_select that
  /// executes selects on this system's JAFAR unit. Only kBetween/kEq/kLe/kGe/
  /// kLt/kGt predicates are pushable; others return an error (CPU fallback).
  ///
  /// Graceful degradation: device failures that survive the driver's retry
  /// budget bump `pushdown_fallbacks` and return an error so the operator
  /// layer transparently re-executes on the CPU scalar path (bit-identical
  /// results). After `kDegradeThreshold` consecutive failures the hook trips
  /// into degraded mode (gauge `system.core.degraded_mode` = 1) and declines
  /// immediately, probing the device again every `kProbeInterval`-th call.
  db::NdpSelectHook MakePushdownHook();

  /// True while the pushdown hook is declining JAFAR (circuit breaker open).
  bool degraded_mode() const { return degraded_mode_ != 0; }

  /// Seeded fault source attached to the JAFAR device, or null when the
  /// configured PlatformConfig::fault_plan is inactive or fault injection is
  /// compiled out.
  fault::FaultInjector* fault_injector() { return injector_.get(); }

  /// gem5-style statistics dump: a sorted walk of the whole registry as
  /// "path value" lines (core, caches, memory controllers, JAFAR device).
  // ndp-lint: test-only-ok the stats dump determinism tests byte-compare
  std::string DumpStats() const;

  /// The hierarchical registry every component mounts its counters into
  /// (paths under "system."). Snapshot it around a region of interest and
  /// diff with StatsSnapshot::DeltaSince for attribution.
  const StatsRegistry& stats() const { return stats_; }
  StatsRegistry& stats() { return stats_; }

 private:
  /// Pumps the event queue until `done` is set; returns the tick at finish.
  sim::Tick PumpUntil(const bool* done);

  PlatformConfig config_;
  sim::EventQueue eq_;
  /// Declared before the components so it outlives them (components register
  /// pointers into it; nothing reads the registry during destruction).
  StatsRegistry stats_;
  std::unique_ptr<dram::DramSystem> dram_;
  std::unique_ptr<cpu::CacheHierarchy> hierarchy_;
  std::unique_ptr<cpu::Core> core_;
  jafar::DeviceConfig device_config_;
  /// Declared before device_: the device holds a raw pointer to the injector.
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<jafar::Device> device_;
  std::unique_ptr<jafar::Driver> driver_;

  // Pushdown health (registered under "system.core").
  uint64_t pushdown_fallbacks_ = 0;   ///< device failures rerouted to the CPU
  uint64_t degraded_mode_ = 0;        ///< gauge: 1 while the breaker is open
  uint64_t pushdown_probes_ = 0;      ///< degraded-mode trial dispatches
  uint32_t consecutive_failures_ = 0;

  uint64_t next_alloc_ = 0;
  std::unordered_map<const db::Column*, uint64_t> pinned_;
};

}  // namespace ndp::core
