// Platform presets reproducing Table 1 of the paper: the gem5-like simulated
// system used to isolate JAFAR's raw performance (Figure 3), and the Xeon
// E7-4820 v2-class system used to profile memory-controller idle periods
// (Figure 4). Capacities of the simulated DRAM are scaled down (the backing
// store is sparse, but simulating billions of rows is unnecessary — the
// paper itself uses sampling, §3.1).
#pragma once

#include <string>
#include <vector>

#include "accel/ir.h"
#include "cpu/cache.h"
#include "cpu/core.h"
#include "dram/address.h"
#include "dram/timing.h"
#include "fault/fault_plan.h"
#include "jafar/config.h"
#include "jafar/driver.h"

namespace ndp::core {

/// \brief Everything needed to instantiate a simulated system.
struct PlatformConfig {
  std::string name;
  cpu::CoreConfig core;
  std::vector<cpu::CacheConfig> caches;  ///< L1 first
  sim::Tick frontside_ps = 8000;         ///< LLC-to-memory-controller latency
  dram::DramTiming dram_timing;
  dram::DramOrganization dram_org;
  dram::InterleaveScheme interleave = dram::InterleaveScheme::kContiguous;
  accel::DatapathResources jafar_datapath;  ///< for DeviceConfig::Derive
  /// Which JAFAR datapath generation the DIMM carries: v1_rank_io (the
  /// paper's rank-level comparator, the default) or v2_bank_level
  /// (Membrane-style per-bank filtering). SystemModel picks the matching
  /// DeviceConfig deriver.
  jafar::DeviceGeneration device_gen = jafar::DeviceGeneration::kV1RankIo;
  jafar::DriverConfig driver;               ///< page size, watchdog, retries

  /// Fault-injection campaign (src/fault). Defaults to inactive (all-zero
  /// rates); benches and tests set it programmatically. SystemModel dies on
  /// a plan that fails FaultPlan::Validate, active or not.
  fault::FaultPlan fault_plan;

  /// Table 1, left column: one 1 GHz out-of-order core, 64 kB L1 + 128 kB L2,
  /// 2 GB DDR3 (capacity scaled in simulation), no prefetching — "fairly
  /// simple in order to isolate the raw performance improvement".
  static PlatformConfig Gem5();

  /// Table 1, right column: Xeon E7-4820 v2-class — 2 GHz, 256 kB L1 / 2 MB
  /// L2 / 16 MB L3 slices, multi-channel DDR3 with prefetching.
  static PlatformConfig Xeon();

  /// Renders the platform as a Table 1-style specification block.
  std::string ToString() const;
};

}  // namespace ndp::core
