// JAFAR device configuration. The datapath throughput is DERIVED from the
// Aladdin-style schedule of the select kernel (src/accel), never hard-coded:
// DeviceConfig::Derive runs the scheduler and converts its words-per-cycle
// into the device's per-word processing time at the JAFAR clock (2x the DDR3
// data bus clock, §2.2).
#pragma once

#include <cstdint>

#include "accel/schedule.h"
#include "dram/bank.h"
#include "dram/timing.h"
#include "jafar/generation.h"
#include "sim/time.h"
#include "util/status.h"

namespace ndp::jafar {

/// Fixed per-invocation latency in device cycles (command register writes,
/// address setup).
inline constexpr uint32_t kInvocationOverheadCycles = 64;

/// Bitonic sorter block size in elements (§4 Sorting). 1024 x 8 B = 8 KB,
/// exactly one DRAM row: a block is read, sorted in device SRAM, and written
/// back as one sorted run.
inline constexpr uint32_t kSortBlockElems = 1024;

/// \brief Static configuration of one JAFAR unit (one per DIMM/rank).
struct DeviceConfig {
  /// Which datapath generation this unit instantiates (see generation.h).
  /// The shell is identical across generations; the Device constructor
  /// dispatches on this exactly once, creating the v2 scan sequencer or not.
  DeviceGeneration generation = DeviceGeneration::kV1RankIo;

  /// JAFAR generates its own clock at twice the data bus clock (§2.2).
  sim::ClockDomain clock = sim::ClockDomain(625);  // 1.6 GHz for DDR3-1600

  /// Words processed per JAFAR cycle, from the accel schedule (1.0 for the
  /// two-ALU range-filter datapath).
  double words_per_cycle = 1.0;

  /// Output bitmap buffer size n in bits (§2.2: "the output buffer holds n
  /// bits"; written back to DRAM each time it fills).
  uint32_t output_buffer_bits = 4096;

  /// Element width of column values. The paper operates on 64-bit words.
  uint32_t elem_bytes = 8;

  /// Dynamic energy per processed word, femtojoules (from the accel model).
  double energy_per_word_fj = 0.0;

  /// When true, JAFAR requires MR3/MPR rank ownership before running; when
  /// false it runs "politely", issuing commands only while the host memory
  /// controller is idle (the §3.3 no-scheduler scenario). A v2 bank-level
  /// device rejects every job unless this is true: its armed-bank waves
  /// cannot yield to host traffic mid-wave.
  bool require_ownership = true;

  /// Parallel compare-exchange units in the sorter network.
  // ndp-lint: never-set-ok sort_test sweeps the sorter width (4 vs 64)
  uint32_t sort_comparators = 16;

  /// Hash-bucket SRAM of the grouped-aggregation engine (§4: hardware limits
  /// the bucket count; larger key domains need hierarchical passes).
  // ndp-lint: never-set-ok groupby_test shrinks it to reach multi-pass cheaply
  uint32_t groupby_buckets = 256;

  // -- Semijoin probe engine (JSPIM-style; filled by Derive/DeriveBank from
  //    the schedule of MakeProbeKernel(kProbeHashes)) -----------------------

  /// Join keys the probe datapath evaluates per JAFAR cycle (rank IO path).
  double probe_words_per_cycle = 0.0;
  /// Dynamic energy per probed key, femtojoules.
  double probe_energy_per_word_fj = 0.0;
  /// Same pair through one bank's probe slice (v2 generation).
  double bank_probe_words_per_cycle = 0.0;
  double bank_probe_energy_per_word_fj = 0.0;

  // -- v2 bank-level datapath (valid only when generation == kV2BankLevel;
  //    filled by DeriveBank from the per-bank comparator schedule) ----------

  /// Words one bank's comparator evaluates per JAFAR cycle.
  double bank_words_per_cycle = 0.0;
  /// Dynamic energy per word through one bank comparator, femtojoules.
  double bank_energy_per_word_fj = 0.0;
  /// Command-flow timing pushed into the DRAM model (bus-clock cycles).
  dram::BankFilterTiming bank_filter;
  /// Largest contiguous scan the sequencer covers per invocation, in bytes;
  /// the driver batches min(this, remainder) per device job. 0 means "no
  /// preference" and the driver falls back to its per-page granularity.
  /// DeriveBank sets one row per bank (banks_per_rank * row_size_bytes) —
  /// a job any smaller than a full wave can never arm every bank, so the
  /// v2 datapath would serialize segment by segment.
  uint64_t scan_chunk_bytes = 0;

  /// Device cycles to sort one block of `elems` (<= kSortBlockElems)
  /// through the bitonic network: stages(n) = log2(n)*(log2(n)+1)/2, each
  /// stage performing n/2 compare-exchanges on sort_comparators units.
  uint64_t SortBlockCycles(uint32_t elems) const;

  /// Derives a config from the DRAM speed grade and a scheduled datapath.
  static DeviceConfig FromDatapath(const accel::DatapathSummary& datapath,
                                   const dram::DramTiming& timing);

  /// Convenience: schedules `resources` on the range-select kernel and builds
  /// the config from the result.
  static Result<DeviceConfig> Derive(const dram::DramTiming& timing,
                                     const accel::DatapathResources& resources);

  /// Derives a v2 (bank-level) config: the shell and IO-path engines keep the
  /// rank datapath from Derive(), and the per-bank comparator rate, energy
  /// and command-flow timing (fill latency, RD pacing, drain occupancy) come
  /// from scheduling the same select kernel on an area-constrained per-bank
  /// slice of `rank_resources` — never from hand-picked constants.
  static Result<DeviceConfig> DeriveBank(
      const dram::DramTiming& timing, const dram::DramOrganization& org,
      const accel::DatapathResources& rank_resources);

  /// Picoseconds JAFAR needs to process one burst of `words` words.
  sim::Tick BurstProcessingPs(uint32_t words) const;

  /// Same, through one bank's comparator (v2 generation).
  sim::Tick BankBurstProcessingPs(uint32_t words) const;

  /// Picoseconds the probe engine needs for one burst of `words` join keys.
  sim::Tick ProbeBurstProcessingPs(uint32_t words) const;

  /// Same, through one bank's probe slice (v2 generation).
  sim::Tick BankProbeBurstProcessingPs(uint32_t words) const;
};

}  // namespace ndp::jafar
