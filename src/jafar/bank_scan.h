// Internal: the v2 (bank-level) scan sequencer, Device::BankScan. Only
// device.cc and bank_scan.cc include this.
#pragma once

#include <cstdint>

#include "dram/address.h"
#include "jafar/device.h"
#include "util/stats_registry.h"

namespace ndp::jafar {

/// \brief Generation v2_bank_level: Membrane-style bank-level filtering.
/// Created by the Device constructor iff the generation is v2; runs every
/// scan job (select, row-store, probe) of that device.
class Device::BankScan {
 public:
  /// Installs the bank filter timing on the device's rank and registers the
  /// v2 counters, so a v1 device's stats dump carries no trace of them.
  BankScan(Device* dev, const StatsScope& stats);
  BankScan(const BankScan&) = delete;
  BankScan& operator=(const BankScan&) = delete;

  /// Starts the running scan job; ends it with FinishJob (or FailJob via the
  /// shell's fault paths).
  void Begin();

  /// Force-releases DRAM-side filter state on every job end. Idempotent;
  /// schedules nothing.
  void Teardown();

 private:
  struct Segment {
    uint64_t start = 0;  // first byte of the segment (within the scan range)
    uint64_t end = 0;    // one past the last byte
  };

  void StartWave();
  void RunSegment(const Segment& seg);
  void ArmSegment(dram::DramLocation loc, uint64_t first_burst,
                  uint32_t nbursts);
  void Reactivate(dram::DramLocation loc, uint64_t first_burst, uint32_t idx,
                  uint32_t nbursts);
  void ReadNext(dram::DramLocation loc, uint64_t first_burst, uint32_t idx,
                uint32_t nbursts);
  void DrainSegment(dram::DramLocation loc);
  void OnSegmentDone();
  void EvalRange(uint64_t last);

  Device* dev_;

  // Scan state staged by Begin (one job at a time, like the shell).
  uint64_t scan_end_ = 0;        ///< one past the scanned region's last byte
  uint64_t next_seg_start_ = 0;  ///< first byte not yet assigned to a wave
  uint64_t wave_covered_end_ = 0;  ///< bytes filtered once this wave drains
  uint32_t wave_pending_ = 0;      ///< segments still in flight in this wave

  uint64_t filter_bursts_ = 0;    ///< bursts consumed by in-bank comparators
  uint64_t filter_segments_ = 0;  ///< ARM..DISARM chains completed
  uint64_t bank_waves_ = 0;       ///< wave barriers crossed
};

}  // namespace ndp::jafar
