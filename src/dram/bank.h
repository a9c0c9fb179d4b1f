// Per-bank DRAM state machine. Tracks the open row and the earliest tick at
// which each command class may legally issue, enforcing tRCD/CL/tRP/tRAS and
// friends (paper §2.1). Shared by the memory controller and by JAFAR when it
// owns the rank, so both see identical device timing.
#pragma once

#include <algorithm>
#include <cstdint>

#include "dram/timing.h"
#include "sim/time.h"
#include "util/status.h"

namespace ndp::dram {

/// Timing of the per-bank comparator/accumulator datapath (the Membrane-style
/// v2 device generation), in bus-clock cycles. Derived by the accel layer
/// from the scheduled per-bank select kernel (jafar::DeviceConfig::DeriveBank)
/// and pushed into the rank before any kBankArm is issued — the DRAM layer
/// models the command flow, the accel layer owns the numbers.
struct BankFilterTiming {
  /// RD command to the burst's last match bit latched in the accumulator
  /// (internal CAS + the comparator pipeline; replaces CL + tBURST for
  /// filter-mode reads, whose data never leaves the bank).
  uint32_t fill_latency_cycles = 0;
  /// Minimum spacing between filter-mode RDs to the same bank (the per-bank
  /// comparator's throughput bound; replaces the rank-wide tCCD, which only
  /// governs the shared IO path).
  uint32_t min_rd_spacing_cycles = 0;
  /// Occupancy of the per-rank result bus while one accumulator drains on
  /// precharge (accumulator capacity / result-bus width).
  uint32_t drain_cycles = 0;

  bool valid() const {
    return fill_latency_cycles > 0 && min_rd_spacing_cycles > 0 &&
           drain_cycles > 0;
  }
};

/// \brief One DRAM bank: open/closed row plus timing windows in global ticks.
class Bank {
 public:
  Bank() = default;

  void Configure(const DramTiming* timing) {
    timing_ = timing;
    bus_ = timing->BusClock();
  }

  /// Installs the v2 comparator timing; required before Arm(). Not owned.
  void set_filter_timing(const BankFilterTiming* filter) { filter_ = filter; }

  bool has_open_row() const { return open_row_valid_; }
  uint32_t open_row() const { return open_row_; }

  /// Filter (v2 bank-level) state: while armed, RDs latch match bits into the
  /// bank's result accumulator instead of driving the IO bus, and the PRE that
  /// closes the row drains the accumulator over the per-rank result bus.
  bool armed() const { return armed_; }
  /// True while the accumulator holds match bits that have not drained yet.
  bool pending_fill() const { return pending_fill_; }
  /// Tick at which the last filter-mode RD's match bits are latched (PRE may
  /// not drain before this).
  sim::Tick fill_ready_at() const { return fill_ready_at_; }
  /// Called by the rank once the draining PRE has been granted the per-rank
  /// result bus and the accumulator contents are accounted for.
  void NoteAccumulatorDrained() { pending_fill_ = false; }

  /// Earliest tick an ACT to this bank may issue.
  sim::Tick CanActivateAt() const { return next_act_; }
  /// Earliest tick a RD/WR to this bank may issue (row must also be open).
  /// Armed banks additionally pace RDs at the comparator's throughput.
  sim::Tick CanReadAt() const {
    return armed_ ? std::max(next_read_, next_filter_read_) : next_read_;
  }
  sim::Tick CanWriteAt() const { return next_write_; }
  /// Earliest tick a PRE to this bank may issue.
  sim::Tick CanPrechargeAt() const { return next_pre_; }

  /// Applies an ACT issued at tick `t`. Caller must have verified legality.
  Status Activate(sim::Tick t, uint32_t row);
  /// Applies a RD issued at `t`. Returns tick at which the burst's last data
  /// beat has been transferred — or, when armed, the tick at which the
  /// burst's match bits are latched in the accumulator (no IO-bus traffic).
  Result<sim::Tick> Read(sim::Tick t);
  Result<sim::Tick> Write(sim::Tick t);
  Status Precharge(sim::Tick t);
  /// Applies a refresh spanning [t, t + tRFC); bank must be precharged.
  Status Refresh(sim::Tick t);

  /// Switches the bank's comparator into filter mode (kBankArm). The bank
  /// must be precharged and not already armed; filter timing must have been
  /// installed.
  Status Arm(sim::Tick t);
  /// Leaves filter mode (kBankDisarm), discarding any pending accumulator.
  Status Disarm(sim::Tick t);
  /// Out-of-band force-release on job abort: clears filter state without a
  /// command (the device's reset line, not part of the JEDEC command flow).
  void ResetFilter() {
    armed_ = false;
    pending_fill_ = false;
  }

  /// Row-activation count (performance counter: row misses cost tRCD+tRP).
  uint64_t activate_count() const { return activate_count_; }

 private:
  sim::Tick Cycles(uint32_t n) const { return n * bus_.period_ps(); }

  const DramTiming* timing_ = nullptr;
  const BankFilterTiming* filter_ = nullptr;
  sim::ClockDomain bus_;
  bool open_row_valid_ = false;
  uint32_t open_row_ = 0;
  sim::Tick next_act_ = 0;
  sim::Tick next_read_ = 0;
  sim::Tick next_write_ = 0;
  sim::Tick next_pre_ = 0;
  uint64_t activate_count_ = 0;

  // v2 bank-level filter (Membrane-style) accumulator state.
  bool armed_ = false;
  bool pending_fill_ = false;
  sim::Tick fill_ready_at_ = 0;
  sim::Tick next_filter_read_ = 0;
};

}  // namespace ndp::dram
