// JEDEC DDR3 protocol checker: a shadow observer that replays every command
// issued on a channel through its own independent per-bank / per-rank state
// machines and validates the full constraint set of dram/timing.h — tRCD,
// CL/CWL (as data-bus occupancy), tRP, tRAS, tRC, tRRD, tFAW, tCCD, tWTR,
// tRTP, tWR, tRFC, tMRD, refresh-interval legality, plus bank-state and
// command-bus legality.
//
// The checker deliberately shares no code with Bank/Rank/Channel: those
// classes *schedule* commands, this one *audits* them, so a scheduler bug
// (e.g. a window the controller forgot to honour) cannot silently vanish by
// being wrong in both places the same way.
//
// Two ways to use it:
//   * Standalone (any build): construct, Configure(), feed Observe(cmd, t).
//     Violations accumulate in violations(); tests inject deliberate
//     protocol errors and assert the checker flags exactly that rule.
//   * Attached (NDP_PROTOCOL_CHECK builds only): every Channel owns one and
//     forwards each successfully issued command from Channel::Issue. The
//     attached checker fail-fasts by default, so an illegal schedule aborts
//     the simulation at the offending command with full context.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "dram/bank.h"  // BankFilterTiming (a parameter block, not state-machine code)
#include "dram/command.h"
#include "dram/timing.h"
#include "sim/time.h"

namespace ndp::dram {

/// The individual JEDEC constraint (or structural rule) a violation breaks.
enum class TimingRule : uint8_t {
  kBankState,  ///< command illegal in the bank's current open/closed state
  kTrcd,       ///< ACT to RD/WR, same bank
  kTrp,        ///< PRE to ACT, same bank
  kTras,       ///< ACT to PRE, same bank
  kTrc,        ///< ACT to ACT, same bank
  kTrrd,       ///< ACT to ACT, different banks of one rank
  kTfaw,       ///< more than four ACTs inside one tFAW window
  kTccd,       ///< column command to column command, same rank
  kTwtr,       ///< end of write data to next RD, same rank
  kTrtp,       ///< RD to PRE, same bank
  kTwr,        ///< end of write data to PRE, same bank
  kTrfc,       ///< command to a rank still inside a refresh
  kTrefi,      ///< rank went > 9 x tREFI without a refresh
  kTmrd,       ///< command too soon after a mode-register set
  kDataBus,    ///< CL/CWL-projected data bursts overlap on the channel bus
  kCmdBus,     ///< two commands in one bus cycle, or off-edge issue tick
  // v2 bank-level filtering (kBankArm/kBankDisarm command flow):
  kBankArm,        ///< ARM/DISARM illegal in the bank's current filter state
  kDrainTooEarly,  ///< draining PRE before the last match bits latched
  kResultBus,      ///< two accumulator drains overlap on the rank result bus
  kRefreshArmed,   ///< REF to a rank with armed banks
  // Semijoin probe filter-load window (the probe engine streams its Bloom
  // image from DRAM into device SRAM before the scan; a concurrent writer
  // or ARM would tear the image mid-latch):
  kProbeWrDuringLoad,   ///< WR to the rank while the filter image is loading
  kProbeArmDuringLoad,  ///< bank ARM while the filter image is loading
  kProbeReentrantLoad,  ///< filter load started while one is already active
};

const char* TimingRuleToString(TimingRule rule);

/// One audited protocol violation: which rule, when, where, and the offending
/// command pair (the command that broke the rule and the prior command that
/// opened the still-running window).
struct ProtocolViolation {
  TimingRule rule;
  sim::Tick tick = 0;      ///< issue tick of the offending command
  uint64_t bus_cycle = 0;  ///< same, in bus-clock cycles
  uint32_t rank = 0;
  uint32_t bank = 0;       ///< 0 for rank-wide commands (REF/MRS)
  std::string message;     ///< human-readable "X @cycle N after Y @cycle M"

  std::string ToString() const;
};

/// \brief Shadow DDR3 protocol auditor for one channel.
class ProtocolChecker {
 public:
  ProtocolChecker() = default;

  /// Must be called before Observe(). `timing`/`org` must outlive the checker.
  void Configure(const DramTiming* timing, const DramOrganization* org);

  /// Abort (with the violation's full context) on the first violation instead
  /// of recording it. Off for standalone use; Channel-attached checkers
  /// enable it so test/debug builds fail at the offending command.
  void set_fail_fast(bool on) { fail_fast_ = on; }
  /// Enforce the tREFI rule. Off by default: benches may legitimately run
  /// with refresh disabled, and short runs never reach a refresh deadline.
  void set_expect_refresh(bool on) { expect_refresh_ = on; }

  /// Installs the v2 per-bank comparator timing for one rank, enabling the
  /// filter-flow rules (drain legality, result-bus arbitration, filter-RD
  /// pacing). Without it, any kBankArm is itself flagged.
  void set_bank_filter_timing(uint32_t rank, const BankFilterTiming* filter);

  /// Mirrors the device's out-of-band filter reset on job abort: clears the
  /// shadow armed/pending state so the audit doesn't diverge from hardware.
  void NoteBankFilterReset(uint32_t rank);

  /// Mirrors the probe engine's Bloom filter-image load window. Between Start
  /// and Done the engine is latching DRAM reads into its filter SRAM: a WR to
  /// the rank or a bank ARM inside the window would tear the image, and a
  /// second Start before Done means two engines race one SRAM port.
  void NoteProbeFilterLoadStart(uint32_t rank, sim::Tick t);
  void NoteProbeFilterLoadDone(uint32_t rank);

  /// Audits one command issued at tick `t` and updates the shadow state.
  /// Call in issue order (non-decreasing `t`).
  void Observe(const Command& cmd, sim::Tick t);

  const std::vector<ProtocolViolation>& violations() const {
    return violations_;
  }
  uint64_t commands_observed() const { return commands_observed_; }

  /// All recorded violations, one per line (empty string when clean).
  // ndp-lint: test-only-ok formats violations for test failure messages
  std::string Report() const;

 private:
  /// Sentinel for "this command has never been observed".
  static constexpr sim::Tick kNever = ~sim::Tick{0};

  struct BankState {
    bool row_open = false;
    uint32_t row = 0;
    sim::Tick last_act = kNever;
    sim::Tick last_pre = kNever;       ///< issue tick of the closing PRE
    sim::Tick last_read = kNever;
    sim::Tick write_data_end = kNever; ///< last WR's final data-beat tick
    // v2 filter-mode shadow state.
    bool armed = false;
    bool pending_fill = false;             ///< accumulator holds undrained bits
    sim::Tick fill_ready = kNever;         ///< last filter RD's latch tick
    sim::Tick last_filter_read = kNever;   ///< comparator-rate pacing audit
  };

  struct RankState {
    std::vector<BankState> banks;
    sim::Tick last_act_any = kNever;        ///< tRRD window
    std::deque<sim::Tick> act_history;      ///< last 4 ACTs, for tFAW
    sim::Tick last_column_cmd = kNever;     ///< tCCD window
    sim::Tick write_data_end_any = kNever;  ///< tWTR window
    sim::Tick refresh_end = kNever;         ///< tRFC window ([REF, REF+tRFC))
    sim::Tick last_refresh = kNever;        ///< tREFI audit
    sim::Tick last_mrs = kNever;            ///< tMRD window
    bool refresh_overdue_flagged = false;   ///< one tREFI report per lapse
    sim::Tick result_bus_end = kNever;      ///< current drain's last beat
    // Probe filter-load window shadow state.
    bool probe_load_active = false;
    sim::Tick probe_load_start = kNever;
  };

  sim::Tick Cycles(uint32_t n) const;
  uint64_t CycleOf(sim::Tick t) const;
  std::string Describe(const Command& cmd, sim::Tick t) const;

  /// Records (or fail-fasts on) a violation of `rule` by `cmd` at `t`.
  /// `since` is the issue/end tick of the prior command that opened the
  /// window (kNever if not applicable); `what` names that prior event.
  void Flag(TimingRule rule, const Command& cmd, sim::Tick t, sim::Tick since,
            const char* what);

  /// Per-command audits. Each checks every applicable window, then commits
  /// the command to the shadow state.
  void ObserveActivate(const Command& cmd, sim::Tick t, RankState& rank);
  void ObserveColumn(const Command& cmd, sim::Tick t, RankState& rank);
  void ObservePrecharge(const Command& cmd, sim::Tick t, RankState& rank);
  void ObserveRefresh(const Command& cmd, sim::Tick t, RankState& rank);
  void ObserveModeRegSet(const Command& cmd, sim::Tick t, RankState& rank);
  void ObserveBankArm(const Command& cmd, sim::Tick t, RankState& rank);
  void ObserveBankDisarm(const Command& cmd, sim::Tick t, RankState& rank);

  const DramTiming* timing_ = nullptr;
  const DramOrganization* org_ = nullptr;
  sim::Tick tck_ = 1;
  bool fail_fast_ = false;
  bool expect_refresh_ = false;

  std::vector<RankState> ranks_;
  /// Per-rank v2 comparator timing (null until installed). Not owned.
  std::vector<const BankFilterTiming*> filters_;
  sim::Tick last_cmd_tick_ = kNever;   ///< channel command-bus audit
  sim::Tick data_bus_busy_end_ = 0;    ///< channel data-bus audit (CL/CWL)
  uint64_t commands_observed_ = 0;
  std::vector<ProtocolViolation> violations_;
};

}  // namespace ndp::dram
