// FaultPlan: the declarative description of a deterministic fault-injection
// campaign. A plan is a seed plus per-layer event probabilities; the
// FaultInjector turns it into seeded PCG32 draw streams, so two simulations
// configured with the same plan inject byte-identical fault sequences.
//
// Plans are built in code: benches and tests fill the struct directly (e.g.
// PlatformConfig::fault_plan, as abl_faults does). A plan is plain data, so
// each point of a parallel bench sweep carries its own copy.
//
// All probabilities are per draw site: ecc_* per DRAM read burst, hang/stall
// per device job (stall re-drawn per burst), corrupt per bitmap flush, drop
// per job completion. Everything defaults to zero; a plan with all-zero rates
// is inactive and the simulation takes no draws at all.
#pragma once

#include <cstdint>

#include "util/status.h"

namespace ndp::fault {

struct FaultPlan {
  /// Seed for the injector's PCG32 streams (one stream per fault layer).
  uint64_t seed = 20150601;

  // -- Layer 1: DRAM read path (shared IO buffer) ---------------------------
  /// Probability of a correctable single-bit flip per read burst.
  double ecc_ce_per_burst = 0.0;
  /// Probability of an uncorrectable double-bit flip per read burst.
  double ecc_ue_per_burst = 0.0;

  // -- Layer 2: JAFAR device ------------------------------------------------
  /// Probability that a job's command sequencer hangs at dispatch (the first
  /// step is never scheduled; only a watchdog can recover the device).
  double hang_per_job = 0.0;
  /// Probability, per processed burst, that the sequencer stalls mid-job
  /// (partial bitmap already written back).
  double stall_per_burst = 0.0;
  /// Probability, per output-bitmap flush, that one written bit is corrupted
  /// on the way back to DRAM (caught by the driver's writeback checksum).
  double corrupt_per_flush = 0.0;

  // -- Layer 3: completion signalling ---------------------------------------
  /// Probability that a job's completion callback is dropped (the job
  /// finishes; the driver is never told).
  double drop_per_completion = 0.0;

  /// True when any fault layer has a nonzero rate.
  bool active() const {
    return ecc_ce_per_burst > 0 || ecc_ue_per_burst > 0 || hang_per_job > 0 ||
           stall_per_burst > 0 || corrupt_per_flush > 0 ||
           drop_per_completion > 0;
  }

  /// Validates that every rate is a probability in [0, 1].
  Status Validate() const;
};

}  // namespace ndp::fault
