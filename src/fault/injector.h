// FaultInjector: turns a FaultPlan into deterministic per-layer draw streams
// and counts every injected event in the stats registry ("system.fault.*").
//
// Each fault layer draws from its own PCG32 stream (same seed, distinct
// stream ids), so enabling one layer never perturbs another layer's sequence
// — a plan that only corrupts bitmaps injects the same corruptions whether or
// not ECC faults are also enabled. Draws happen in simulation event order,
// which is itself deterministic, so a (plan, workload) pair fully determines
// the fault sequence.
//
// A device with no injector attached (the default) takes no draws, so a run
// without a fault plan is byte-identical to one without the draw sites.
#pragma once

#include <cstdint>

#include "fault/fault_plan.h"
#include "util/rng.h"
#include "util/stats_registry.h"

namespace ndp::fault {

/// Classification of one read-burst draw (layer 1).
enum class ReadFault : uint8_t {
  kNone,
  kCorrectable,    ///< single-bit flip: SECDED corrects, scrub counter bumps
  kUncorrectable,  ///< double-bit flip: machine check, job must fail
};

/// \brief Seeded fault source. One per simulated system.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, const StatsScope& stats);
  NDP_DISALLOW_COPY_AND_ASSIGN(FaultInjector);

  const FaultPlan& plan() const { return plan_; }

  // -- Layer 1: DRAM read path ---------------------------------------------
  ReadFault DrawReadBurst();
  /// Codeword bit position for a correctable flip (0..71).
  uint32_t DrawEccBitPosition();
  /// Two distinct codeword positions for an uncorrectable double flip.
  void DrawEccDoubleFlip(uint32_t* a, uint32_t* b);

  // -- Layer 2: device ------------------------------------------------------
  bool DrawHangAtDispatch();
  bool DrawStallAtBurst();
  bool DrawCorruptAtFlush();
  /// Bit index to flip within a flushed bitmap region of `bits` bits.
  uint64_t DrawCorruptBit(uint64_t bits);

  // -- Layer 3: completion --------------------------------------------------
  bool DrawDropCompletion();

  /// Injected-event counters (also registered under the stats scope).
  struct Counters {
    uint64_t ecc_ce_injected = 0;
    uint64_t ecc_ue_injected = 0;
    uint64_t hangs_injected = 0;
    uint64_t stalls_injected = 0;
    uint64_t corruptions_injected = 0;
    uint64_t drops_injected = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  FaultPlan plan_;
  // Distinct streams per layer keep layers' draw sequences independent.
  Rng ecc_rng_;
  Rng device_rng_;
  Rng completion_rng_;
  Counters counters_;
};

}  // namespace ndp::fault
