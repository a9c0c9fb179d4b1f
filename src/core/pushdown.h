// Select-pushdown planning: the hardware/software co-design glue. A cost
// model compares the CPU select path against the JAFAR path (including the
// rank-ownership hand-off) and the planner installs the NDP hook into a
// QueryContext only when pushing down is predicted to win.
#pragma once

#include <cstdint>
#include <string>

#include "core/system.h"

namespace ndp::core {

/// \brief Analytic cost model, calibrated by the platform's parameters.
///
/// CPU select: per-row pipeline cost plus memory-bandwidth-bound streaming of
/// the column through the cache hierarchy; an extra per-qualifying-row cost
/// for result recording (the §3.2 effect).
/// JAFAR select: one burst per tCCD plus bitmap write-back, row activations,
/// per-page invocation overhead, and the MR3 ownership round trip.
struct CostModel {
  /// Estimated CPU select time in picoseconds.
  static double CpuSelectPs(const PlatformConfig& p, uint64_t rows,
                            double selectivity);
  /// Estimated JAFAR select time in picoseconds (including ownership).
  static double JafarSelectPs(const PlatformConfig& p, uint64_t rows);
};

/// Outcome of a pushdown decision, for logging and tests.
struct PushdownDecision {
  bool use_jafar = false;
  double cpu_estimate_ps = 0;
  double jafar_estimate_ps = 0;
  std::string reason;
};

/// Rejects device select results that are not strictly increasing in-range
/// position lists (a faulted device leaking a partial/duplicated result
/// through recovery). Returning an error routes the select to the CPU path.
Status ValidatePushdownResult(const db::PositionList& positions,
                              uint64_t num_rows);

/// Lowers a column-store predicate to JAFAR's inclusive [lo, hi] range form
/// (both filter ALUs, §2.2). kNe is not expressible as one range and returns
/// Unimplemented — callers fall back to the CPU path.
Status PredToJafarRange(const db::Pred& pred, int64_t* lo, int64_t* hi);

/// \brief Decides, per select, whether to push down to JAFAR.
class PushdownPlanner {
 public:
  explicit PushdownPlanner(SystemModel* system) : system_(system) {}

  /// Decision for a select of `rows` rows at estimated `selectivity`.
  PushdownDecision Decide(uint64_t rows, double selectivity) const;

  /// Installs an NDP hook into `ctx` that consults the cost model per call
  /// (selectivity estimate: `default_selectivity`).
  void Install(db::QueryContext* ctx, double default_selectivity = 0.5);

 private:
  SystemModel* system_;
};

}  // namespace ndp::core
