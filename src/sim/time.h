// Global simulated time base. All components share one timeline measured in
// integer picoseconds so that clock domains with non-commensurate frequencies
// (CPU 1 GHz / 2 GHz, DDR3 bus 800 MHz, DRAM array 200 MHz, JAFAR 2x bus)
// convert exactly without floating-point drift.
#pragma once

#include <cstdint>

#include "util/macros.h"

namespace ndp::sim {

/// Simulated time in picoseconds.
using Tick = uint64_t;

constexpr Tick kPsPerNs = 1000;

/// \brief A clock domain: converts between local cycles and global ticks.
///
/// Edges are at multiples of period_ps(); cycle c begins at c * period_ps().
class ClockDomain {
 public:
  ClockDomain() : period_ps_(1000) {}
  explicit ClockDomain(Tick period_ps) : period_ps_(period_ps) {
    NDP_CHECK(period_ps > 0);
  }

  /// Constructs from a frequency in MHz (must divide 1e6 ps exactly... it need
  /// not: the period is rounded to the nearest picosecond, < 0.0001% error for
  /// all frequencies used in this project).
  static ClockDomain FromMHz(double mhz) {
    NDP_CHECK(mhz > 0);
    return ClockDomain(static_cast<Tick>(1e6 / mhz + 0.5));
  }

  Tick period_ps() const { return period_ps_; }
  double frequency_ghz() const { return 1000.0 / static_cast<double>(period_ps_); }

  /// Global tick at which local cycle `cycle` begins.
  // ndp-lint: test-only-ok clock-domain tests check the tick/cycle inverse
  Tick CycleToTick(uint64_t cycle) const { return cycle * period_ps_; }

  /// Local cycle containing global tick `t` (edge at t belongs to that cycle).
  uint64_t TickToCycle(Tick t) const { return t / period_ps_; }

  /// First clock edge at or after `t`.
  Tick NextEdgeAtOrAfter(Tick t) const {
    return ((t + period_ps_ - 1) / period_ps_) * period_ps_;
  }

  /// First clock edge strictly after `t`.
  Tick NextEdgeAfter(Tick t) const { return (t / period_ps_ + 1) * period_ps_; }

 private:
  Tick period_ps_;
};

}  // namespace ndp::sim
