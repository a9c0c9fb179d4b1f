// Memory-trace recording for the Figure 4 profiling methodology. Operators
// report their access patterns (sequential scans, gathers, hash probes,
// result appends, interleaved compute) to a TraceRecorder, which lays columns
// out at synthetic physical addresses and produces the cpu::TraceEvent stream
// that is replayed through the simulated Xeon-class memory system while the
// paper's RC_busy / WC_busy counters are sampled.
//
// Record format: 8-byte cpu::TraceEvents. A plain kLoad/kStore is one
// sampled access, carrying its 46-bit address and, in a 16-bit field, the
// compute gap that precedes it. A gap too large for that field is written as
// one standalone kCompute record before the access. A kRun record stands for
// a count of accesses that each repeat the access k positions earlier (same
// kind and gap, address advanced by that access's own stride), k in {1, 2, 4}:
// a scan or a gather loop is a few records, not one per access. Encoder and
// decoder share cpu::TraceHistory, and replay expands every form to the same
// per-access µop stream.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpu/kernels.h"
#include "db/column.h"
#include "util/rng.h"
#include "util/macros.h"

namespace ndp::db {

/// \brief Records operator memory behaviour as a replayable event stream.
///
/// Sampling: with sample_period = k, one in k accesses is kept and the
/// compute of skipped iterations is dropped with them, so the compute-to-
/// memory ratio of the replayed trace matches the full execution — a
/// statistically representative 1/k slice of the query (the paper itself
/// argues sampling suffices for regular workloads, §3.1).
class TraceRecorder {
 public:
  /// `compute_scale` multiplies every recorded compute gap: the operator
  /// hooks report tight-loop µop counts, while an interpreted engine like the
  /// MonetDB the paper profiles spends several times that per value on BAT
  /// bookkeeping, type dispatch, and materialization glue. The Figure 4
  /// harness calibrates this factor (see EXPERIMENTS.md).
  explicit TraceRecorder(uint32_t sample_period = 1, uint32_t compute_scale = 1)
      : sample_period_(sample_period), compute_scale_(compute_scale) {
    NDP_CHECK(sample_period >= 1);
    NDP_CHECK(compute_scale >= 1);
  }

  /// Assigns (or returns) the synthetic physical base address of a column.
  uint64_t LayoutColumn(const Column& col) {
    auto it = layout_.find(&col);
    if (it != layout_.end()) return it->second;
    uint64_t base = next_addr_;
    // 4 KB alignment, contiguous columns.
    uint64_t bytes = (col.SizeBytes() + 4095) / 4096 * 4096;
    next_addr_ += bytes;
    layout_.emplace(&col, base);
    return base;
  }

  /// Allocates an anonymous buffer region (intermediates, hash tables).
  uint64_t AllocRegion(uint64_t bytes, const std::string& /*label*/) {
    uint64_t base = next_addr_;
    next_addr_ += (bytes + 4095) / 4096 * 4096;
    return base;
  }

  // -- Operator hooks --------------------------------------------------------

  /// `uops` of pure compute between memory events.
  void Compute(uint64_t uops) {
    if (uops == 0) return;
    pending_compute_ += uops * compute_scale_;
  }

  void Load(uint64_t addr) {
    if (Sampled()) {
      Emit(cpu::TraceEvent::Kind::kLoad, addr);
    } else {
      pending_compute_ = 0;  // drop the skipped iteration's compute too
    }
  }

  void Store(uint64_t addr) {
    if (Sampled()) {
      Emit(cpu::TraceEvent::Kind::kStore, addr);
    } else {
      pending_compute_ = 0;
    }
  }

  const std::vector<cpu::TraceEvent>& events() const { return events_; }
  uint64_t total_accesses() const { return total_accesses_; }

  uint32_t sample_period() const { return sample_period_; }

 private:
  bool Sampled() {
    ++total_accesses_;
    if (sample_period_ == 1) return true;
    // Pseudo-random (deterministic) selection: a modulo counter would phase-
    // lock onto alternating load/store patterns and sample only one kind.
    return rng_.NextBounded(sample_period_) == 0;
  }

  /// Folds the pending compute gap into the access; a gap wider than the
  /// record's compute field goes out first as a standalone kCompute, which
  /// also closes any open run. The access then extends the open kRun, starts
  /// a run at the first period that predicts it, or goes out as a plain
  /// record.
  void Emit(cpu::TraceEvent::Kind kind, uint64_t addr) {
    using cpu::TraceEvent;
    uint64_t gap = pending_compute_;
    pending_compute_ = 0;
    if (gap > TraceEvent::kMaxCompute) {
      events_.emplace_back(TraceEvent::Kind::kCompute, gap);
      gap = 0;
    }
    const TraceEvent access(kind, addr, gap);
    TraceEvent* run = events_.empty() ? nullptr : &events_.back();
    if (run != nullptr && run->kind == TraceEvent::Kind::kRun &&
        run->value < TraceEvent::kMaxValue &&
        history_.Predict(run->compute) == access) {
      ++run->value;
    } else {
      TraceEvent record = access;
      for (uint32_t k : cpu::TraceHistory::kRunPeriods) {
        if (history_.Predict(k) == access) {
          record = TraceEvent(TraceEvent::Kind::kRun, 1, k);
          break;
        }
      }
      events_.push_back(record);
    }
    history_.Push(access);
  }

  uint32_t sample_period_;
  uint32_t compute_scale_;
  Rng rng_{0x7ace5eedULL};
  uint64_t next_addr_ = 0;
  uint64_t pending_compute_ = 0;
  uint64_t total_accesses_ = 0;
  std::unordered_map<const Column*, uint64_t> layout_;
  cpu::TraceHistory history_;
  std::vector<cpu::TraceEvent> events_;
};

}  // namespace ndp::db
