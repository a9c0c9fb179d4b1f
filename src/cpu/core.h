// Out-of-order core timing model (gem5 stand-in). Approximates an OoO
// pipeline with a ROB-sized instruction window, configurable issue/retire
// width, MSHR-limited memory-level parallelism through the cache hierarchy, a
// gshare branch predictor with a redirect penalty, and single-level data
// dependences between µops. Executes lazy µop streams (UopStream), so the
// 4M-row select loop of Figure 3 never materializes its trace.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "cpu/branch_predictor.h"
#include "cpu/mem_if.h"
#include "cpu/uop.h"
#include "sim/event_queue.h"
#include "sim/ticking.h"
#include "util/stats_registry.h"
#include "util/status.h"

namespace ndp::cpu {

struct CoreConfig {
  sim::ClockDomain clock = sim::ClockDomain(1000);  ///< 1 GHz (gem5 config)
  uint32_t rob_entries = 128;
  uint32_t issue_width = 4;
  uint32_t retire_width = 4;
  uint32_t store_buffer_entries = 16;
  /// A mispredicted branch costs a front-end refill bubble of
  /// `branch.mispredict_penalty_cycles` at dispatch — the model for short
  /// reconvergent hammocks (like a select loop's predicate test), where
  /// wrong-path and correct-path work overlap and memory-level parallelism
  /// survives the squash.
  BranchPredictorConfig branch;
};

struct CoreStats {
  uint64_t cycles = 0;
  uint64_t uops_retired = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t branches = 0;
  uint64_t mispredicts = 0;
  uint64_t load_reject_cycles = 0;   ///< cycles dispatch blocked on L1/MSHR
  uint64_t rob_full_cycles = 0;
  uint64_t fetch_stall_cycles = 0;   ///< cycles blocked after a mispredict
  /// Longest gap between consecutive retirements — the worst contiguous
  /// stall the workload observed (e.g. while its rank was lent to JAFAR).
  sim::Tick max_retire_gap_ps = 0;
  double Ipc() const {
    return cycles ? static_cast<double>(uops_retired) / static_cast<double>(cycles)
                  : 0.0;
  }
  /// Per-run stats as the difference against a snapshot taken before the run.
  /// Monotonic counters are subtracted; `max_retire_gap_ps` (a per-run max,
  /// reset at kernel start) is carried over from `*this`.
  CoreStats DeltaSince(const CoreStats& before) const {
    CoreStats d;
    d.cycles = cycles - before.cycles;
    d.uops_retired = uops_retired - before.uops_retired;
    d.loads = loads - before.loads;
    d.stores = stores - before.stores;
    d.branches = branches - before.branches;
    d.mispredicts = mispredicts - before.mispredicts;
    d.load_reject_cycles = load_reject_cycles - before.load_reject_cycles;
    d.rob_full_cycles = rob_full_cycles - before.rob_full_cycles;
    d.fetch_stall_cycles = fetch_stall_cycles - before.fetch_stall_cycles;
    d.max_retire_gap_ps = max_retire_gap_ps;
    return d;
  }
};

/// \brief The core model. One kernel executes at a time.
class Core : public sim::TickingComponent {
 public:
  /// `stats` (optional) mounts the core's counters (and the max-retire-gap
  /// gauge) into a registry under the scope's prefix.
  Core(sim::EventQueue* eq, CoreConfig config, MemSink* l1,
       const StatsScope& stats = {});
  ~Core() override;
  NDP_DISALLOW_COPY_AND_ASSIGN(Core);

  /// Begins executing `stream`; `on_done(tick)` fires when the last µop has
  /// retired and all stores have drained. Fails if a kernel is running.
  ndp::Status Run(UopStream* stream, std::function<void(sim::Tick)> on_done);

  bool busy() const { return stream_ != nullptr; }

  const CoreStats& stats() const { return stats_; }
  const CoreConfig& core_config() const { return config_; }
  BranchPredictor& predictor() { return predictor_; }

 protected:
  bool Tick() override;

 private:
  struct RobEntry {
    Uop uop;
    uint64_t seq = 0;
    sim::Tick dispatch = 0;
    bool completion_known = false;
    sim::Tick completion = 0;
    std::optional<uint64_t> dep_seq;
  };

  /// Completion tick of a retired-or-inflight µop by sequence number, if
  /// known. Looks first in the recent-retirement ring, then in the ROB.
  std::optional<sim::Tick> CompletionOf(uint64_t seq) const;
  void ResolveCompletion(RobEntry* e);
  bool DispatchOne(sim::Tick now);
  void DrainStore(uint64_t addr);
  void RetryDrains();
  void FinishIfDone(sim::Tick now);

  static constexpr size_t kRingSize = 512;

  CoreConfig config_;
  MemSink* l1_;
  BranchPredictor predictor_;

  UopStream* stream_ = nullptr;
  std::function<void(sim::Tick)> on_done_;

  std::deque<RobEntry> rob_;
  std::optional<Uop> pending_uop_;  ///< fetched but not yet dispatched
  uint64_t next_seq_ = 1;
  sim::Tick ring_completion_[kRingSize] = {};
  uint64_t ring_seq_[kRingSize] = {};

  sim::Tick fetch_stalled_until_ = 0;
  uint32_t outstanding_stores_ = 0;
  /// Stores rejected by the L1 awaiting retry; one persistent event retries
  /// them all each cycle instead of a closure per store per cycle.
  std::deque<uint64_t> pending_drains_;
  sim::MemberEventNode<Core, &Core::RetryDrains> drain_retry_{this};
  bool stream_exhausted_ = false;
  sim::Tick last_retire_tick_ = 0;

  CoreStats stats_;
};

}  // namespace ndp::cpu
