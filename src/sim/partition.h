// Partitioned simulation core: a PartitionSet splits one simulated system
// across K partitions, each owning its own two-level timing wheel
// (EventQueue), and advances them together in conservative epochs.
//
// Protocol (classic synchronous conservative windowing):
//
//   1. Drain every cross-partition port, delivering queued messages onto
//      their destination wheels in a fixed order (dst-major, src-minor, FIFO
//      per edge) — schedule sequence numbers, and therefore tie-breaking, are
//      a pure function of what the partitions sent.
//   2. Let e = min over partitions of the next pending event time. The epoch
//      window is [*, e + L) where L is the lookahead: the minimum simulated
//      latency of any cross-partition interaction (one host<->device hop).
//   3. Every partition runs to the window end (RunUntil(e + L - 1)), one
//      after another in partition order. A message sent at time tau inside
//      the window arrives at tau + L >= e + L, i.e. strictly after the
//      window — so no partition can receive an event in its own past, and
//      the partitions never observe each other mid-window.
//   4. Goto 1.
//
// Determinism: each wheel's (time, seq) order is total, and cross-partition
// effects exist only as port messages whose delivery order is fixed by
// step 1.
//
// Why conservative (not optimistic): every component in this repo mutates
// shared functional state (backing store bytes, stats cells) in place, so
// Time-Warp-style rollback would need full state checkpointing for a kernel
// whose events are ~10ns apart. The DDR3 command latency gives a natural
// nonzero lookahead, which is the one precondition conservative windows need.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "util/macros.h"
#include "util/stats_registry.h"

namespace ndp::sim {

/// \brief K timing wheels + per-edge FIFO ports + the epoch scheduler.
class PartitionSet {
 public:
  /// `lookahead_ps` is the minimum cross-partition latency (every Send is
  /// delayed by at least this much); `cycle_ps` converts the barrier-stall
  /// accounting from picoseconds to the reporting clock (DDR3 bus cycles).
  PartitionSet(uint32_t num_partitions, Tick lookahead_ps, Tick cycle_ps);
  NDP_DISALLOW_COPY_AND_ASSIGN(PartitionSet);

  uint32_t num_partitions() const {
    return static_cast<uint32_t>(queues_.size());
  }
  EventQueue& queue(uint32_t p) { return *queues_[p]; }
  Tick lookahead_ps() const { return lookahead_; }
  uint64_t epochs() const { return epochs_; }

  /// Global simulated time: the barrier front every partition has reached.
  Tick Now() const { return queues_[0]->Now(); }

  /// Cross-partition send: runs `fn` on partition `dst` at
  /// src.Now() + lookahead + extra_delay_ps. The only legal way to affect
  /// another partition from inside an epoch (ndp-lint: cross-partition-
  /// schedule enforces this for code outside src/sim). May also be called
  /// between runs (at barrier time).
  void Send(uint32_t src, uint32_t dst, Tick extra_delay_ps,
            std::function<void()> fn);

  /// Runs epochs until every event at time <= `until` has executed, then
  /// advances all partitions to `until`.
  void RunUntil(Tick until);

  /// Runs epochs until `pred()` holds (evaluated only at barriers, after the
  /// port drain) or every port is empty and every wheel holds only background
  /// events. Returns whether the predicate was satisfied.
  template <typename Pred>
  bool RunUntilTrue(Pred&& pred) {
    for (;;) {
      DrainPorts();
      if (pred()) return true;
      if (ForegroundEmpty()) return pred();
      RunEpoch(MinNextEventTime() + lookahead_);
    }
  }

  /// Mounts `sim.epochs`, `sim.part<k>.events`, and
  /// `sim.part<k>.barrier_stall_cycles` under `scope`.
  void RegisterStats(const StatsScope& scope) const;

 private:
  struct Message {
    Tick deliver_at = 0;
    std::function<void()> fn;
  };

  /// Earliest pending event across all partitions; kNever when idle.
  Tick MinNextEventTime();
  /// True when every wheel holds only background events (ports not checked).
  bool ForegroundEmpty() const;
  /// Delivers all ported messages in (dst, src, FIFO) order.
  void DrainPorts();
  /// One conservative window: every partition runs to `t_end` - 1, then the
  /// caller re-drains at the top of the loop. Increments epochs_.
  void RunEpoch(Tick t_end);

  std::deque<Message>& edge(uint32_t src, uint32_t dst) {
    return edges_[static_cast<size_t>(src) * queues_.size() + dst];
  }

  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<std::deque<Message>> edges_;  ///< K x K, row=src
  Tick lookahead_;
  Tick cycle_ps_;
  uint64_t epochs_ = 0;
  /// Per-partition simulated time spent waiting at the window end with no
  /// local work (exposed as barrier_stall_cycles).
  std::vector<Tick> stall_ps_;
};

}  // namespace ndp::sim
