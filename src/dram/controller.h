// The per-channel memory controller: FR-FCFS scheduling over separate read
// and write queues, open-page policy, write-drain watermarks, periodic
// refresh, and the performance counters the paper samples in §3.3 (cycles the
// read queue is busy, cycles the write queue is busy, request counts).
//
// Rank-ownership awareness: requests to a rank whose MR3/MPR bit is set (rank
// granted to JAFAR) are held in the queues until ownership returns.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "dram/channel.h"
#include "dram/request.h"
#include "sim/event_queue.h"
#include "sim/ticking.h"
#include "util/stats.h"
#include "util/stats_registry.h"
#include "util/status.h"

namespace ndp::dram {

/// Row-buffer management policy.
enum class PagePolicy : uint8_t {
  /// Leave rows open after column commands (bets on locality; the default,
  /// and what streaming scans and JAFAR want).
  kOpen,
  /// Close a row once no queued request targets it (bets against locality;
  /// saves the precharge on the conflict path of random traffic).
  kClosed,
};

/// Tunable controller policy parameters.
struct ControllerConfig {
  bool refresh_enabled = true;
  PagePolicy page_policy = PagePolicy::kOpen;
};

/// Counters mirroring the uncore IMC events the paper samples (§3.3).
struct ControllerCounters {
  uint64_t reads_served = 0;
  uint64_t writes_served = 0;
  uint64_t row_hits = 0;
  uint64_t row_misses = 0;     ///< bank idle, ACT required
  uint64_t row_conflicts = 0;  ///< wrong row open, PRE+ACT required
  sim::Tick read_queue_busy_ticks = 0;   ///< RC_busy
  sim::Tick write_queue_busy_ticks = 0;  ///< WC_busy
};

/// \brief FR-FCFS memory controller for one channel.
class MemoryController : public sim::TickingComponent {
 public:
  /// `stats` (optional) mounts this controller's counters into a registry —
  /// reads_served, row_hits/misses/conflicts, rc/wc busy cycles (settled to
  /// "now" at read time), and the idle-period histogram.
  MemoryController(sim::EventQueue* eq, Channel* channel,
                   const AddressMapper* mapper, ControllerConfig config,
                   const StatsScope& stats = {});
  ~MemoryController() override;

  /// Enqueues a request. Fails with ResourceExhausted when the target queue is
  /// full (checked before the address is decoded, so a refusal is cheap); the
  /// caller then waits for space (MSHR-style backpressure).
  Status Enqueue(const Request& req);

  /// Calls `retry` once, from inside the tick where a request leaves the
  /// write (`is_write`) or read queue, so its Enqueue takes the freed slot.
  /// Waiters on one queue are woken in FIFO order, one per freed slot.
  void WaitForSpace(bool is_write, std::function<void()> retry) {
    (is_write ? write_waiters_ : read_waiters_).push_back(std::move(retry));
  }

  /// Entries in each of the read and write queues.
  static constexpr size_t kQueueCapacity = 64;

  bool CanAcceptRead() const { return read_q_.size() < kQueueCapacity; }
  bool CanAcceptWrite() const { return write_q_.size() < kQueueCapacity; }

  /// Requests an ownership transfer of `rank` by reprogramming MR3. The
  /// controller precharges all banks of the rank, issues the MRS, then invokes
  /// `done`. Transfers queue behind one another.
  void TransferOwnership(uint32_t rank, RankOwner new_owner,
                         std::function<void(sim::Tick)> done);

  bool HasPendingWork() const {
    return !read_q_.empty() || !write_q_.empty() || !mrs_q_.empty() ||
           refresh_in_progress_;
  }

  /// True while the controller is performing a refresh on `rank` (precharge
  /// drain + REF). Refresh outranks rank ownership: the JAFAR sequencer backs
  /// off the command bus for its duration instead of fighting the drain.
  bool RefreshClaims(uint32_t rank) const {
    return refresh_in_progress_ && refresh_rank_ == rank;
  }

  /// Counter snapshot. Busy-tick counters are settled up to the current tick.
  ControllerCounters counters() const;

  /// Observed distribution of periods during which BOTH queues were empty —
  /// ground truth against which the paper's pessimistic estimator compares.
  const Histogram& idle_period_histogram() const { return idle_hist_; }

  const ControllerConfig& config() const { return config_; }
  Channel* channel() { return channel_; }

 protected:
  bool Tick() override;

 private:
  struct QueuedRequest {
    Request req;
    DramLocation loc;
    sim::Tick arrival;
    bool caused_activate = false;   ///< an ACT was issued on its behalf
    bool caused_precharge = false;  ///< a PRE (row conflict) was issued
  };
  struct MrsOp {
    uint32_t rank;
    uint32_t value;
    std::function<void(sim::Tick)> done;
    bool precharging = false;
  };

  // Scheduling helpers; each returns true if a command was issued this tick.
  bool TryRefresh(sim::Tick now);
  bool TryMrs(sim::Tick now);
  /// Closed-page policy: precharges open banks no queued request needs.
  bool TryCloseIdleRows(sim::Tick now);
  bool ServeQueue(std::deque<QueuedRequest>* q, bool is_write, sim::Tick now);
  /// Removes the completed (*q)[i] and wakes the queue's oldest waiter.
  void Dequeue(std::deque<QueuedRequest>* q, size_t i, bool is_write,
               sim::Tick now);
  bool IssueForRequest(QueuedRequest* qr, bool is_write, sim::Tick now,
                       bool* completed);

  void NoteQueueStateChange(sim::Tick now);
  void ScheduleRefreshWake();
  void RefreshWake() { Wake(); }
  /// Time at which refresh of `rank` stops deferring to accelerator ownership.
  sim::Tick RefreshEmergencyAt(uint32_t rank) const;

  Channel* channel_;
  const AddressMapper* mapper_;
  ControllerConfig config_;
  sim::ClockDomain bus_;

  std::deque<QueuedRequest> read_q_;
  std::deque<QueuedRequest> write_q_;
  std::deque<MrsOp> mrs_q_;
  std::deque<std::function<void()>> read_waiters_, write_waiters_;

  bool write_drain_mode_ = false;
  bool has_open_rows_hint_ = false;  ///< closed-page: rows still to close
  bool refresh_in_progress_ = false;
  std::vector<sim::Tick> next_refresh_due_;
  uint32_t refresh_rank_ = 0;
  /// Persistent wake-up for the next refresh deadline; rescheduling it is
  /// allocation-free (one of these exists for the controller's lifetime).
  /// Background: refresh recurs forever, so a run waiting on nothing else is
  /// stuck.
  sim::MemberEventNode<MemoryController, &MemoryController::RefreshWake>
      refresh_wake_{this, /*background=*/true};

  // Busy-time accounting (transition-timestamp based, exact).
  ControllerCounters counters_;
  std::optional<sim::Tick> read_busy_since_;
  std::optional<sim::Tick> write_busy_since_;
  std::optional<sim::Tick> idle_since_;
  Histogram idle_hist_{0, 4000, 80};  ///< idle periods, in bus cycles
};

}  // namespace ndp::dram
