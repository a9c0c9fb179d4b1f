#include "dram/controller.h"

#include <algorithm>

#include "util/logging.h"
#include "util/macros.h"

namespace ndp::dram {

namespace {

/// Write-drain hysteresis: enter drain mode when the write queue reaches
/// kWriteDrainHigh entries, leave it when it falls back to kWriteDrainLow.
constexpr size_t kWriteDrainHigh = 48;
constexpr size_t kWriteDrainLow = 16;

}  // namespace

MemoryController::MemoryController(sim::EventQueue* eq, Channel* channel,
                                   const AddressMapper* mapper,
                                   ControllerConfig config,
                                   const StatsScope& stats)
    : sim::TickingComponent(eq, channel->bus_clock()),
      channel_(channel),
      mapper_(mapper),
      config_(config),
      bus_(channel->bus_clock()) {
  stats.Counter("reads_served", &counters_.reads_served);
  stats.Counter("writes_served", &counters_.writes_served);
  stats.Counter("row_hits", &counters_.row_hits);
  stats.Counter("row_misses", &counters_.row_misses);
  stats.Counter("row_conflicts", &counters_.row_conflicts);
  // Busy-time counters are transition-timestamp based; settle them to the
  // current tick on read so snapshots taken mid-busy-period are exact.
  stats.Counter("rc_busy_cycles", std::function<uint64_t()>([this] {
    return counters().read_queue_busy_ticks / bus_.period_ps();
  }));
  stats.Counter("wc_busy_cycles", std::function<uint64_t()>([this] {
    return counters().write_queue_busy_ticks / bus_.period_ps();
  }));
  stats.Histogram("idle_cycles", &idle_hist_);
  next_refresh_due_.resize(channel->num_ranks());
  sim::Tick trefi = channel->timing().trefi * bus_.period_ps();
  for (uint32_t r = 0; r < channel->num_ranks(); ++r) {
    // Stagger refreshes across ranks so they do not collide.
    next_refresh_due_[r] = trefi + r * (trefi / std::max(1u, channel->num_ranks()));
  }
  idle_since_ = eq->Now();
  if (config_.refresh_enabled) ScheduleRefreshWake();
}

MemoryController::~MemoryController() {
  if (refresh_wake_.scheduled()) event_queue()->Cancel(&refresh_wake_);
}

Status MemoryController::Enqueue(const Request& req) {
  std::deque<QueuedRequest>& q = req.is_write ? write_q_ : read_q_;
  if (q.size() >= kQueueCapacity) {
    return Status::ResourceExhausted("queue full");  // fits the inline buffer
  }
  NDP_ASSIGN_OR_RETURN(DramLocation loc, mapper_->Decode(req.addr));
  sim::Tick now = event_queue()->Now();
  q.push_back({req, loc, now});
  NoteQueueStateChange(now);
  Wake();
  return Status::OK();
}

void MemoryController::TransferOwnership(uint32_t rank, RankOwner new_owner,
                                         std::function<void(sim::Tick)> done) {
  NDP_CHECK(rank < channel_->num_ranks());
  uint32_t mr3 = channel_->rank(rank).mode_register(3);
  uint32_t value = (new_owner == RankOwner::kAccelerator)
                       ? (mr3 | kMr3MprEnableBit)
                       : (mr3 & ~kMr3MprEnableBit);
  mrs_q_.push_back(MrsOp{rank, value, std::move(done), false});
  Wake();
}

void MemoryController::NoteQueueStateChange(sim::Tick now) {
  // Read-queue busy interval tracking.
  if (!read_q_.empty() && !read_busy_since_) {
    read_busy_since_ = now;
  } else if (read_q_.empty() && read_busy_since_) {
    counters_.read_queue_busy_ticks += now - *read_busy_since_;
    read_busy_since_.reset();
  }
  if (!write_q_.empty() && !write_busy_since_) {
    write_busy_since_ = now;
  } else if (write_q_.empty() && write_busy_since_) {
    counters_.write_queue_busy_ticks += now - *write_busy_since_;
    write_busy_since_.reset();
  }
  // Both-empty ("memory controller idle", paper §3.3) interval tracking.
  bool idle = read_q_.empty() && write_q_.empty();
  if (idle && !idle_since_) {
    idle_since_ = now;
  } else if (!idle && idle_since_) {
    double cycles = static_cast<double>(now - *idle_since_) /
                    static_cast<double>(bus_.period_ps());
    if (now > *idle_since_) idle_hist_.Add(cycles);
    idle_since_.reset();
  }
}

ControllerCounters MemoryController::counters() const {
  ControllerCounters c = counters_;
  sim::Tick now = event_queue()->Now();
  if (read_busy_since_) c.read_queue_busy_ticks += now - *read_busy_since_;
  if (write_busy_since_) c.write_queue_busy_ticks += now - *write_busy_since_;
  return c;
}

sim::Tick MemoryController::RefreshEmergencyAt(uint32_t rank) const {
  // JEDEC lets a DDR3 device postpone up to eight refreshes, i.e. the REF may
  // run as late as 8 x tREFI past its due point before retention is at risk.
  // An accelerator-owned rank is left alone until one tREFI of that budget
  // remains; past this point refresh outranks ownership.
  return next_refresh_due_[rank] +
         7 * channel_->timing().trefi * bus_.period_ps();
}

void MemoryController::ScheduleRefreshWake() {
  // Host-owned ranks refresh as soon as they are due; accelerator-owned ranks
  // sleep until their emergency deadline (an ownership hand-back in between
  // wakes the controller through the MRS queue anyway).
  sim::Tick due = sim::EventNode::kNever;
  for (uint32_t r = 0; r < channel_->num_ranks(); ++r) {
    sim::Tick t = channel_->rank(r).owner() == RankOwner::kHost
                      ? next_refresh_due_[r]
                      : RefreshEmergencyAt(r);
    due = std::min(due, t);
  }
  sim::Tick at = std::max(due, event_queue()->Now());
  if (refresh_wake_.scheduled()) {
    if (refresh_wake_.when() <= at) return;  // an earlier wake is pending
    event_queue()->Cancel(&refresh_wake_);
  }
  event_queue()->Schedule(at, &refresh_wake_);
}

bool MemoryController::TryRefresh(sim::Tick now) {
  if (!config_.refresh_enabled) return false;
  // Find a rank whose refresh is due. A due refresh on an accelerator-owned
  // rank is postponed — until the JEDEC postponement budget nearly runs out,
  // at which point the controller steals the rank back: the drain below
  // closes JAFAR's rows and the device sequencer backs off (RefreshClaims)
  // until the REF completes.
  if (!refresh_in_progress_) {
    bool due = false;
    for (uint32_t r = 0; r < channel_->num_ranks(); ++r) {
      if (now < next_refresh_due_[r]) continue;
      if (channel_->rank(r).owner() != RankOwner::kHost &&
          now < RefreshEmergencyAt(r)) {
        continue;
      }
      refresh_rank_ = r;
      due = true;
      break;
    }
    if (!due) {
      // Re-arm the wake: the nearest deadline may now be an emergency one.
      ScheduleRefreshWake();
      return false;
    }
    refresh_in_progress_ = true;
  }
  Rank& rank = channel_->rank(refresh_rank_);
  // An armed bank's comparator sits on the sense-amp path, so REF may not
  // issue while any bank is in filter mode — and a controller PRE to an
  // armed bank would trigger an accumulator drain the device still owns.
  // Keep ticking: the device sequencer sees RefreshClaims() and disarms.
  if (rank.AnyBankArmed()) return false;
  // Close any open banks first.
  for (uint32_t b = 0; b < rank.num_banks(); ++b) {
    if (rank.bank(b).has_open_row()) {
      Command pre{CommandType::kPrecharge, refresh_rank_, b};
      if (channel_->EarliestIssue(pre) <= now) {
        NDP_CHECK(channel_->Issue(pre, now).ok());
        return true;  // one command per cycle
      }
      return false;  // must wait; keep ticking
    }
  }
  Command ref{CommandType::kRefresh, refresh_rank_};
  if (channel_->EarliestIssue(ref) <= now) {
    NDP_CHECK(channel_->Issue(ref, now).ok());
    next_refresh_due_[refresh_rank_] +=
        channel_->timing().trefi * bus_.period_ps();
    refresh_in_progress_ = false;
    ScheduleRefreshWake();
    return true;
  }
  return false;
}

bool MemoryController::TryMrs(sim::Tick now) {
  if (mrs_q_.empty()) return false;
  MrsOp& op = mrs_q_.front();
  Rank& rank = channel_->rank(op.rank);
  for (uint32_t b = 0; b < rank.num_banks(); ++b) {
    if (rank.bank(b).has_open_row()) {
      Command pre{CommandType::kPrecharge, op.rank, b};
      if (channel_->EarliestIssue(pre) <= now) {
        NDP_CHECK(channel_->Issue(pre, now).ok());
        return true;
      }
      return false;
    }
  }
  Command mrs{CommandType::kModeRegSet, op.rank};
  mrs.mode_register = 3;
  mrs.mode_value = op.value;
  if (channel_->EarliestIssue(mrs) <= now) {
    NDP_CHECK(channel_->Issue(mrs, now).ok());
    auto done = std::move(op.done);
    mrs_q_.pop_front();
    sim::Tick ready = now + channel_->timing().tmrd * bus_.period_ps();
    if (done) event_queue()->ScheduleAt(ready, [done, ready] { done(ready); });
    return true;
  }
  return false;
}

bool MemoryController::IssueForRequest(QueuedRequest* qr, bool is_write,
                                       sim::Tick now, bool* completed) {
  *completed = false;
  const DramLocation& loc = qr->loc;
  Rank& rank = channel_->rank(loc.rank);
  if (rank.owner() != RankOwner::kHost) return false;  // rank lent to JAFAR
  Bank& bank = rank.bank(loc.bank);

  if (bank.has_open_row() && bank.open_row() == loc.row) {
    Command col{is_write ? CommandType::kWrite : CommandType::kRead, loc.rank,
                loc.bank, loc.row, loc.burst_col};
    if (channel_->EarliestIssue(col) <= now) {
      auto done = channel_->Issue(col, now);
      NDP_CHECK(done.ok());
      if (is_write) {
        ++counters_.writes_served;
      } else {
        ++counters_.reads_served;
      }
      // Classify the request by the worst page outcome it experienced.
      if (qr->caused_precharge) {
        ++counters_.row_conflicts;
      } else if (qr->caused_activate) {
        ++counters_.row_misses;
      } else {
        ++counters_.row_hits;
      }
      if (qr->req.on_complete) {
        auto cb = qr->req.on_complete;
        sim::Tick t = done.value();
        event_queue()->ScheduleAt(t, [cb, t] { cb(t); });
      }
      *completed = true;
      return true;
    }
    return false;
  }
  if (bank.has_open_row()) {
    Command pre{CommandType::kPrecharge, loc.rank, loc.bank};
    if (channel_->EarliestIssue(pre) <= now) {
      NDP_CHECK(channel_->Issue(pre, now).ok());
      qr->caused_precharge = true;
      return true;
    }
    return false;
  }
  Command act{CommandType::kActivate, loc.rank, loc.bank, loc.row};
  if (channel_->EarliestIssue(act) <= now) {
    NDP_CHECK(channel_->Issue(act, now).ok());
    qr->caused_activate = true;
    return true;
  }
  return false;
}

bool MemoryController::ServeQueue(std::deque<QueuedRequest>* q, bool is_write,
                                  sim::Tick now) {
  // FR-FCFS: issue the first request whose row is already open (row hit);
  // otherwise make progress (PRE/ACT) on the oldest serviceable request.
  size_t scan_limit = std::min<size_t>(q->size(), 32);
  for (size_t i = 0; i < scan_limit; ++i) {
    QueuedRequest& qr = (*q)[i];
    Rank& rank = channel_->rank(qr.loc.rank);
    if (rank.owner() != RankOwner::kHost) continue;
    Bank& bank = rank.bank(qr.loc.bank);
    if (bank.has_open_row() && bank.open_row() == qr.loc.row) {
      bool completed = false;
      if (IssueForRequest(&qr, is_write, now, &completed)) {
        if (completed) Dequeue(q, i, is_write, now);
        return true;
      }
    }
  }
  for (size_t i = 0; i < scan_limit; ++i) {
    QueuedRequest& qr = (*q)[i];
    Rank& rank = channel_->rank(qr.loc.rank);
    if (rank.owner() != RankOwner::kHost) continue;
    bool completed = false;
    if (IssueForRequest(&qr, is_write, now, &completed)) {
      if (completed) Dequeue(q, i, is_write, now);
      return true;
    }
    break;  // strict FCFS progress beyond row hits
  }
  return false;
}

void MemoryController::Dequeue(std::deque<QueuedRequest>* q, size_t i,
                               bool is_write, sim::Tick now) {
  q->erase(q->begin() + static_cast<long>(i));
  NoteQueueStateChange(now);
  auto& waiters = is_write ? write_waiters_ : read_waiters_;
  if (waiters.empty()) return;
  std::function<void()> retry = std::move(waiters.front());
  waiters.pop_front();
  retry();  // its Enqueue re-arms the tick from inside Tick(), which is safe
}

bool MemoryController::Tick() {
  sim::Tick now = event_queue()->Now();

  // Highest priority: refresh (DRAM data integrity), then mode-register ops.
  if (TryRefresh(now)) return true;
  if (refresh_in_progress_) return true;  // wait for precharge windows
  if (TryMrs(now)) return true;

  // Write drain policy with hysteresis.
  if (write_drain_mode_) {
    if (write_q_.size() <= kWriteDrainLow) write_drain_mode_ = false;
  } else {
    if (write_q_.size() >= kWriteDrainHigh ||
        (read_q_.empty() && !write_q_.empty())) {
      write_drain_mode_ = true;
    }
  }

  if (write_drain_mode_) {
    if (ServeQueue(&write_q_, /*is_write=*/true, now)) return true;
    if (ServeQueue(&read_q_, /*is_write=*/false, now)) return true;
  } else {
    if (ServeQueue(&read_q_, /*is_write=*/false, now)) return true;
    if (ServeQueue(&write_q_, /*is_write=*/true, now)) return true;
  }

  // Closed-page policy: spend otherwise-idle command slots closing rows that
  // no queued request wants.
  if (config_.page_policy == PagePolicy::kClosed && TryCloseIdleRows(now)) {
    return true;
  }

  // Nothing issued this cycle. Keep ticking only if work remains.
  return HasPendingWork() ||
         (config_.page_policy == PagePolicy::kClosed && has_open_rows_hint_);
}

bool MemoryController::TryCloseIdleRows(sim::Tick now) {
  has_open_rows_hint_ = false;
  for (uint32_t r = 0; r < channel_->num_ranks(); ++r) {
    Rank& rank = channel_->rank(r);
    if (rank.owner() != RankOwner::kHost) continue;
    for (uint32_t b = 0; b < rank.num_banks(); ++b) {
      Bank& bank = rank.bank(b);
      if (!bank.has_open_row()) continue;
      // Keep the row open if any queued request still wants it.
      bool wanted = false;
      for (const auto* q : {&read_q_, &write_q_}) {
        for (const QueuedRequest& qr : *q) {
          if (qr.loc.rank == r && qr.loc.bank == b &&
              qr.loc.row == bank.open_row()) {
            wanted = true;
            break;
          }
        }
        if (wanted) break;
      }
      if (wanted) continue;
      has_open_rows_hint_ = true;
      Command pre{CommandType::kPrecharge, r, b};
      if (channel_->EarliestIssue(pre) <= now) {
        NDP_CHECK(channel_->Issue(pre, now).ok());
        return true;
      }
    }
  }
  return false;
}

}  // namespace ndp::dram
