// Discrete-event simulation kernel: a two-level hierarchical timing wheel
// over intrusive, allocation-free event nodes.
//
// Components schedule wake-ups only when they have work, so idle periods cost
// nothing to simulate (critical for the memory-controller idle-period study).
// Every experiment in this repo is gated on this loop, so the hot path is
// engineered to do zero heap allocation per event:
//
//   * EventNode is intrusive: clocked components embed one persistent node and
//     re-arm it with a couple of pointer writes and a virtual Fire() dispatch —
//     no std::function construction, no queue-element copies.
//   * Near-future events live in a two-level timing wheel: L0 slots of
//     kSlotTicks picoseconds spanning one "span", L1 slots of one span each.
//     Far-future events (DRAM refresh, ownership leases) overflow into a
//     binary heap and are promoted into the wheel as the cursor approaches.
//   * When exactly one event is pending — a lone self-ticking component, e.g.
//     JAFAR streaming a page while the CPU spin-waits — it is parked in the
//     `solo_` slot and fires without touching the wheel at all.
//   * Closure events (ScheduleAt) draw pooled nodes from a free list; they
//     allocate only while growing the pool's high-water mark.
//   * Run loops are templated on the predicate, so RunUntilTrue pays no
//     indirect std::function call per event.
//
// Execution order is deterministic: (time, schedule sequence number) is a
// total order, so FIFO tie-breaking at equal times is preserved across the
// bucket heap, both wheel levels, and the overflow heap. The seed heap kernel
// is preserved verbatim in sim/reference_queue.h as the ordering oracle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/time.h"
#include "util/macros.h"

namespace ndp::sim {

class EventQueue;

/// \brief An intrusive event: embed one in a component and (re)schedule it
/// with zero allocation. A node may be scheduled on at most one queue at a
/// time; the owner must Cancel() a still-pending node before destroying it
/// (TickingComponent does this automatically), and must not outlive the queue
/// while scheduled.
class EventNode {
 public:
  /// Sentinel for "never scheduled" (never a valid event time).
  static constexpr Tick kNever = ~Tick{0};

  EventNode() = default;
  virtual ~EventNode() = default;
  NDP_DISALLOW_COPY_AND_ASSIGN(EventNode);

  bool scheduled() const { return scheduled_; }

  /// Time of the pending occurrence while scheduled; after firing, the time
  /// it last fired; kNever if never scheduled.
  Tick when() const { return when_; }

 protected:
  /// A background node (periodic upkeep such as DRAM refresh) never keeps a
  /// run loop alive on its own: RunUntilTrue gives up once only background
  /// nodes are pending.
  explicit EventNode(bool background) : background_(background) {}

  /// Runs when simulated time reaches when(). The node is unscheduled before
  /// Fire() is invoked, so it may immediately reschedule itself.
  virtual void Fire() = 0;

 private:
  friend class EventQueue;
  Tick when_ = kNever;
  uint64_t seq_ = 0;
  EventNode* next_ = nullptr;  ///< slot chain / free-list link
  bool scheduled_ = false;
  bool background_ = false;
};

/// \brief Timing-wheel event queue with deterministic FIFO tie-breaking.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// L0 slot granularity in ticks (ps). Chosen so one slot holds roughly one
  /// clock edge of the fastest domain (JAFAR at 625 ps, CPU at 1000 ps).
  static constexpr Tick kSlotTicks = 1024;
  static constexpr size_t kL0Slots = 256;  ///< span = 262144 ps ≈ 262 ns
  static constexpr size_t kL1Slots = 256;  ///< horizon ≈ 67 µs (tREFI ≈ 7.8 µs)
  static constexpr Tick kSpanTicks = kSlotTicks * kL0Slots;

  EventQueue() = default;
  NDP_DISALLOW_COPY_AND_ASSIGN(EventQueue);

  /// Current simulated time. Monotonically non-decreasing.
  Tick Now() const { return now_; }

  // ndp-lint: no-alloc-begin (per-event public hot path: zero heap traffic)

  /// Schedules an intrusive node at absolute time `when` (>= Now()).
  /// Allocation-free. The node must not already be scheduled.
  void Schedule(Tick when, EventNode* node) {
    NDP_CHECK_MSG(when >= now_, "cannot schedule into the past");
    NDP_CHECK_MSG(!node->scheduled_, "event node is already scheduled");
    node->when_ = when;
    node->seq_ = next_seq_++;
    node->scheduled_ = true;
    node->next_ = nullptr;
    ++num_pending_;
    num_background_ += node->background_;
    if (num_pending_ == 1) {
      solo_ = node;  // fast path: sole pending event bypasses the wheel
      return;
    }
    if (solo_ != nullptr) {
      EventNode* demoted = solo_;
      solo_ = nullptr;
      InsertIntoWheel(demoted);
    }
    InsertIntoWheel(node);
  }

  /// Unschedules a pending node (teardown path; O(pending events)).
  void Cancel(EventNode* node) {
    NDP_CHECK_MSG(node->scheduled_, "cancelling an unscheduled event node");
    node->scheduled_ = false;
    --num_pending_;
    num_background_ -= node->background_;
    if (solo_ == node) {
      solo_ = nullptr;
      return;
    }
    if (RemoveFromHeap(&bucket_, node) || RemoveFromHeap(&overflow_, node)) {
      return;
    }
    for (auto& slot : l0_) {
      if (UnlinkFromSlot(&slot, node)) {
        --l0_count_;
        return;
      }
    }
    for (auto& slot : l1_) {
      if (UnlinkFromSlot(&slot, node)) {
        --l1_count_;
        return;
      }
    }
    NDP_CHECK_MSG(false, "cancelled node not found in the queue");
  }

  /// Schedules `cb` to run at absolute time `when` (>= Now()). The closure is
  /// carried by a pooled node: no allocation once the pool is warm.
  void ScheduleAt(Tick when, Callback cb) {
    ClosureNode* node = AcquireClosure();
    node->cb_ = std::move(cb);
    Schedule(when, node);
  }

  /// Schedules `cb` to run `delay` ticks from now.
  void ScheduleAfter(Tick delay, Callback cb) {
    ScheduleAt(now_ + delay, std::move(cb));
  }

  bool empty() const { return num_pending_ == 0; }
  size_t size() const { return num_pending_; }
  /// True when nothing but background nodes is pending.
  bool foreground_empty() const { return num_pending_ == num_background_; }

  /// Lifetime count of events executed (Step() completions) — the per-
  /// partition `sim.part<k>.events` counter in partitioned runs.
  uint64_t executed_events() const { return executed_events_; }
  /// Stable cell address for stats-registry registration.
  const uint64_t* executed_events_cell() const { return &executed_events_; }
  /// Time of the most recently executed event (0 before the first event);
  /// the epoch scheduler derives per-partition barrier stall from it.
  Tick last_executed_ps() const { return last_executed_ps_; }

  /// Partition identity when this queue is one wheel of a PartitionSet
  /// (kNoPartition for a standalone queue, e.g. the single-threaded oracle).
  static constexpr uint32_t kNoPartition = ~uint32_t{0};
  uint32_t partition_id() const { return partition_id_; }
  void set_partition_id(uint32_t id) { partition_id_ = id; }

  /// Time of the earliest pending event; queue must be non-empty. (May migrate
  /// events between wheel levels to locate the head, hence non-const.)
  Tick NextEventTime() {
    EventNode* head = PeekEarliest();
    NDP_CHECK(head != nullptr);
    return head->when_;
  }

  /// Runs a single event. Returns false if the queue is empty.
  bool Step() {
    EventNode* node = PopEarliest();
    if (node == nullptr) return false;
    NDP_CHECK(node->when_ >= now_);
    now_ = node->when_;
    ++executed_events_;
    last_executed_ps_ = now_;
    node->Fire();
    return true;
  }

  /// Runs events until the queue is empty. Returns events executed.
  uint64_t RunUntilEmpty() {
    uint64_t n = 0;
    while (Step()) ++n;
    return n;
  }

  /// Runs all events with time <= `until`, then advances Now() to `until`.
  uint64_t RunUntil(Tick until) {
    uint64_t n = 0;
    for (EventNode* head = PeekEarliest();
         head != nullptr && head->when_ <= until; head = PeekEarliest()) {
      Step();
      ++n;
    }
    if (now_ < until) now_ = until;
    return n;
  }

  /// Runs until `pred()` is true or only background events remain (a run
  /// that is waiting on nothing but refresh is stuck, not slow). Returns
  /// whether the predicate was satisfied. Templated so the per-event
  /// predicate check is a direct (inlinable) call, not a std::function
  /// dispatch.
  template <typename Pred>
  bool RunUntilTrue(Pred&& pred) {
    while (!pred()) {
      if (foreground_empty()) return pred();
      Step();
    }
    return true;
  }

  // ndp-lint: no-alloc-end

 private:
  /// Pooled carrier for std::function events. Returned to the free list
  /// before the closure runs, so a closure that reschedules reuses its node.
  class ClosureNode final : public EventNode {
   public:
    explicit ClosureNode(EventQueue* owner) : owner_(owner) {}

   protected:
    void Fire() override {
      Callback cb = std::move(cb_);
      cb_ = nullptr;
      owner_->ReleaseClosure(this);
      cb();
    }

   private:
    friend class EventQueue;
    EventQueue* owner_;
    Callback cb_;
  };

  /// Heap comparator: top() is the earliest (when, seq) — a total order, so
  /// pop sequence is deterministic regardless of internal heap layout.
  struct NodeLater {
    bool operator()(const EventNode* a, const EventNode* b) const {
      if (a->when_ != b->when_) return a->when_ > b->when_;
      return a->seq_ > b->seq_;
    }
  };

  uint64_t Quantum(Tick when) const { return when / kSlotTicks; }

  // ndp-lint: no-alloc-begin (wheel internals; only PushHeap/AcquireClosure
  // below the end marker may touch the heap, growing amortized capacity)

  /// Files a node into bucket / L0 / L1 / overflow relative to the cursor.
  void InsertIntoWheel(EventNode* node) {
    const uint64_t q = Quantum(node->when_);
    // The cursor may sit ahead of Now() (RunUntil peeked at a far-future
    // head); anything at or before it belongs in the bucket heap.
    if (q <= cur_quantum_) {
      PushHeap(&bucket_, node);
      return;
    }
    const uint64_t span = q / kL0Slots;
    if (span == cur_span_) {
      node->next_ = l0_[q % kL0Slots];
      l0_[q % kL0Slots] = node;
      ++l0_count_;
    } else if (span - cur_span_ < kL1Slots) {
      node->next_ = l1_[span % kL1Slots];
      l1_[span % kL1Slots] = node;
      ++l1_count_;
    } else {
      PushHeap(&overflow_, node);
    }
  }

  /// Moves the cursor to the first quantum of span `s`: scatters that span's
  /// L1 slot into L0 and promotes overflow events under the new horizon.
  void EnterSpan(uint64_t s) {
    NDP_CHECK(s > cur_span_);
    cur_span_ = s;
    cur_quantum_ = s * kL0Slots - 1;  // scan resumes at the span's first slot
    EventNode* list = l1_[s % kL1Slots];
    l1_[s % kL1Slots] = nullptr;
    while (list != nullptr) {
      EventNode* n = list;
      list = list->next_;
      --l1_count_;
      const uint64_t q = Quantum(n->when_);
      n->next_ = l0_[q % kL0Slots];
      l0_[q % kL0Slots] = n;
      ++l0_count_;
    }
    const Tick horizon = (s + kL1Slots) * kSpanTicks;
    while (!overflow_.empty() && overflow_.front()->when_ < horizon) {
      std::pop_heap(overflow_.begin(), overflow_.end(), NodeLater{});
      EventNode* n = overflow_.back();
      overflow_.pop_back();
      const uint64_t q = Quantum(n->when_);
      if (q / kL0Slots == s) {
        n->next_ = l0_[q % kL0Slots];
        l0_[q % kL0Slots] = n;
        ++l0_count_;
      } else {
        n->next_ = l1_[(q / kL0Slots) % kL1Slots];
        l1_[(q / kL0Slots) % kL1Slots] = n;
        ++l1_count_;
      }
    }
  }

  /// Advances the cursor to the next non-empty quantum and drains that slot
  /// into the bucket heap. Pre: bucket empty, no solo, num_pending_ > 0.
  void AdvanceCursor() {
    while (bucket_.empty()) {
      if (l0_count_ > 0) {
        // All L0 entries sit in the current span strictly after the cursor.
        const uint64_t span_end = (cur_span_ + 1) * kL0Slots;
        for (uint64_t q = cur_quantum_ + 1; q < span_end; ++q) {
          EventNode*& slot = l0_[q % kL0Slots];
          if (slot != nullptr) {
            cur_quantum_ = q;
            while (slot != nullptr) {
              EventNode* n = slot;
              slot = n->next_;
              --l0_count_;
              PushHeap(&bucket_, n);
            }
            break;
          }
        }
        NDP_CHECK(!bucket_.empty());
        return;
      }
      if (l1_count_ > 0) {
        // L1 never holds a span the cursor has passed, so scanning forward
        // from the current span finds the earliest occupied one.
        for (uint64_t s = cur_span_ + 1;; ++s) {
          NDP_CHECK(s < cur_span_ + kL1Slots);
          if (l1_[s % kL1Slots] != nullptr) {
            EnterSpan(s);
            break;
          }
        }
        continue;
      }
      NDP_CHECK(!overflow_.empty());
      EnterSpan(Quantum(overflow_.front()->when_) / kL0Slots);
    }
  }

  /// Earliest pending node without unscheduling it; nullptr if empty.
  EventNode* PeekEarliest() {
    if (solo_ != nullptr) return solo_;
    if (num_pending_ == 0) return nullptr;
    if (bucket_.empty()) AdvanceCursor();
    return bucket_.front();
  }

  EventNode* PopEarliest() {
    EventNode* node;
    if (solo_ != nullptr) {
      node = solo_;
      solo_ = nullptr;
    } else if (num_pending_ == 0) {
      return nullptr;
    } else {
      if (bucket_.empty()) AdvanceCursor();
      std::pop_heap(bucket_.begin(), bucket_.end(), NodeLater{});
      node = bucket_.back();
      bucket_.pop_back();
    }
    node->scheduled_ = false;
    --num_pending_;
    num_background_ -= node->background_;
    return node;
  }

  // ndp-lint: no-alloc-end

  static void PushHeap(std::vector<EventNode*>* heap, EventNode* node) {
    heap->push_back(node);
    std::push_heap(heap->begin(), heap->end(), NodeLater{});
  }

  static bool RemoveFromHeap(std::vector<EventNode*>* heap, EventNode* node) {
    auto it = std::find(heap->begin(), heap->end(), node);
    if (it == heap->end()) return false;
    heap->erase(it);
    std::make_heap(heap->begin(), heap->end(), NodeLater{});
    return true;
  }

  static bool UnlinkFromSlot(EventNode** slot, EventNode* node) {
    for (EventNode** p = slot; *p != nullptr; p = &(*p)->next_) {
      if (*p == node) {
        *p = node->next_;
        return true;
      }
    }
    return false;
  }

  ClosureNode* AcquireClosure() {
    if (free_closures_ != nullptr) {
      ClosureNode* n = free_closures_;
      free_closures_ = static_cast<ClosureNode*>(n->next_);
      return n;
    }
    closure_arena_.push_back(std::make_unique<ClosureNode>(this));
    return closure_arena_.back().get();
  }

  void ReleaseClosure(ClosureNode* node) {
    node->next_ = free_closures_;
    free_closures_ = node;
  }

  Tick now_ = 0;
  uint64_t next_seq_ = 0;
  size_t num_pending_ = 0;
  size_t num_background_ = 0;  ///< pending background nodes
  uint64_t executed_events_ = 0;
  Tick last_executed_ps_ = 0;
  uint32_t partition_id_ = kNoPartition;

  EventNode* solo_ = nullptr;  ///< sole pending event (bypasses the wheel)

  uint64_t cur_quantum_ = 0;          ///< drain cursor, in kSlotTicks units
  uint64_t cur_span_ = 0;             ///< span the cursor is serving
  std::vector<EventNode*> bucket_;    ///< (when, seq) heap: cursor's quantum
  EventNode* l0_[kL0Slots] = {};      ///< unsorted chains, current span
  size_t l0_count_ = 0;
  EventNode* l1_[kL1Slots] = {};      ///< unsorted chains, one span per slot
  size_t l1_count_ = 0;
  std::vector<EventNode*> overflow_;  ///< (when, seq) heap beyond the horizon

  std::vector<std::unique_ptr<ClosureNode>> closure_arena_;
  ClosureNode* free_closures_ = nullptr;
};

}  // namespace ndp::sim
