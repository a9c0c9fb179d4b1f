#include "sim/partition.h"

#include <algorithm>
#include <string>
#include <utility>

namespace ndp::sim {

PartitionSet::PartitionSet(uint32_t num_partitions, Tick lookahead_ps,
                           Tick cycle_ps)
    : edges_(static_cast<size_t>(num_partitions) * num_partitions),
      lookahead_(lookahead_ps),
      cycle_ps_(cycle_ps) {
  NDP_CHECK_MSG(num_partitions >= 1, "need at least one partition");
  NDP_CHECK_MSG(lookahead_ps >= 1,
                "conservative epochs need a nonzero lookahead");
  NDP_CHECK(cycle_ps >= 1);
  queues_.reserve(num_partitions);
  stall_ps_.assign(num_partitions, 0);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    queues_.push_back(std::make_unique<EventQueue>());
    queues_.back()->set_partition_id(p);
  }
}

void PartitionSet::Send(uint32_t src, uint32_t dst, Tick extra_delay_ps,
                        std::function<void()> fn) {
  NDP_CHECK(src < queues_.size() && dst < queues_.size());
  edge(src, dst).push_back(
      Message{queues_[src]->Now() + lookahead_ + extra_delay_ps,
              std::move(fn)});
}

Tick PartitionSet::MinNextEventTime() {
  Tick e = EventNode::kNever;
  for (auto& q : queues_) {
    if (!q->empty()) e = std::min(e, q->NextEventTime());
  }
  return e;
}

bool PartitionSet::ForegroundEmpty() const {
  return std::all_of(queues_.begin(), queues_.end(),
                     [](const auto& q) { return q->foreground_empty(); });
}

void PartitionSet::DrainPorts() {
  const uint32_t k = num_partitions();
  for (uint32_t dst = 0; dst < k; ++dst) {
    EventQueue& q = *queues_[dst];
    for (uint32_t src = 0; src < k; ++src) {
      std::deque<Message>& port = edge(src, dst);
      for (Message& m : port) {
        // The lookahead guarantees in-window sends land beyond the window:
        // tau + L >= e + L > t_end - 1 >= dst.Now(). Anything else is a
        // protocol violation, not a scheduling decision to paper over.
        NDP_CHECK_MSG(m.deliver_at >= q.Now(),
                      "cross-partition message would arrive in the past");
        q.ScheduleAt(m.deliver_at, std::move(m.fn));
      }
      port.clear();
    }
  }
}

void PartitionSet::RunEpoch(Tick t_end) {
  ++epochs_;
  for (uint32_t p = 0; p < num_partitions(); ++p) {
    EventQueue& q = *queues_[p];
    const Tick start = q.Now();
    q.RunUntil(t_end - 1);
    // Simulated time the partition sat idle at the window tail; a partition
    // whose events end early (or that had none) stalls until the barrier.
    const Tick last = q.last_executed_ps();
    const Tick busy_until = last > start ? last : start;
    stall_ps_[p] += (t_end - 1) - busy_until;
  }
}

void PartitionSet::RunUntil(Tick until) {
  for (;;) {
    DrainPorts();
    Tick e = MinNextEventTime();
    if (e == EventNode::kNever || e > until) break;
    // The final window is clamped so no event beyond `until` runs.
    RunEpoch(std::min(e + lookahead_, until + 1));
  }
  for (auto& q : queues_) {
    if (q->Now() < until) q->RunUntil(until);  // no events left; advances time
  }
}

void PartitionSet::RegisterStats(const StatsScope& scope) const {
  scope.Counter("epochs", &epochs_);
  for (uint32_t p = 0; p < num_partitions(); ++p) {
    StatsScope part = scope.Sub("part" + std::to_string(p));
    part.Counter("events", queues_[p]->executed_events_cell());
    const Tick* stall = &stall_ps_[p];
    const Tick cycle = cycle_ps_;
    part.Counter("barrier_stall_cycles",
                 std::function<uint64_t()>([stall, cycle] {
                   return *stall / cycle;
                 }));
  }
}

}  // namespace ndp::sim
