// Top-level memory system: address mapper + channels + one controller per
// channel + the functional backing store. This is what the cache hierarchy
// (host path) talks to, and what JAFAR devices attach to (device path).
#pragma once

#include <memory>
#include <vector>

#include "dram/address.h"
#include "dram/backing_store.h"
#include "dram/controller.h"
#include "sim/event_queue.h"
#include "sim/partition.h"
#include "util/status.h"

namespace ndp::dram {

/// \brief The complete simulated DRAM subsystem.
class DramSystem {
 public:
  /// `stats` (optional) mounts per-controller counters at
  /// "<prefix>.ctrl<i>.*" in the given registry. `partitions` (optional)
  /// puts channel c's controller (and everything clocked by it) on partition
  /// c's timing wheel instead of `eq` — the partitioned mode; `eq`
  /// remains the host-side queue.
  DramSystem(sim::EventQueue* eq, DramTiming timing, DramOrganization org,
             InterleaveScheme scheme, ControllerConfig ctrl_config,
             const StatsScope& stats = {},
             sim::PartitionSet* partitions = nullptr);
  NDP_DISALLOW_COPY_AND_ASSIGN(DramSystem);

  /// Routes a burst request through the owning channel's controller.
  /// The functional data transfer against the backing store happens at
  /// completion time for reads and at enqueue time for writes.
  Status EnqueueRequest(const Request& req);

  bool CanAccept(const Request& req) const;

  const AddressMapper& mapper() const { return mapper_; }
  const DramTiming& timing() const { return timing_; }
  const DramOrganization& organization() const { return org_; }

  uint32_t num_channels() const { return static_cast<uint32_t>(channels_.size()); }
  Channel& channel(uint32_t c) { return *channels_[c]; }
  MemoryController& controller(uint32_t c) { return *controllers_[c]; }

  BackingStore& backing_store() { return backing_; }
  const BackingStore& backing_store() const { return backing_; }

  /// Aggregated counters across all channels.
  ControllerCounters TotalCounters() const;

#ifdef NDP_PROTOCOL_CHECK
  /// Sum of recorded protocol violations across every channel's checker
  /// (always zero while the checkers are in their default fail-fast mode).
  // ndp-lint: test-only-ok protocol_clean_test sums the checkers
  uint64_t TotalProtocolViolations() const;
#endif

  sim::EventQueue* event_queue() { return eq_; }
  /// The wheel channel `c`'s controller and devices schedule on: partition
  /// c's queue in partitioned mode, the shared host queue otherwise.
  sim::EventQueue* event_queue(uint32_t c) {
    return partitions_ != nullptr ? &partitions_->queue(c) : eq_;
  }
  sim::PartitionSet* partitions() { return partitions_; }

 private:
  sim::EventQueue* eq_;
  sim::PartitionSet* partitions_;
  DramTiming timing_;
  DramOrganization org_;
  AddressMapper mapper_;
  BackingStore backing_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<MemoryController>> controllers_;
};

}  // namespace ndp::dram
