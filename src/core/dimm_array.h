// Multi-DIMM JAFAR (§4 "Memory Management": "adding support for more than one
// DIMM is an essential future step"). A DimmArray hosts one JAFAR unit per
// rank across all channels, range-partitions a column over the units, runs
// their jobs in parallel, and merges the per-partition bitmaps — the
// natural scale-out of select pushdown.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "db/column.h"
#include "db/operators.h"
#include "dram/dram_system.h"
#include "jafar/device.h"
#include "sim/partition.h"
#include "util/bitvector.h"
#include "util/stats_registry.h"

namespace ndp::core {

/// One device's contiguous slice of a placed column.
struct DevicePlacement {
  uint32_t device = 0;
  uint64_t col_base = 0;   ///< physical address of the slice (page-aligned)
  uint64_t out_base = 0;   ///< physical address of the slice's bitmap
  uint64_t first_row = 0;  ///< logical row of the slice start (64-aligned)
  uint64_t rows = 0;       ///< may be 0 (degenerate splits keep all devices)
};

/// A column laid out across the array's device ranks.
struct PlacedColumn {
  uint64_t total_rows = 0;
  std::vector<DevicePlacement> parts;  ///< one entry per device, in order
};

/// \brief A memory system with one JAFAR per rank.
class DimmArray {
 public:
  /// Builds `channels x ranks_per_channel` units over a fresh DRAM system.
  /// With `partitioned` set, the simulation splits into channels + 1 timing-
  /// wheel partitions (one per channel plus a host partition) advanced in
  /// conservative epochs; cross-partition interactions cost one lookahead
  /// hop (one DDR3 bus cycle) each way. The default single-wheel mode is
  /// bit-identical to the seed kernel and serves as the ordering oracle.
  /// `device_config` carries the datapath generation: derive it with
  /// DeviceConfig::Derive for v1_rank_io, DeriveBank for v2_bank_level.
  DimmArray(dram::DramTiming timing, uint32_t channels,
            uint32_t ranks_per_channel, jafar::DeviceConfig device_config,
            uint32_t rows_per_bank = 8192, bool partitioned = false);
  NDP_DISALLOW_COPY_AND_ASSIGN(DimmArray);

  uint32_t num_devices() const { return static_cast<uint32_t>(devices_.size()); }
  /// Host-side wheel: the host partition's queue in partitioned mode, the
  /// single global queue otherwise.
  sim::EventQueue& eq() {
    return partitions_ ? partitions_->queue(host_partition_) : eq_;
  }
  bool partitioned() const { return partitions_ != nullptr; }
  sim::PartitionSet* partitions() { return partitions_.get(); }
  dram::DramSystem& dram() { return *dram_; }
  jafar::Device& device(uint32_t i) { return *devices_[i]; }
  const dram::DramTiming& timing() const { return timing_; }
  const jafar::DeviceConfig& device_config() const { return device_config_; }

  /// Grants every device its rank (MR3/MPR on each controller). Synchronous.
  void AcquireAllOwnership();

  // -- Barrier-safe execution & cross-partition ports -----------------------
  // In partitioned mode these are the only legal ways for host-side code to
  // drive the simulation or to interact with a device/controller that lives
  // on another partition's wheel. In single-wheel mode they collapse to the
  // legacy behavior (immediate call / plain eq() run), so the runtime keeps
  // one code path for both.

  /// Runs `fn` on `device`'s channel partition one lookahead hop from now
  /// (immediately, in single-wheel mode).
  void PostToDevice(uint32_t device, std::function<void()> fn);
  /// Runs `fn` on the host partition one lookahead hop from now
  /// (immediately, in single-wheel mode). Call from the device's partition.
  void PostToHost(uint32_t device, std::function<void()> fn);

  /// Pumps the simulation until `pred()` holds (at epoch barriers in
  /// partitioned mode, per event otherwise) or no work remains.
  template <typename Pred>
  bool RunUntilTrue(Pred&& pred) {
    if (partitions_) return partitions_->RunUntilTrue(std::forward<Pred>(pred));
    return eq_.RunUntilTrue(std::forward<Pred>(pred));
  }
  /// Runs every event at time <= `until`, then advances Now() to `until`.
  void RunUntil(sim::Tick until) {
    if (partitions_) {
      partitions_->RunUntil(until);
    } else {
      eq_.RunUntil(until);
    }
  }

  /// Splits `rows` into per-device counts (size n, zeros allowed), every
  /// count a multiple of 64 except a single sub-64 tail on the last non-empty
  /// device — so partition starts never straddle bitmap words. `weights`
  /// skews the split (empty = uniform); exposed for partition-rounding tests.
  static std::vector<uint64_t> SplitRows(uint64_t rows, uint32_t n,
                                         const std::vector<double>& weights);

  /// Bump-allocates `bytes` in `device`'s rank (functional space for column
  /// slices, bitmaps, and steal scratch). ResourceExhausted when full.
  Result<uint64_t> AllocOnDevice(uint32_t device, uint64_t bytes,
                                 uint64_t align = 4096);

  /// Lays `col` out across the device ranks per SplitRows (device i gets the
  /// i-th contiguous slice) and copies the slice data into the backing
  /// store. The runtime places many columns side by side.
  Result<PlacedColumn> PlaceColumn(const db::Column& col,
                                   const std::vector<double>& weights = {});

  /// Copies the device bitmap of rows [first_row, first_row + rows), stored
  /// from `out_base`, into `bitmap`'s words. `first_row` must be 64-aligned;
  /// bits past `rows` in the last word read as zero.
  void ReadBitmap(uint64_t out_base, uint64_t first_row, uint64_t rows,
                  BitVector* bitmap) const;

  struct ParallelResult {
    sim::Tick duration_ps = 0;   ///< makespan across devices
    uint64_t matches = 0;
    BitVector bitmap;            ///< merged, in logical row order
    /// Registry delta over the parallel run ("array.dram.*", "array.dev<i>.*").
    StatsSnapshot counters;
  };

  /// Runs `lo <= v <= hi` on every device slice of `col` in parallel and
  /// merges the bitmaps. Exclusive use: nothing else may run on the array.
  Result<ParallelResult> RunParallelSelect(const PlacedColumn& col, int64_t lo,
                                           int64_t hi);

  /// Registry over all controllers and devices (paths under "array.").
  const StatsRegistry& stats() const { return stats_; }
  /// Mutable registry, for components mounted on top of the array (the
  /// multi-query runtime registers under "array.runtime."). Such components
  /// must outlive any registry read, like every other registrant.
  StatsRegistry* mutable_stats() { return &stats_; }

 private:
  sim::EventQueue eq_;  ///< single-wheel (oracle) mode's only queue
  std::unique_ptr<sim::PartitionSet> partitions_;  ///< null in legacy mode
  uint32_t host_partition_ = 0;  ///< partition index after the channels
  dram::DramTiming timing_;
  StatsRegistry stats_;  ///< declared before the components registered in it
  std::unique_ptr<dram::DramSystem> dram_;
  jafar::DeviceConfig device_config_;
  std::vector<std::unique_ptr<jafar::Device>> devices_;
  std::vector<uint64_t> alloc_next_;  ///< per-device bump-allocator cursor

  uint64_t RankBase(uint32_t device) const;
};

}  // namespace ndp::core
