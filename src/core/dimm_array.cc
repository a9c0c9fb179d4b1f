#include "core/dimm_array.h"

#include <algorithm>

namespace ndp::core {

DimmArray::DimmArray(dram::DramTiming timing, uint32_t channels,
                     uint32_t ranks_per_channel,
                     jafar::DeviceConfig device_config, uint32_t rows_per_bank,
                     bool partitioned)
    : timing_(std::move(timing)), device_config_(device_config) {
  if (partitioned) {
    // One partition per channel plus a host partition for runtime logic.
    // Lookahead = one DDR3 bus cycle: the cheapest modeled host<->device
    // interaction (a command hop across the channel interface) — see
    // DESIGN.md §5 for the derivation.
    host_partition_ = channels;
    partitions_ = std::make_unique<sim::PartitionSet>(
        channels + 1, /*lookahead_ps=*/timing_.tck_ps,
        /*cycle_ps=*/timing_.tck_ps);
  }
  dram::DramOrganization org;
  org.channels = channels;
  org.ranks_per_channel = ranks_per_channel;
  org.rows_per_bank = rows_per_bank;
  dram::ControllerConfig mc;
  StatsScope root(&stats_, "array");
  dram_ = std::make_unique<dram::DramSystem>(
      &eq(), timing_, org, dram::InterleaveScheme::kContiguous, mc,
      root.Sub("dram"), partitions_.get());
  for (uint32_t ch = 0; ch < channels; ++ch) {
    for (uint32_t rk = 0; rk < ranks_per_channel; ++rk) {
      devices_.push_back(std::make_unique<jafar::Device>(
          dram_.get(), ch, rk, device_config,
          root.Sub("dev" + std::to_string(devices_.size()))));
    }
  }
  // Legacy single-wheel arrays keep the seed's exact registry contents; the
  // partition counters exist only where partitions do.
  if (partitions_) {
    partitions_->RegisterStats(StatsScope(&stats_, "sim"));
  }
  for (uint32_t d = 0; d < devices_.size(); ++d) {
    alloc_next_.push_back(RankBase(d));
  }
}

void DimmArray::PostToDevice(uint32_t device, std::function<void()> fn) {
  if (!partitions_) {
    fn();
    return;
  }
  partitions_->Send(host_partition_, devices_[device]->channel_index(),
                    /*extra_delay_ps=*/0, std::move(fn));
}

void DimmArray::PostToHost(uint32_t device, std::function<void()> fn) {
  if (!partitions_) {
    fn();
    return;
  }
  partitions_->Send(devices_[device]->channel_index(), host_partition_,
                    /*extra_delay_ps=*/0, std::move(fn));
}

void DimmArray::AcquireAllOwnership() {
  uint32_t granted = 0;
  for (uint32_t d = 0; d < devices_.size(); ++d) {
    jafar::Device& dev = *devices_[d];
    // The grant callback fires on the channel partition; the shared counter
    // lives host-side, so it is bumped through the port (inline in legacy
    // mode — identical to the seed behavior).
    dram_->controller(dev.channel_index())
        .TransferOwnership(dev.rank_index(), dram::RankOwner::kAccelerator,
                           [this, d, &granted](sim::Tick) {
                             PostToHost(d, [&granted] { ++granted; });
                           });
  }
  NDP_CHECK(RunUntilTrue([&] { return granted == devices_.size(); }));
}

uint64_t DimmArray::RankBase(uint32_t device) const {
  const jafar::Device& dev = *devices_[device];
  return (static_cast<uint64_t>(dev.channel_index()) *
              dram_->organization().ranks_per_channel +
          dev.rank_index()) *
         dram_->organization().BytesPerRank();
}

Result<uint64_t> DimmArray::AllocOnDevice(uint32_t device, uint64_t bytes,
                                          uint64_t align) {
  NDP_CHECK(device < devices_.size() && align != 0 &&
            (align & (align - 1)) == 0);
  uint64_t base = (alloc_next_[device] + align - 1) & ~(align - 1);
  uint64_t limit = RankBase(device) + dram_->organization().BytesPerRank();
  if (base + bytes > limit) {
    return Status::ResourceExhausted("device rank allocator full");
  }
  alloc_next_[device] = base + bytes;
  return base;
}

std::vector<uint64_t> DimmArray::SplitRows(uint64_t rows, uint32_t n,
                                           const std::vector<double>& weights) {
  NDP_CHECK(n > 0);
  NDP_CHECK(weights.empty() || weights.size() == n);
  std::vector<uint64_t> counts(n, 0);
  double weight_sum = 0;
  for (uint32_t d = 0; d < n; ++d) {
    double w = weights.empty() ? 1.0 : weights[d];
    NDP_CHECK(w >= 0.0);
    weight_sum += w;
  }
  NDP_CHECK(weight_sum > 0.0);
  // Quotas floored to whole 64-row blocks: every partition start stays on a
  // bitmap-word boundary regardless of how ragged rows/weights are.
  uint64_t assigned = 0;
  for (uint32_t d = 0; d < n; ++d) {
    double w = weights.empty() ? 1.0 : weights[d];
    uint64_t quota = static_cast<uint64_t>(static_cast<double>(rows) *
                                           (w / weight_sum));
    counts[d] = quota / 64 * 64;
    assigned += counts[d];
  }
  // Round-robin the leftover whole blocks over positive-weight devices, then
  // append the sub-64 tail to the last non-empty slice (keeping every later
  // slice's first_row 64-aligned — there is none after it).
  uint64_t leftover_blocks = (rows - assigned) / 64;
  uint32_t d = 0;
  while (leftover_blocks > 0) {
    if (weights.empty() || weights[d] > 0.0) {
      counts[d] += 64;
      --leftover_blocks;
    }
    d = (d + 1) % n;
  }
  uint64_t tail = rows % 64;
  if (tail > 0) {
    uint32_t last = 0;
    bool found = false;
    for (uint32_t i = 0; i < n; ++i) {
      if (counts[i] > 0) { last = i; found = true; }
      if (!found && (weights.empty() || weights[i] > 0.0)) {
        last = i;
        found = true;
      }
    }
    counts[last] += tail;
  }
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  NDP_CHECK(total == rows);
  return counts;
}

Result<PlacedColumn> DimmArray::PlaceColumn(const db::Column& col,
                                            const std::vector<double>& weights) {
  PlacedColumn placed;
  placed.total_rows = col.size();
  std::vector<uint64_t> counts = SplitRows(col.size(), num_devices(), weights);
  uint64_t row = 0;
  for (uint32_t d = 0; d < num_devices(); ++d) {
    DevicePlacement part;
    part.device = d;
    part.first_row = row;
    part.rows = counts[d];
    if (part.rows > 0) {
      NDP_ASSIGN_OR_RETURN(part.col_base,
                           AllocOnDevice(d, part.rows * 8, 4096));
      NDP_ASSIGN_OR_RETURN(
          part.out_base,
          AllocOnDevice(d, ((part.rows + 7) / 8 + 4095) & ~uint64_t{4095},
                        4096));
      dram_->backing_store().Write(part.col_base, col.data() + row,
                                   part.rows * 8);
    }
    placed.parts.push_back(part);
    row += part.rows;
  }
  NDP_CHECK(row == col.size());
  return placed;
}

void DimmArray::ReadBitmap(uint64_t out_base, uint64_t first_row,
                           uint64_t rows, BitVector* bitmap) const {
  NDP_CHECK(first_row % 64 == 0);
  for (uint64_t w = 0; w * 64 < rows; ++w) {
    uint64_t value = dram_->backing_store().Read64(out_base + w * 8);
    uint64_t valid = rows - w * 64;
    if (valid < 64) value &= (uint64_t{1} << valid) - 1;
    bitmap->SetWord(first_row / 64 + w, value);
  }
}

Result<DimmArray::ParallelResult> DimmArray::RunParallelSelect(
    const PlacedColumn& col, int64_t lo, int64_t hi) {
  StatsSnapshot before = stats_.Snapshot();
  sim::Tick start = eq().Now();
  // Per-device completion slots, written host-side only (the device's done
  // callback hops back through the port): summing/maxing them at barriers is
  // order-independent, so the result is identical at every thread count.
  // Empty slices start done.
  std::vector<uint8_t> dev_done(col.parts.size(), 0);
  std::vector<sim::Tick> dev_end(col.parts.size(), start);
  std::vector<uint64_t> dev_matches(col.parts.size(), 0);
  for (size_t i = 0; i < col.parts.size(); ++i) {
    const DevicePlacement& part = col.parts[i];
    if (part.rows == 0) {
      dev_done[i] = 1;
      continue;
    }
    jafar::SelectJob job;
    job.col_base = part.col_base;
    job.num_rows = part.rows;
    job.range_low = lo;
    job.range_high = hi;
    job.out_base = part.out_base;
    uint32_t d = part.device;
    // Exclusive-ownership research harness: a wedged device surfaces as a
    // failed RunUntilTrue drain check below; no queueing to bypass here.
    // ndp-lint: watchdog-arm-ok  ndp-lint: runtime-bypass-ok  harness drains
    NDP_RETURN_NOT_OK(devices_[d]->Start(
        job, [this, d, i, &dev_done, &dev_end,
              &dev_matches](const jafar::Completion& c) {
          sim::Tick t = c.completed_at;
          uint64_t n = c.matches;
          PostToHost(d, [i, t, n, &dev_done, &dev_end, &dev_matches] {
            dev_done[i] = 1;
            dev_end[i] = t;
            dev_matches[i] = n;
          });
        }));
  }
  if (!RunUntilTrue([&] {
        for (uint8_t f : dev_done) {
          if (!f) return false;
        }
        return true;
      })) {
    return Status::Internal("parallel select did not complete");
  }
  sim::Tick makespan_end = start;
  for (sim::Tick t : dev_end) makespan_end = std::max(makespan_end, t);

  ParallelResult result;
  result.duration_ps = makespan_end - start;
  result.counters = stats_.Snapshot().DeltaSince(before);
  result.bitmap.Resize(col.total_rows);
  for (const DevicePlacement& part : col.parts) {
    if (part.rows > 0) {
      ReadBitmap(part.out_base, part.first_row, part.rows, &result.bitmap);
    }
  }
  for (uint64_t n : dev_matches) result.matches += n;
  return result;
}

}  // namespace ndp::core
