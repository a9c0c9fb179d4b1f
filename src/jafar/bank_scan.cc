// Generation v2_bank_level: Membrane-style bank-level filtering. A small
// comparator sits in every bank's peripheral logic; the device ARMs a set of
// banks, streams each bank's rows with ordinary RD commands whose bursts are
// consumed *inside* the bank (no IO-bus data transfer), and collects one
// match bit per element in a per-bank accumulator that drains over a narrow
// per-rank result bus when the bank is precharged.
//
// Sequencing: the scan range is contiguous within the rank and the address
// layout walks a full DRAM row before switching banks, so consecutive
// row-sized segments land on distinct banks. The sequencer takes up to
// banks_per_rank consecutive segments per *wave*, runs one command chain per
// segment concurrently (ARM -> ACT -> RD... -> PRE(drain) -> DISARM), and at
// the wave barrier evaluates the covered rows functionally and appends their
// bits to the shared output buffer — all banks are precharged and disarmed at
// a barrier, so bitmap flush writes are always safe there.
//
// Refresh: the host controller refuses to refresh a rank with armed banks
// (the comparator sits on the sense-amp path), so the device checks the
// refresh steal-back signal only *between* waves and runs every mid-chain
// command with defer_to_refresh=false. A wave is bounded by one row's worth
// of reads per bank (~1.3 us), well inside the controller's postponement
// headroom, so refresh is delayed by at most one wave, never livelocked.
#include "jafar/bank_scan.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fault/injector.h"
#include "sim/event_queue.h"
#include "util/macros.h"

namespace ndp::jafar {

namespace {
constexpr uint32_t kBurstBytes = 64;
}  // namespace

Device::BankScan::BankScan(Device* dev, const StatsScope& stats) : dev_(dev) {
  const DeviceConfig& cfg = dev_->config_;
  NDP_CHECK_MSG(cfg.bank_filter.valid(),
                "v2_bank_level requires accel-derived bank filter timing "
                "(build the DeviceConfig with DeviceConfig::DeriveBank)");
  NDP_CHECK(cfg.bank_words_per_cycle > 0);
  // The config lives by value inside the Device shell, so the timing block's
  // address is stable for the device's lifetime.
  dev_->channel().SetBankFilterTiming(dev_->rank_index_, &cfg.bank_filter);
  stats.Counter("filter_bursts", &filter_bursts_);
  stats.Counter("filter_segments", &filter_segments_);
  stats.Counter("bank_waves", &bank_waves_);
}

void Device::BankScan::Teardown() {
  // A failed or aborted job may die with banks still armed (and bits
  // pending), which would wedge host refresh forever.
  dev_->channel().ResetBankFilters(dev_->rank_index_);
  wave_pending_ = 0;
}

void Device::BankScan::Begin() {
  const StreamSpec& s = dev_->stream_;
  scan_end_ = s.cols[0] + s.rows * s.stride;
  next_seg_start_ = s.cols[0];
  wave_covered_end_ = s.cols[0];
  wave_pending_ = 0;
  StartWave();
}

void Device::BankScan::StartWave() {
  // Between-waves refresh check: every bank is precharged and disarmed here,
  // so this is the one place the device can politely yield the rank.
  if (dev_->dram_->controller(dev_->channel_index_)
          .RefreshClaims(dev_->rank_index_)) {
    ++dev_->stats_.refresh_backoffs;
    dev_->ScheduleAtGuarded(dev_->eq_->Now() + dev_->BusCycles(8),
                            [this] { StartWave(); });
    return;
  }
  const dram::AddressMapper& mapper = dev_->dram_->mapper();
  const uint64_t row_bytes = mapper.organization().row_size_bytes;
  const uint32_t max_lanes = mapper.organization().banks_per_rank;
  std::vector<Segment> segs;
  uint64_t pos = next_seg_start_;
  uint64_t bank_mask = 0;
  while (segs.size() < max_lanes && pos < scan_end_) {
    uint64_t seg_end = std::min((pos / row_bytes + 1) * row_bytes, scan_end_);
    uint32_t bank = mapper.Decode(pos).ValueOrDie().bank;
    // Consecutive row segments round-robin the banks, so <= banks_per_rank of
    // them are always pairwise distinct; guard the invariant anyway.
    NDP_CHECK_MSG((bank_mask & (uint64_t{1} << bank)) == 0,
                  "wave would arm the same bank twice");
    bank_mask |= uint64_t{1} << bank;
    segs.push_back(Segment{pos, seg_end});
    pos = seg_end;
  }
  NDP_CHECK(!segs.empty());
  ++bank_waves_;
  // Commit the wave extent before launching anything: chains may complete
  // through synchronous IssueWhenReady fast paths.
  wave_pending_ = static_cast<uint32_t>(segs.size());
  next_seg_start_ = pos;
  wave_covered_end_ = pos;
  for (const Segment& seg : segs) RunSegment(seg);
}

void Device::BankScan::RunSegment(const Segment& seg) {
  const uint64_t first_burst = seg.start - seg.start % kBurstBytes;
  uint64_t last_burst = seg.end - 1;
  last_burst -= last_burst % kBurstBytes;
  const uint32_t nbursts =
      static_cast<uint32_t>((last_burst - first_burst) / kBurstBytes + 1);
  dram::DramLocation loc =
      dev_->dram_->mapper().Decode(first_burst).ValueOrDie();
  ArmSegment(loc, first_burst, nbursts);
}

void Device::BankScan::ArmSegment(dram::DramLocation loc, uint64_t first_burst,
                                  uint32_t nbursts) {
  // ARM requires a closed bank (the comparator taps the sense amps across a
  // fresh activation). A leftover open row gets precharged first.
  if (dev_->channel().rank(dev_->rank_index_).bank(loc.bank).has_open_row()) {
    dram::Command pre{dram::CommandType::kPrecharge, dev_->rank_index_, loc.bank};
    dev_->IssueWhenReady(
        pre,
        [this, loc, first_burst, nbursts](sim::Tick) {
          ArmSegment(loc, first_burst, nbursts);
        },
        /*on_stale=*/nullptr, /*defer_to_refresh=*/false);
    return;
  }
  dram::Command arm{dram::CommandType::kBankArm, dev_->rank_index_, loc.bank};
  dev_->IssueWhenReady(
      arm,
      [this, loc, first_burst, nbursts](sim::Tick) {
        Reactivate(loc, first_burst, /*idx=*/0, nbursts);
      },
      /*on_stale=*/nullptr, /*defer_to_refresh=*/false);
}

void Device::BankScan::Reactivate(dram::DramLocation loc, uint64_t first_burst,
                                  uint32_t idx, uint32_t nbursts) {
  dram::Command act{dram::CommandType::kActivate, dev_->rank_index_, loc.bank,
                    loc.row};
  ++dev_->stats_.activates;
  dev_->IssueWhenReady(
      act,
      [this, loc, first_burst, idx, nbursts](sim::Tick) {
        ReadNext(loc, first_burst, idx, nbursts);
      },
      /*on_stale=*/nullptr, /*defer_to_refresh=*/false);
}

void Device::BankScan::ReadNext(dram::DramLocation loc, uint64_t first_burst,
                                uint32_t idx, uint32_t nbursts) {
  if (idx == nbursts) {
    DrainSegment(loc);
    return;
  }
  dram::Command rd{dram::CommandType::kRead, dev_->rank_index_, loc.bank, loc.row,
                   loc.burst_col + idx};
  const uint64_t addr = first_burst + uint64_t{idx} * kBurstBytes;
  dev_->IssueWhenReady(
      rd,
      [this, loc, first_burst, idx, nbursts, addr](sim::Tick) {
        if (dev_->injector_ != nullptr && dev_->injector_->DrawStallAtBurst()) {
          // Sequencer stall: the wave never completes and the driver
          // watchdog aborts the job (teardown disarms the banks).
          return;
        }
        ++dev_->stats_.bursts_read;
        ++filter_bursts_;
        // The comparator still waits the internal CAS latency for the burst
        // to reach it; it just never crosses the IO bus.
        dev_->stats_.data_wait_ps += dev_->BusCycles(dev_->timing().cl);
        if (!dev_->HandleReadFault(addr)) {
          return;  // uncorrectable ECC: FailJob already ran
        }
        const uint32_t words = kBurstBytes / 8;
        // Probe jobs run each bank's hash-lane slice at its own (slower)
        // scheduled rate instead of the range comparator's.
        const DeviceConfig& cfg = dev_->config_;
        const bool probe = std::holds_alternative<ProbeJob>(*dev_->job_);
        sim::Tick proc = probe ? cfg.BankProbeBurstProcessingPs(words)
                               : cfg.BankBurstProcessingPs(words);
        dev_->stats_.engine_busy_ps += proc;
        dev_->stats_.energy_fj += (probe ? cfg.bank_probe_energy_per_word_fj
                                         : cfg.bank_energy_per_word_fj) *
                                  words;
        ReadNext(loc, first_burst, idx + 1, nbursts);
      },
      /*on_stale=*/nullptr, /*defer_to_refresh=*/false);
}

void Device::BankScan::DrainSegment(dram::DramLocation loc) {
  // PRE on an armed bank with pending bits drains the accumulator over the
  // per-rank result bus (the DRAM model serializes concurrent drains).
  dram::Command pre{dram::CommandType::kPrecharge, dev_->rank_index_, loc.bank};
  dev_->IssueWhenReady(
      pre,
      [this, loc](sim::Tick) {
        dram::Command dis{dram::CommandType::kBankDisarm, dev_->rank_index_,
                          loc.bank};
        dev_->IssueWhenReady(
            dis, [this](sim::Tick) { OnSegmentDone(); },
            /*on_stale=*/nullptr, /*defer_to_refresh=*/false);
      },
      /*on_stale=*/nullptr, /*defer_to_refresh=*/false);
}

void Device::BankScan::OnSegmentDone() {
  ++filter_segments_;
  NDP_CHECK(wave_pending_ > 0);
  if (--wave_pending_ > 0) return;
  // Wave barrier: every segment drained and disarmed. Evaluate the rows the
  // wave covered (same covers-the-burst formula as v1).
  const uint64_t covered =
      (wave_covered_end_ + kBurstBytes - 1) & ~uint64_t{kBurstBytes - 1};
  const StreamSpec& s = dev_->stream_;
  const uint64_t last =
      std::min(s.rows, (covered - s.cols[0] + s.stride - 1) / s.stride);
  EvalRange(last);
}

void Device::BankScan::EvalRange(uint64_t last) {
  dev_->FoldRows(last);
  if (dev_->cursor_rows_ < last) {
    // Output buffer full mid-wave: flush, then resume. Every bank is
    // precharged and disarmed at a barrier, so the writeback bursts cannot
    // collide with filter state.
    dev_->Flush(/*final=*/false, [this, last](sim::Tick) { EvalRange(last); });
    return;
  }
  if (next_seg_start_ < scan_end_) {
    StartWave();
  } else {
    dev_->EndStream();
  }
}

}  // namespace ndp::jafar
