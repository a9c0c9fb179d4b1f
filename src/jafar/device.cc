#include "jafar/device.h"

#include <algorithm>
#include <cstring>

#include "fault/ecc.h"
#include "fault/injector.h"
#include "jafar/checksum.h"
#include "jafar/bank_scan.h"
#include "util/logging.h"
#include "util/macros.h"

namespace ndp::jafar {

namespace {
constexpr uint32_t kBurstBytes = 64;
constexpr uint32_t kBitsPerBurst = kBurstBytes * 8;  // 512 bitmap bits / burst
}  // namespace

Device::Device(dram::DramSystem* dram, uint32_t channel_index,
               uint32_t rank_index, DeviceConfig config,
               const StatsScope& stats)
    : dram_(dram),
      channel_index_(channel_index),
      rank_index_(rank_index),
      config_(config),
      eq_(dram->event_queue(channel_index)) {
  NDP_CHECK(channel_index < dram->num_channels());
  NDP_CHECK(rank_index < dram->channel(channel_index).num_ranks());
  NDP_CHECK(config_.output_buffer_bits % kBitsPerBurst == 0);
  NDP_CHECK_MSG(config_.elem_bytes == 8 || config_.elem_bytes == 4,
                "JAFAR filters 64-bit words or packed 32-bit halves (§4)");
  pending_bits_.Resize(config_.output_buffer_bits);
  stats.Counter("jobs_completed", &stats_.jobs_completed);
  stats.Counter("jobs_failed", &stats_.jobs_failed);
  stats.Counter("rows_processed", &stats_.rows_processed);
  stats.Counter("matches", &stats_.matches);
  stats.Counter("bursts_read", &stats_.bursts_read);
  stats.Counter("bursts_written", &stats_.bursts_written);
  stats.Counter("activates", &stats_.activates);
  stats.Counter("data_wait_ps", &stats_.data_wait_ps);
  stats.Counter("engine_busy_ps", &stats_.engine_busy_ps);
  stats.Counter("total_busy_ps", &stats_.total_busy_ps);
  stats.Counter("energy_fj", &stats_.energy_fj);
  stats.Counter("polite_backoffs", &stats_.polite_backoffs);
  stats.Counter("refresh_backoffs", &stats_.refresh_backoffs);
  // ndp-lint: generation-dispatch-ok the one v1/v2 dispatch site
  if (config_.generation == DeviceGeneration::kV2BankLevel) {
    bank_scan_ = std::make_unique<BankScan>(this, stats);
  }
}

Device::~Device() = default;

int64_t Device::ReadValue(uint64_t addr) const {
  if (config_.elem_bytes == 8) {
    return static_cast<int64_t>(dram_->backing_store().Read64(addr));
  }
  int32_t v;
  dram_->backing_store().Read(addr, &v, 4);
  return v;
}

Status Device::CheckRange(uint64_t base, uint64_t count,
                          uint64_t elem_bytes) const {
  uint64_t len;
  if (__builtin_mul_overflow(count, elem_bytes, &len)) {
    return Status::InvalidArgument("job byte length overflows 64 bits");
  }
  if (len == 0) return Status::InvalidArgument("empty range");
  const uint64_t capacity = dram_->mapper().organization().TotalBytes();
  if (base < capacity && len > capacity - base) {
    return Status::InvalidArgument("job range runs past installed capacity");
  }
  auto first = dram_->mapper().Decode(base);
  NDP_RETURN_NOT_OK(first.status());
  auto last = dram_->mapper().Decode(base + len - 1);
  NDP_RETURN_NOT_OK(last.status());
  if (first.value().channel != channel_index_ ||
      last.value().channel != channel_index_ ||
      first.value().rank != rank_index_ || last.value().rank != rank_index_) {
    return Status::InvalidArgument(
        "job data must be resident on this device's DIMM (channel " +
        std::to_string(channel_index_) + ", rank " +
        std::to_string(rank_index_) + ")");
  }
  return Status::OK();
}

Status Device::CheckIdleAndOwned() const {
  if (busy_) return Status::DeviceBusy("a job is already executing");
  if (config_.require_ownership &&
      dram_->channel(channel_index_).rank(rank_index_).owner() !=
          dram::RankOwner::kAccelerator) {
    return Status::FailedPrecondition(
        "rank ownership not held: set MR3/MPR before invoking JAFAR "
        "(§2.2, Coordinating DRAM Access)");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Fault handling & recovery

void Device::ScheduleAtGuarded(sim::Tick t, std::function<void()> fn) {
  uint64_t epoch = job_epoch_;
  eq_->ScheduleAt(t, [this, epoch, fn = std::move(fn)] {
    if (epoch == job_epoch_) fn();
  });
}

void Device::ScheduleAfterGuarded(sim::Tick delta, std::function<void()> fn) {
  ScheduleAtGuarded(eq_->Now() + delta, std::move(fn));
}

void Device::EndJob() {
  if (bank_scan_) bank_scan_->Teardown();
  if (active_is<ProbeJob>()) {
    // The job may end mid filter-load; close the shadow window (idempotent).
    channel().NoteProbeFilterLoadDone(rank_index_);
  }
  ++job_epoch_;  // strand every in-flight sequencer event
  stats_.total_busy_ps += eq_->Now();  // settle the negative start stamp
  busy_ = false;
  job_.reset();
}

void Device::AbortJob() {
  if (!busy_) return;  // completion won the race against the watchdog
  EndJob();
  ++stats_.jobs_failed;
  on_done_ = nullptr;  // the aborting driver already gave up on this callback
}

void Device::FailJob(Status st) {
  NDP_CHECK(busy_);
  EndJob();
  ++stats_.jobs_failed;
  auto cb = std::move(on_done_);
  on_done_ = nullptr;
  if (cb) cb(Completion{std::move(st), 0, eq_->Now(), 0});
}

bool Device::MaybeInjectHang() {
  if (injector_ != nullptr && injector_->DrawHangAtDispatch()) {
    // The command sequencer wedges before its first step: the device stays
    // busy with no pending events. Only the driver watchdog (AbortJob) can
    // recover it.
    return true;
  }
  return false;
}

bool Device::DrawStallAtBurst() {
  return injector_ != nullptr && injector_->DrawStallAtBurst();
}

bool Device::HandleReadFault(uint64_t burst_addr) {
  if (injector_ == nullptr) return true;
  fault::ReadFault rf = injector_->DrawReadBurst();
  if (rf == fault::ReadFault::kNone) return true;
  // Model the flip on the burst's first 64-bit word through the SECDED
  // (72,64) code the DIMM would carry.
  uint64_t word = dram_->backing_store().Read64(burst_addr);
  uint8_t check = fault::EccEncode(word);
  if (rf == fault::ReadFault::kCorrectable) {
    uint32_t pos = injector_->DrawEccBitPosition();
    fault::EccCodeword flipped = fault::EccFlipBit(word, check, pos);
    fault::EccDecoded dec = fault::EccDecode(flipped.data, flipped.check);
    NDP_CHECK_MSG(dec.result == fault::EccResult::kCorrected &&
                      dec.data == word,
                  "SECDED failed to correct a single-bit flip");
    // Corrected in flight: the job sees clean data, only the scrub log knows.
    channel().rank(rank_index_).NoteEccCorrected();
    return true;
  }
  uint32_t a = 0, b = 0;
  injector_->DrawEccDoubleFlip(&a, &b);
  fault::EccCodeword flipped = fault::EccFlipBit(word, check, a);
  flipped = fault::EccFlipBit(flipped.data, flipped.check, b);
  fault::EccDecoded dec = fault::EccDecode(flipped.data, flipped.check);
  NDP_CHECK_MSG(dec.result == fault::EccResult::kUncorrectable,
                "SECDED failed to detect a double-bit flip");
  channel().rank(rank_index_).NoteEccUncorrectable();
  FailJob(Status::Internal("uncorrectable ECC error on read burst"));
  return false;
}

// ---------------------------------------------------------------------------
// Sequencer

void Device::IssueWhenReady(dram::Command cmd,
                            std::function<void(sim::Tick)> next,
                            std::function<void()> on_stale,
                            bool defer_to_refresh) {
  // In polite (no-scheduler) mode, JAFAR may only use the channel while the
  // host memory controller is idle (§3.3).
  if (!config_.require_ownership &&
      dram_->controller(channel_index_).HasPendingWork()) {
    ++stats_.polite_backoffs;
    ScheduleAfterGuarded(
        BusCycles(8),
        [this, cmd, next = std::move(next), on_stale, defer_to_refresh] {
          IssueWhenReady(cmd, next, on_stale, defer_to_refresh);
        });
    return;
  }
  // Refresh outranks rank ownership: when the host controller is stealing the
  // rank back for an overdue REF (its postponement budget nearly spent), stop
  // competing for the command bus — fighting the precharge drain would only
  // ping-pong ACT/PRE until the retention deadline. Resume (and re-evaluate
  // bank state) once the refresh completes. Callers mid-way through a chain
  // the controller cannot interrupt anyway (v2 holds armed banks REF must
  // wait out) pass defer_to_refresh=false and yield at their own barriers —
  // deferring here would deadlock against the controller's armed-bank wait.
  if (defer_to_refresh &&
      dram_->controller(channel_index_).RefreshClaims(rank_index_)) {
    ++stats_.refresh_backoffs;
    ScheduleAfterGuarded(
        BusCycles(8),
        [this, cmd, next = std::move(next), on_stale, defer_to_refresh] {
          IssueWhenReady(cmd, next, on_stale, defer_to_refresh);
        });
    return;
  }
  // Bank-state validity may have changed between scheduling and issue when a
  // third party shares the rank (host refresh or traffic in polite mode):
  // column commands need their row open, ACT needs the bank closed.
  if (cmd.type == dram::CommandType::kRead ||
      cmd.type == dram::CommandType::kWrite) {
    const dram::Bank& bank = channel().rank(rank_index_).bank(cmd.bank);
    if (!bank.has_open_row() || bank.open_row() != cmd.row) {
      NDP_CHECK_MSG(on_stale != nullptr, "row closed under exclusive access");
      on_stale();
      return;
    }
  } else if (cmd.type == dram::CommandType::kActivate) {
    const dram::Bank& bank = channel().rank(rank_index_).bank(cmd.bank);
    if (bank.has_open_row()) {
      NDP_CHECK_MSG(on_stale != nullptr, "bank opened under exclusive access");
      on_stale();
      return;
    }
  }
  sim::ClockDomain bus = channel().bus_clock();
  sim::Tick t = std::max(channel().EarliestIssue(cmd),
                         bus.NextEdgeAtOrAfter(eq_->Now()));
  if (t == eq_->Now()) {
    auto done = channel().Issue(cmd, t);
    NDP_CHECK_MSG(done.ok(), done.status().ToString().c_str());
    next(done.value());
    return;
  }
  ScheduleAtGuarded(
      t, [this, cmd, next = std::move(next), on_stale, defer_to_refresh] {
        // Conditions may have shifted (other-rank traffic on the shared
        // command bus, host activity in polite mode): re-evaluate.
        IssueWhenReady(cmd, next, on_stale, defer_to_refresh);
      });
}

void Device::OpenRow(const dram::DramLocation& loc, std::function<void()> next) {
  dram::Bank& bank = channel().rank(rank_index_).bank(loc.bank);
  if (bank.has_open_row() && bank.open_row() == loc.row) {
    next();
    return;
  }
  if (bank.has_open_row()) {
    dram::Command pre{dram::CommandType::kPrecharge, rank_index_, loc.bank};
    IssueWhenReady(pre, [this, loc, next = std::move(next)](sim::Tick) {
      OpenRow(loc, next);
    });
    return;
  }
  dram::Command act{dram::CommandType::kActivate, rank_index_, loc.bank,
                    loc.row};
  ++stats_.activates;
  auto retry = [this, loc, next]() { OpenRow(loc, next); };
  IssueWhenReady(act, [next = std::move(next)](sim::Tick) { next(); },
                 /*on_stale=*/retry);
}

void Device::ReadBurst(uint64_t addr, std::function<void(sim::Tick)> next) {
  auto loc = dram_->mapper().Decode(addr).ValueOrDie();
  auto attempt = std::make_shared<std::function<void()>>();
  // The stored function holds only a weak self-reference (a strong capture
  // would be a shared_ptr cycle that leaks the whole continuation chain);
  // each invocation re-locks, and the in-flight DRAM callbacks below hold
  // the strong references that keep retry alive while the burst is pending.
  std::weak_ptr<std::function<void()>> weak = attempt;
  *attempt = [this, loc, addr, next = std::move(next), weak]() {
    auto self = weak.lock();
    OpenRow(loc, [this, loc, addr, next, self]() {
      dram::Command rd{dram::CommandType::kRead, rank_index_, loc.bank,
                       loc.row, loc.burst_col};
      IssueWhenReady(
          rd,
          [this, addr, next](sim::Tick done) {
            ++stats_.bursts_read;
            stats_.data_wait_ps += BusCycles(timing().cl);
            if (!HandleReadFault(addr)) {
              return;  // uncorrectable ECC: FailJob already ran
            }
            next(done);
          },
          /*on_stale=*/[self] { (*self)(); });
    });
  };
  (*attempt)();
}

void Device::WriteBurst(uint64_t addr, std::function<void(sim::Tick)> next) {
  auto loc = dram_->mapper().Decode(addr).ValueOrDie();
  auto attempt = std::make_shared<std::function<void()>>();
  // Weak self-reference for the same cycle-avoidance reason as ReadBurst.
  std::weak_ptr<std::function<void()>> weak = attempt;
  *attempt = [this, loc, next = std::move(next), weak]() {
    auto self = weak.lock();
    OpenRow(loc, [this, loc, next, self]() {
      dram::Command wr{dram::CommandType::kWrite, rank_index_, loc.bank,
                       loc.row, loc.burst_col};
      IssueWhenReady(
          wr,
          [this, next](sim::Tick done) {
            ++stats_.bursts_written;
            next(done);
          },
          /*on_stale=*/[self] { (*self)(); });
    });
  };
  (*attempt)();
}

// ---------------------------------------------------------------------------
// Job admission: the prologue every kind shares, around the per-kind
// Validate and Begin halves.

Status Device::Start(const JobDescriptor& job,
                     std::function<void(const Completion&)> on_done) {
  NDP_RETURN_NOT_OK(CheckIdleAndOwned());
  NDP_RETURN_NOT_OK(
      std::visit([this](const auto& j) { return Validate(j); }, job));
  busy_ = true;
  job_ = job;
  on_done_ = std::move(on_done);
  cursor_rows_ = 0;
  engine_ready_at_ = eq_->Now();
  pending_bits_.ClearAll();
  pending_bit_count_ = 0;
  bitmap_write_cursor_ = 0;
  job_matches_ = 0;
  last_result_checksum_ = kChecksumInit;
  stats_.total_busy_ps -= eq_->Now();  // settled in EndJob
  if (MaybeInjectHang()) return Status::OK();
  ScheduleAfterGuarded(
      config_.invocation_overhead_cycles * config_.clock.period_ps(),
      [this] { std::visit([this](const auto& j) { Begin(j); }, *job_); });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Select / row-store / probe: the scan kinds. v1 runs ScanStep below; v2 runs
// Device::BankScan (bank_scan.cc). Both evaluate rows with EvalScanRows and
// share the bitmap writeback.

Status Device::Validate(const SelectJob& job) const {
  NDP_RETURN_NOT_OK(CheckRange(job.col_base, job.num_rows, config_.elem_bytes));
  NDP_RETURN_NOT_OK(CheckRange(job.out_base, (job.num_rows + 7) / 8, 1));
  if (job.col_base % kBurstBytes != 0 || job.out_base % kBurstBytes != 0) {
    return Status::InvalidArgument("col_base/out_base must be 64 B aligned");
  }
  return Status::OK();
}

Status Device::Validate(const RowStoreJob& job) const {
  if (job.tuple_bytes == 0 || job.tuple_bytes % 8 != 0) {
    return Status::InvalidArgument("tuple_bytes must be a positive multiple of 8");
  }
  if (job.predicates.empty()) {
    return Status::InvalidArgument("row-store job needs at least one predicate");
  }
  for (const RowPredicate& p : job.predicates) {
    if (p.attr_offset_bytes + 8 > job.tuple_bytes) {
      return Status::InvalidArgument("predicate attribute outside tuple");
    }
  }
  NDP_RETURN_NOT_OK(CheckRange(job.tuple_base, job.num_tuples, job.tuple_bytes));
  NDP_RETURN_NOT_OK(CheckRange(job.out_base, (job.num_tuples + 7) / 8, 1));
  if (job.tuple_base % kBurstBytes != 0 || job.out_base % kBurstBytes != 0) {
    return Status::InvalidArgument("tuple_base/out_base must be 64 B aligned");
  }
  return Status::OK();
}

Status Device::Validate(const ProbeJob& job) const {
  if (config_.elem_bytes != 8) {
    return Status::Unimplemented("probe engine hashes 64-bit join keys");
  }
  if (job.hash_count != config_.probe_hashes) {
    return Status::InvalidArgument(
        "hash_count does not match the derived probe datapath (" +
        std::to_string(config_.probe_hashes) + " lanes)");
  }
  if (job.filter_words == 0 ||
      (job.filter_words & (job.filter_words - 1)) != 0) {
    return Status::InvalidArgument(
        "filter_words must be a power of two (bit index is a mask)");
  }
  if (config_.probe_words_per_cycle <= 0.0) {
    return Status::Unimplemented("datapath has no scheduled probe kernel");
  }
  NDP_RETURN_NOT_OK(CheckRange(job.col_base, job.num_rows, 8));
  NDP_RETURN_NOT_OK(CheckRange(job.out_base, (job.num_rows + 7) / 8, 1));
  NDP_RETURN_NOT_OK(CheckRange(job.filter_base, job.filter_words, 8));
  if (job.col_base % kBurstBytes != 0 || job.out_base % kBurstBytes != 0 ||
      job.filter_base % kBurstBytes != 0) {
    return Status::InvalidArgument(
        "col_base/out_base/filter_base must be 64 B aligned");
  }
  return Status::OK();
}

void Device::Begin(const SelectJob&) { BeginScan(); }

void Device::Begin(const RowStoreJob&) { BeginScan(); }

void Device::Begin(const ProbeJob& job) {
  // Filter preload, shared by both generations: announce the load window to
  // the shadow checker, stream the Bloom image out of DRAM with ordinary
  // reads (the timing), latch it into the probe SRAM (the function), close
  // the window, and only then start the scan sequencer.
  channel().NoteProbeFilterLoadStart(rank_index_, eq_->Now());
  probe_sram_.assign(job.filter_words, 0);
  uint64_t bursts = (job.filter_words * 8 + kBurstBytes - 1) / kBurstBytes;
  ReadBurstChain(job.filter_base, bursts, [this](sim::Tick) {
    const ProbeJob& j = active_job<ProbeJob>();
    for (uint64_t w = 0; w < j.filter_words; ++w) {
      probe_sram_[w] = dram_->backing_store().Read64(j.filter_base + w * 8);
    }
    channel().NoteProbeFilterLoadDone(rank_index_);
    BeginScan();
  });
}

void Device::BeginScan() {
  if (bank_scan_) {
    bank_scan_->Begin();
  } else {
    ScanStep();
  }
}

bool Device::EvalProbeKey(int64_t key) const {
  const ProbeJob& job = active_job<ProbeJob>();
  for (uint32_t h = 0; h < job.hash_count; ++h) {
    uint64_t bit =
        BloomBitIndex(static_cast<uint64_t>(key), h, job.filter_words);
    if (((probe_sram_[bit / 64] >> (bit % 64)) & 1) == 0) return false;
  }
  return true;
}

uint64_t Device::ScanBase() const {
  if (active_is<RowStoreJob>()) return active_job<RowStoreJob>().tuple_base;
  if (active_is<ProbeJob>()) return active_job<ProbeJob>().col_base;
  return active_job<SelectJob>().col_base;
}

uint32_t Device::ScanStride() const {
  return active_is<RowStoreJob>() ? active_job<RowStoreJob>().tuple_bytes
                                  : config_.elem_bytes;
}

bool Device::EvalScanRow(uint64_t r) const {
  const uint64_t addr = ScanBase() + r * ScanStride();
  if (active_is<RowStoreJob>()) {
    for (const RowPredicate& p : active_job<RowStoreJob>().predicates) {
      int64_t v = static_cast<int64_t>(
          dram_->backing_store().Read64(addr + p.attr_offset_bytes));
      if (!EvalCompare(p.op, v, p.range_low, p.range_high)) return false;
    }
    return true;
  }
  if (active_is<ProbeJob>()) return EvalProbeKey(ReadValue(addr));
  const SelectJob& sel = active_job<SelectJob>();
  return EvalCompare(sel.op, ReadValue(addr), sel.range_low, sel.range_high);
}

void Device::EvalScanRows(uint64_t last) {
  uint64_t r = cursor_rows_;
  uint64_t matches = 0;
  for (; r < last && pending_bit_count_ < config_.output_buffer_bits; ++r) {
    bool pass = EvalScanRow(r);
    pending_bits_.SetTo(pending_bit_count_++, pass);
    matches += pass;
  }
  CountMatches(matches);
  stats_.rows_processed += r - cursor_rows_;
  cursor_rows_ = r;
}

void Device::ScanStep() {
  const uint64_t total_rows = JobRows(*job_);
  if (cursor_rows_ >= total_rows) {
    // Final (possibly partial) bitmap flush, then done.
    FlushBitmap([this] { FinishJob(); });
    return;
  }
  const uint64_t base = ScanBase();
  const uint32_t row_bytes = ScanStride();
  // The burst containing the next unprocessed row, and the rows whose data
  // completes within it.
  uint64_t burst_addr = base + cursor_rows_ * row_bytes;
  burst_addr -= burst_addr % kBurstBytes;
  const uint64_t last = std::min<uint64_t>(
      total_rows, (burst_addr + kBurstBytes - base + row_bytes - 1) / row_bytes);
  ReadBurst(burst_addr, [this, last](sim::Tick data_done) {
    if (DrawStallAtBurst()) {
      // Sequencer stall mid-scan: the partial bitmap may already be in DRAM,
      // but this burst's rows are never accumulated. The device stays busy
      // with no pending events until the driver watchdog aborts it.
      return;
    }
    // Scans start 64 B aligned and the buffer holds a multiple of 512 rows,
    // so every buffer boundary falls on a burst boundary: the buffer never
    // fills mid-burst here.
    EvalScanRows(last);
    // Datapath timing: one word per II from the IO buffer. Probe jobs run
    // the hash-lane kernel's (slower) schedule instead of the comparator's.
    const uint32_t words = kBurstBytes / 8;
    const bool probe = active_is<ProbeJob>();
    ChargeEngine(data_done,
                 probe ? config_.ProbeBurstProcessingPs(words)
                       : config_.BurstProcessingPs(words),
                 (probe ? config_.probe_energy_per_word_fj
                        : config_.energy_per_word_fj) *
                     words);
    if (pending_bit_count_ >= config_.output_buffer_bits) {
      FlushBitmap([this] { ContinueWhenEngineReady(&Device::ScanStep); });
    } else {
      ContinueWhenEngineReady(&Device::ScanStep);
    }
  });
}

void Device::ChargeEngine(sim::Tick data_done, sim::Tick proc,
                          double energy_fj) {
  engine_ready_at_ = std::max(data_done, engine_ready_at_) + proc;
  stats_.engine_busy_ps += proc;
  stats_.energy_fj += energy_fj;
}

void Device::ContinueWhenEngineReady(void (Device::*step)()) {
  // Throttle command issue so a slow datapath (words_per_cycle < 1) does not
  // overrun its input FIFO: the next burst's data (which completes CL+tBURST
  // after its command) should not arrive before the engine can take it.
  sim::Tick pipe_ps = BusCycles(timing().cl + timing().tburst);
  sim::Tick earliest =
      engine_ready_at_ > pipe_ps ? engine_ready_at_ - pipe_ps : 0;
  if (earliest > eq_->Now()) {
    ScheduleAtGuarded(earliest, [this, step] { (this->*step)(); });
  } else {
    (this->*step)();
  }
}

void Device::FlushBitmap(std::function<void()> next) {
  if (pending_bit_count_ == 0) {
    next();
    return;
  }
  uint64_t out_base;
  bool masked = false;
  uint64_t mask = ~uint64_t{0};
  if (active_is<RowStoreJob>()) {
    out_base = active_job<RowStoreJob>().out_base;
  } else if (active_is<ProbeJob>()) {
    // Probe bitmaps are always whole-word owned by this device (the runtime
    // chunks on page boundaries), so no masked merge is needed.
    out_base = active_job<ProbeJob>().out_base;
  } else {
    const SelectJob& sel = active_job<SelectJob>();
    out_base = sel.out_base;
    masked = sel.masked_writeback;
    mask = masked ? sel.writeback_mask : ~uint64_t{0};
  }

  uint64_t bytes = (pending_bit_count_ + 7) / 8;
  uint64_t addr = out_base + bitmap_write_cursor_;
  // Functional write of the buffered bits (word-at-a-time to honour masks).
  for (uint64_t w = 0; w * 8 < bytes; ++w) {
    uint64_t value = pending_bits_.Word(w);
    if (masked || (bytes - w * 8) < 8 ||
        pending_bit_count_ < (w + 1) * 64) {
      // Partial word or masked layout: read-modify-write.
      uint64_t keep_mask = mask;
      if (pending_bit_count_ < (w + 1) * 64) {
        uint64_t valid = pending_bit_count_ - w * 64;
        keep_mask &= (valid >= 64) ? ~uint64_t{0}
                                   : ((uint64_t{1} << valid) - 1);
      }
      uint64_t old = dram_->backing_store().Read64(addr + w * 8);
      value = (old & ~keep_mask) | (value & keep_mask);
    }
    dram_->backing_store().Write64(addr + w * 8, value);
    // Fold the final written word into the writeback checksum: the driver
    // re-reads these exact words from DRAM, so any later corruption shows.
    last_result_checksum_ = ChecksumMix(last_result_checksum_, value);
  }

  if (injector_ != nullptr && injector_->DrawCorruptAtFlush()) {
    // Flip one already-written bit after the checksum was taken — exactly
    // what a flaky writeback path would do. The driver's verification pass
    // catches the mismatch and retries the page.
    uint64_t bit = injector_->DrawCorruptBit(pending_bit_count_);
    uint64_t waddr = addr + (bit / 64) * 8;
    uint64_t word = dram_->backing_store().Read64(waddr);
    dram_->backing_store().Write64(waddr, word ^ (uint64_t{1} << (bit % 64)));
  }

  // Timing: one WR burst per 64 B of bitmap.
  uint64_t bursts = (bytes + kBurstBytes - 1) / kBurstBytes;
  bitmap_write_cursor_ += bytes;
  pending_bits_.ClearAll();
  pending_bit_count_ = 0;
  WriteBurstChain(addr - addr % kBurstBytes, bursts, std::move(next));
}

void Device::WriteBurstChain(uint64_t addr, uint64_t bursts,
                             std::function<void()> next) {
  if (bursts == 0) {
    next();
    return;
  }
  WriteBurst(addr, [this, addr, bursts, next = std::move(next)](sim::Tick) {
    WriteBurstChain(addr + kBurstBytes, bursts - 1, next);
  });
}

void Device::FinishJob() {
  EndJob();
  ++stats_.jobs_completed;
  auto cb = std::move(on_done_);
  on_done_ = nullptr;
  if (injector_ != nullptr && injector_->DrawDropCompletion()) {
    // The job finished and its results are in DRAM, but the completion
    // signal is lost. The driver's watchdog times out and retries.
    cb = nullptr;
  }
  if (cb) cb(Completion{Status::OK(), job_matches_, eq_->Now(), 1});
}

// ---------------------------------------------------------------------------
// Sort (§4 "Sorting": fixed-function bitonic block sorter)

Status Device::Validate(const SortJob& job) const {
  if (config_.elem_bytes != 8) {
    return Status::Unimplemented("sort engine operates on 64-bit words");
  }
  NDP_RETURN_NOT_OK(CheckRange(job.col_base, job.num_rows, 8));
  NDP_RETURN_NOT_OK(CheckRange(job.out_base, job.num_rows, 8));
  if (job.col_base % kBurstBytes != 0 || job.out_base % kBurstBytes != 0) {
    return Status::InvalidArgument("sort addresses must be 64 B aligned");
  }
  return Status::OK();
}

void Device::Begin(const SortJob&) { SortStep(); }

void Device::ReadBurstChain(uint64_t addr, uint64_t bursts,
                            std::function<void(sim::Tick)> on_last_data) {
  NDP_CHECK(bursts > 0);
  ReadBurst(addr, [this, addr, bursts,
                   on_last_data = std::move(on_last_data)](sim::Tick done) {
    if (bursts == 1) {
      on_last_data(done);
    } else {
      ReadBurstChain(addr + kBurstBytes, bursts - 1, on_last_data);
    }
  });
}

void Device::SortStep() {
  const SortJob& job = active_job<SortJob>();
  if (cursor_rows_ >= job.num_rows) {
    FinishJob();
    return;
  }
  uint64_t block_rows = std::min<uint64_t>(config_.sort_block_elems,
                                           job.num_rows - cursor_rows_);
  uint64_t in_addr = job.col_base + cursor_rows_ * 8;
  uint64_t out_addr = job.out_base + cursor_rows_ * 8;
  uint64_t bursts = (block_rows * 8 + kBurstBytes - 1) / kBurstBytes;
  // 1. Stream the block into device SRAM.
  ReadBurstChain(in_addr, bursts, [this, block_rows, in_addr, out_addr,
                                   bursts](sim::Tick last_data) {
    // 2. Run the bitonic network (functional model: an exact sort of the
    //    block; timing: the network's stage count on the comparator array).
    std::vector<int64_t> block(block_rows);
    dram_->backing_store().Read(in_addr, block.data(), block_rows * 8);
    if (active_job<SortJob>().descending) {
      std::sort(block.begin(), block.end(), std::greater<int64_t>());
    } else {
      std::sort(block.begin(), block.end());
    }
    dram_->backing_store().Write(out_addr, block.data(), block_rows * 8);

    uint64_t sort_cycles =
        config_.SortBlockCycles(static_cast<uint32_t>(block_rows));
    ChargeEngine(last_data, sort_cycles * config_.clock.period_ps(),
                 config_.energy_per_word_fj * static_cast<double>(block_rows));
    stats_.rows_processed += block_rows;

    cursor_rows_ += block_rows;
    // 3. Write the sorted run back once the network finishes, then continue
    //    with the next block.
    sim::Tick when = engine_ready_at_;
    uint64_t out_bursts = bursts;
    uint64_t out_base_addr = out_addr;
    ScheduleAtGuarded(when, [this, out_base_addr, out_bursts] {
      WriteBurstChain(out_base_addr, out_bursts, [this] { SortStep(); });
    });
  });
}

// ---------------------------------------------------------------------------
// Aggregate

Status Device::Validate(const AggregateJob& job) const {
  if (config_.elem_bytes != 8) {
    return Status::Unimplemented("aggregate engine operates on 64-bit words");
  }
  NDP_RETURN_NOT_OK(CheckRange(job.col_base, job.num_rows, config_.elem_bytes));
  NDP_RETURN_NOT_OK(CheckRange(job.out_addr, 1, 8));
  if (job.bitmap_base != 0) {
    NDP_RETURN_NOT_OK(CheckRange(job.bitmap_base, (job.num_rows + 7) / 8, 1));
  }
  if (job.col_base % kBurstBytes != 0) {
    return Status::InvalidArgument("col_base must be 64 B aligned");
  }
  return Status::OK();
}

void Device::Begin(const AggregateJob& job) {
  agg_acc_ = AggIdentity(job.kind);
  AggregateStep();
}

void Device::AggregateStep() {
  const AggregateJob& job = active_job<AggregateJob>();
  if (cursor_rows_ >= job.num_rows) {
    dram_->backing_store().Write64(job.out_addr,
                                   static_cast<uint64_t>(agg_acc_));
    WriteBurstChain(job.out_addr - job.out_addr % kBurstBytes, 1,
                    [this] { FinishJob(); });
    return;
  }
  // One bitmap burst covers 512 rows; fetch it lazily when filtering.
  bool need_bitmap =
      job.bitmap_base != 0 && cursor_rows_ % kBitsPerBurst == 0;
  auto process_col_burst = [this]() {
    const AggregateJob& j = active_job<AggregateJob>();
    uint64_t burst_addr = j.col_base + cursor_rows_ * config_.elem_bytes;
    burst_addr -= burst_addr % kBurstBytes;
    ReadBurst(burst_addr, [this](sim::Tick data_done) {
      const AggregateJob& jb = active_job<AggregateJob>();
      uint64_t rows_here = std::min<uint64_t>(
          kBurstBytes / config_.elem_bytes, jb.num_rows - cursor_rows_);
      for (uint64_t r = cursor_rows_; r < cursor_rows_ + rows_here; ++r) {
        if (jb.bitmap_base != 0) {
          uint64_t word = dram_->backing_store().Read64(
              jb.bitmap_base + (r / 64) * 8);
          if (((word >> (r % 64)) & 1) == 0) continue;
        }
        int64_t v = static_cast<int64_t>(
            dram_->backing_store().Read64(jb.col_base + r * config_.elem_bytes));
        agg_acc_ =
            AggMerge(jb.kind, agg_acc_, jb.kind == AggKind::kCount ? 1 : v);
        CountMatches(1);
      }
      stats_.rows_processed += rows_here;
      cursor_rows_ += rows_here;
      uint32_t words = kBurstBytes / 8;
      ChargeEngine(data_done, config_.BurstProcessingPs(words),
                   config_.energy_per_word_fj * words);
      ContinueWhenEngineReady(&Device::AggregateStep);
    });
  };
  if (need_bitmap) {
    uint64_t bm_addr = job.bitmap_base + (cursor_rows_ / 8);
    bm_addr -= bm_addr % kBurstBytes;
    ReadBurst(bm_addr, [process_col_burst](sim::Tick) { process_col_burst(); });
  } else {
    process_col_burst();
  }
}

// ---------------------------------------------------------------------------
// Grouped aggregation (§4: bucket-limited, hierarchical passes)

Status Device::Validate(const GroupByJob& job) const {
  if (config_.elem_bytes != 8) {
    return Status::Unimplemented("group-by engine operates on 64-bit words");
  }
  NDP_RETURN_NOT_OK(CheckRange(job.key_base, job.num_rows, 8));
  NDP_RETURN_NOT_OK(CheckRange(job.val_base, job.num_rows, 8));
  NDP_RETURN_NOT_OK(CheckRange(job.out_base, config_.groupby_buckets, 16));
  if (job.bitmap_base != 0) {
    NDP_RETURN_NOT_OK(CheckRange(job.bitmap_base, (job.num_rows + 7) / 8, 1));
    if (job.bitmap_base % kBurstBytes != 0) {
      return Status::InvalidArgument("bitmap_base must be 64 B aligned");
    }
  }
  if (job.key_base % kBurstBytes != 0 || job.val_base % kBurstBytes != 0 ||
      job.out_base % kBurstBytes != 0) {
    return Status::InvalidArgument("group-by addresses must be 64 B aligned");
  }
  return Status::OK();
}

void Device::Begin(const GroupByJob& job) {
  groupby_agg_.assign(config_.groupby_buckets, AggIdentity(job.kind));
  groupby_count_.assign(config_.groupby_buckets, 0);
  GroupByStep();
}

void Device::GroupByStep() {
  const GroupByJob& job = active_job<GroupByJob>();
  if (cursor_rows_ >= job.num_rows) {
    // Dump the bucket SRAM back to DRAM: buckets * 16 bytes.
    for (uint32_t b = 0; b < config_.groupby_buckets; ++b) {
      dram_->backing_store().Write64(job.out_base + b * 16,
                                     static_cast<uint64_t>(groupby_agg_[b]));
      dram_->backing_store().Write64(
          job.out_base + b * 16 + 8,
          static_cast<uint64_t>(groupby_count_[b]));
    }
    uint64_t bursts =
        (config_.groupby_buckets * 16 + kBurstBytes - 1) / kBurstBytes;
    WriteBurstChain(job.out_base, bursts, [this] { FinishJob(); });
    return;
  }
  // Stream the two columns in DRAM-row-sized chunks (8 KB = 1024 values):
  // alternating single bursts between the columns would ping-pong two rows
  // of one bank (the columns often alias to the same bank), paying a
  // precharge/activate pair per burst. Whole-row chunks amortize the row
  // switch across 128 bursts — the device's SRAM double-buffers one row of
  // keys against one row of values.
  uint64_t chunk_rows = std::min<uint64_t>(1024, job.num_rows - cursor_rows_);
  uint64_t bursts = (chunk_rows * 8 + kBurstBytes - 1) / kBurstBytes;
  uint64_t key_addr = job.key_base + cursor_rows_ * 8;
  uint64_t val_addr = job.val_base + cursor_rows_ * 8;
  auto read_columns = [this, key_addr, val_addr, bursts, chunk_rows]() {
    ReadBurstChain(key_addr, bursts, [this, val_addr, bursts,
                                      chunk_rows](sim::Tick) {
      ReadBurstChain(val_addr, bursts, [this,
                                        chunk_rows](sim::Tick data_done) {
        ProcessGroupByChunk(chunk_rows, data_done);
      });
    });
  };
  if (job.bitmap_base != 0) {
    // One bitmap burst covers 512 rows; fetch the chunk's slice first.
    uint64_t bm_addr = job.bitmap_base + cursor_rows_ / 8;
    bm_addr -= bm_addr % kBurstBytes;
    uint64_t bm_bursts = (chunk_rows + kBitsPerBurst - 1) / kBitsPerBurst;
    ReadBurstChain(bm_addr, bm_bursts,
                   [read_columns](sim::Tick) { read_columns(); });
  } else {
    read_columns();
  }
}

void Device::ProcessGroupByChunk(uint64_t chunk_rows, sim::Tick data_done) {
  const GroupByJob& j = active_job<GroupByJob>();
  uint64_t rows_here = chunk_rows;
  for (uint64_t r = cursor_rows_; r < cursor_rows_ + rows_here; ++r) {
    if (j.bitmap_base != 0) {
      uint64_t word =
          dram_->backing_store().Read64(j.bitmap_base + (r / 64) * 8);
      if (((word >> (r % 64)) & 1) == 0) continue;
    }
    int64_t key =
        static_cast<int64_t>(dram_->backing_store().Read64(j.key_base + r * 8));
    int64_t bucket = key - j.key_offset;
    if (bucket < 0 || bucket >= static_cast<int64_t>(config_.groupby_buckets)) {
      continue;  // outside this hierarchical pass's window
    }
    int64_t v = static_cast<int64_t>(
        dram_->backing_store().Read64(j.val_base + r * 8));
    groupby_agg_[bucket] = AggMerge(j.kind, groupby_agg_[bucket],
                                    j.kind == AggKind::kCount ? 1 : v);
    ++groupby_count_[bucket];
    CountMatches(1);
  }
  stats_.rows_processed += rows_here;
  cursor_rows_ += rows_here;
  // Engine: one key/value pair per cycle (hash + accumulate); chunk
  // processing overlaps the next chunk's reads via the usual throttle.
  uint32_t words = static_cast<uint32_t>(2 * rows_here);
  ChargeEngine(data_done, config_.BurstProcessingPs(words),
               config_.energy_per_word_fj * words);
  ContinueWhenEngineReady(&Device::GroupByStep);
}

// ---------------------------------------------------------------------------
// Project

Status Device::Validate(const ProjectJob& job) const {
  if (config_.elem_bytes != 8) {
    return Status::Unimplemented("project engine operates on 64-bit words");
  }
  NDP_RETURN_NOT_OK(CheckRange(job.col_base, job.num_rows, config_.elem_bytes));
  NDP_RETURN_NOT_OK(CheckRange(job.bitmap_base, (job.num_rows + 7) / 8, 1));
  if (job.col_base % kBurstBytes != 0 || job.out_base % kBurstBytes != 0 ||
      job.bitmap_base % kBurstBytes != 0) {
    return Status::InvalidArgument("project addresses must be 64 B aligned");
  }
  return Status::OK();
}

void Device::Begin(const ProjectJob&) {
  project_out_buffer_.clear();
  project_emitted_ = 0;
  ProjectStep();
}

void Device::ProjectStep() {
  const ProjectJob& job = active_job<ProjectJob>();
  if (cursor_rows_ >= job.num_rows) {
    FlushProjectOutput([this] { FinishJob(); }, /*final_flush=*/true);
    return;
  }
  bool need_bitmap = cursor_rows_ % kBitsPerBurst == 0;
  auto process = [this]() {
    const ProjectJob& j = active_job<ProjectJob>();
    uint64_t burst_addr = j.col_base + cursor_rows_ * config_.elem_bytes;
    burst_addr -= burst_addr % kBurstBytes;
    ReadBurst(burst_addr, [this](sim::Tick data_done) {
      const ProjectJob& jb = active_job<ProjectJob>();
      uint64_t rows_here = std::min<uint64_t>(
          kBurstBytes / config_.elem_bytes, jb.num_rows - cursor_rows_);
      for (uint64_t r = cursor_rows_; r < cursor_rows_ + rows_here; ++r) {
        uint64_t word =
            dram_->backing_store().Read64(jb.bitmap_base + (r / 64) * 8);
        if ((word >> (r % 64)) & 1) {
          project_out_buffer_.push_back(static_cast<int64_t>(
              dram_->backing_store().Read64(jb.col_base +
                                            r * config_.elem_bytes)));
          CountMatches(1);
        }
      }
      stats_.rows_processed += rows_here;
      cursor_rows_ += rows_here;
      uint32_t words = kBurstBytes / 8;
      ChargeEngine(data_done, config_.BurstProcessingPs(words),
                   config_.energy_per_word_fj * words);
      // Buffer qualifying values up to the device's output buffer capacity
      // before dumping them back (§4: "when the internal buffers are full,
      // JAFAR will dump the contents back to a pre-allocated location") —
      // flushing per burst would pay the write-to-read turnaround each time.
      if (project_out_buffer_.size() >= config_.output_buffer_bits / 8) {
        FlushProjectOutput([this] { ProjectStep(); }, /*final_flush=*/false);
      } else {
        ProjectStep();
      }
    });
  };
  if (need_bitmap) {
    uint64_t bm_addr = job.bitmap_base + (cursor_rows_ / 8);
    bm_addr -= bm_addr % kBurstBytes;
    ReadBurst(bm_addr, [process](sim::Tick) { process(); });
  } else {
    process();
  }
}

void Device::FlushProjectOutput(std::function<void()> next, bool final_flush) {
  const uint64_t words_per_burst = kBurstBytes / 8;
  uint64_t available = project_out_buffer_.size();
  uint64_t to_write = final_flush ? available
                                  : (available / words_per_burst) * words_per_burst;
  if (to_write == 0) {
    next();
    return;
  }
  uint64_t addr = active_job<ProjectJob>().out_base + project_emitted_ * 8;
  for (uint64_t i = 0; i < to_write; ++i) {
    dram_->backing_store().Write64(
        addr + i * 8, static_cast<uint64_t>(project_out_buffer_[i]));
  }
  project_out_buffer_.erase(project_out_buffer_.begin(),
                            project_out_buffer_.begin() +
                                static_cast<long>(to_write));
  project_emitted_ += to_write;
  uint64_t first_burst = addr - addr % kBurstBytes;
  uint64_t last_byte = addr + to_write * 8 - 1;
  uint64_t bursts = (last_byte - first_burst) / kBurstBytes + 1;
  WriteBurstChain(first_burst, bursts, std::move(next));
}

}  // namespace ndp::jafar
