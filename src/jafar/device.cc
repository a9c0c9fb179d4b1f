#include "jafar/device.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "fault/ecc.h"
#include "fault/injector.h"
#include "jafar/checksum.h"
#include "jafar/bank_scan.h"
#include "util/logging.h"
#include "util/macros.h"

namespace ndp::jafar {

namespace {
constexpr uint32_t kBurstBytes = 64;
constexpr uint32_t kWordsPerBurst = kBurstBytes / 8;
constexpr uint32_t kBitsPerBurst = kBurstBytes * 8;  // 512 bitmap bits / burst
constexpr uint64_t BurstsFor(uint64_t n) { return (n + kBurstBytes - 1) / kBurstBytes; }
static_assert(kSortBlockElems % kWordsPerBurst == 0,
              "sort blocks must be whole bursts");
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

Status Device::CheckRegions(std::initializer_list<Region> regions) const {
  const uint64_t capacity = dram_->mapper().organization().TotalBytes();
  for (const Region& r : regions) {
    uint64_t len;
    if (__builtin_mul_overflow(r.count, r.elem_bytes, &len)) {
      return Status::InvalidArgument("job byte length overflows 64 bits");
    }
    if (len == 0) return Status::InvalidArgument("empty range");
    if (r.base < capacity && len > capacity - r.base) {
      return Status::InvalidArgument("job range runs past installed capacity");
    }
    for (uint64_t addr : {r.base, r.base + len - 1}) {
      auto loc = dram_->mapper().Decode(addr);
      NDP_RETURN_NOT_OK(loc.status());
      if (loc.value().channel != channel_index_ ||
          loc.value().rank != rank_index_) {
        return Status::InvalidArgument(
            "job data must be resident on this device's DIMM (channel " +
            std::to_string(channel_index_) + ", rank " +
            std::to_string(rank_index_) + ")");
      }
    }
  }
  for (const Region& r : regions) {
    if (r.aligned && r.base % kBurstBytes != 0) {
      return Status::InvalidArgument(std::string(r.name) +
                                     " must be 64 B aligned");
    }
  }
  return Status::OK();
}

Status Device::CheckStreams(const StreamSpec& s) const {
  const uint64_t bitmap_bytes = (s.rows + 7) / 8;
  for (uint32_t c = 0; c < s.num_cols; ++c) {
    NDP_RETURN_NOT_OK(CheckRegions({{"column", s.cols[c], s.rows, s.stride}}));
  }
  if (s.bitmap) {
    NDP_RETURN_NOT_OK(CheckRegions({{"bitmap_base", *s.bitmap, bitmap_bytes, 1}}));
  }
  if (!s.scan) return Status::OK();
  return CheckRegions({{"out_base", s.out, bitmap_bytes, 1}});
}

// ---------------------------------------------------------------------------
// Fault handling & recovery

void Device::ScheduleAtGuarded(sim::Tick t, std::function<void()> fn) {
  uint64_t epoch = job_epoch_;
  eq_->ScheduleAt(t, [this, epoch, fn = std::move(fn)] {
    if (epoch == job_epoch_) fn();
  });
}

void Device::EndJob() {
  if (bank_scan_) bank_scan_->Teardown();
  if (std::holds_alternative<ProbeJob>(*job_)) {
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
  on_done_ = nullptr;  // the aborting driver already gave up on this callback
  FailJob(Status::Internal("aborted"));
}

void Device::FailJob(Status st) {
  NDP_CHECK(busy_);
  EndJob();
  ++stats_.jobs_failed;
  if (auto cb = std::exchange(on_done_, nullptr)) {
    cb(Completion{std::move(st), 0, eq_->Now(), 0});
  }
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
  auto retry_at = [&](sim::Tick t) {
    ScheduleAtGuarded(t, [this, cmd, next = std::move(next),
                          on_stale = std::move(on_stale), defer_to_refresh] {
      IssueWhenReady(cmd, next, on_stale, defer_to_refresh);
    });
  };
  // In polite (no-scheduler) mode, JAFAR may only use the channel while the
  // host memory controller is idle (§3.3).
  // Refresh outranks rank ownership: when the host controller is stealing the
  // rank back for an overdue REF (its postponement budget nearly spent), stop
  // competing for the command bus — fighting the precharge drain would only
  // ping-pong ACT/PRE until the retention deadline. Resume (and re-evaluate
  // bank state) once the refresh completes. Callers mid-way through a chain
  // the controller cannot interrupt anyway (v2 holds armed banks REF must
  // wait out) pass defer_to_refresh=false and yield at their own barriers —
  // deferring here would deadlock against the controller's armed-bank wait.
  const dram::MemoryController& mc = dram_->controller(channel_index_);
  const bool polite = !config_.require_ownership && mc.HasPendingWork();
  if (polite || (defer_to_refresh && mc.RefreshClaims(rank_index_))) {
    ++(polite ? stats_.polite_backoffs : stats_.refresh_backoffs);
    retry_at(eq_->Now() + BusCycles(8));
    return;
  }
  // Bank-state validity may have changed between scheduling and issue when a
  // third party shares the rank (host refresh or traffic in polite mode):
  // column commands need their row open, ACT needs the bank closed.
  const dram::Bank& bank = channel().rank(rank_index_).bank(cmd.bank);
  const bool column = cmd.type == dram::CommandType::kRead ||
                      cmd.type == dram::CommandType::kWrite;
  if ((column && (!bank.has_open_row() || bank.open_row() != cmd.row)) ||
      (cmd.type == dram::CommandType::kActivate && bank.has_open_row())) {
    NDP_CHECK_MSG(on_stale != nullptr, "bank state changed under exclusive access");
    on_stale();
    return;
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
  // Conditions may have shifted by then (other-rank traffic on the shared
  // command bus, host activity in polite mode): re-evaluate.
  retry_at(t);
}

void Device::BurstChain(dram::CommandType type, BurstRun run,
                        std::function<void(sim::Tick)> next) {
  if (run.bursts == 0) return next(eq_->Now());
  const dram::DramLocation loc = dram_->mapper().Decode(run.addr).ValueOrDie();
  const dram::Bank& bank = channel().rank(rank_index_).bank(loc.bank);
  // Re-entered after opening the row, and whenever a third party changed
  // the bank's state between scheduling and issue.
  auto again = [this, type, run, next] { BurstChain(type, run, next); };
  if (bank.has_open_row() && bank.open_row() != loc.row) {
    dram::Command pre{dram::CommandType::kPrecharge, rank_index_, loc.bank};
    IssueWhenReady(pre, [again](sim::Tick) { again(); });
    return;
  }
  if (!bank.has_open_row()) {
    dram::Command act{dram::CommandType::kActivate, rank_index_, loc.bank,
                      loc.row};
    ++stats_.activates;
    IssueWhenReady(act, [again](sim::Tick) { again(); }, again);
    return;
  }
  dram::Command cmd{type, rank_index_, loc.bank, loc.row, loc.burst_col};
  IssueWhenReady(
      cmd,
      [this, type, run, next = std::move(next)](sim::Tick done) {
        if (type == dram::CommandType::kWrite) {
          ++stats_.bursts_written;
        } else {
          ++stats_.bursts_read;
          stats_.data_wait_ps += BusCycles(timing().cl);
          if (!HandleReadFault(run.addr)) return;  // ECC UE: FailJob ran
        }
        if (run.bursts == 1) return next(done);
        BurstChain(type, {run.addr + kBurstBytes, run.bursts - 1}, next);
      },
      again);
}

// ---------------------------------------------------------------------------
// Job admission: the prologue every kind shares, around the per-kind
// Validate and Begin halves.

Status Device::Start(const JobDescriptor& job,
                     std::function<void(const Completion&)> on_done) {
  if (busy_) return Status::DeviceBusy("a job is already executing");
  if (bank_scan_ && !config_.require_ownership) {
    return Status::InvalidArgument(
        "a bank-level (v2) device needs rank ownership: polite mode would "
        "back off mid-wave with banks armed");
  }
  if (config_.require_ownership &&
      channel().rank(rank_index_).owner() != dram::RankOwner::kAccelerator) {
    return Status::FailedPrecondition(
        "rank ownership not held: set MR3/MPR before invoking JAFAR "
        "(§2.2, Coordinating DRAM Access)");
  }
  if (config_.elem_bytes != 8 && !std::holds_alternative<SelectJob>(job) &&
      !std::holds_alternative<RowStoreJob>(job)) {
    return Status::Unimplemented(
        "only the select and row-store datapaths take packed 32-bit halves");
  }
  StreamSpec spec;
  NDP_RETURN_NOT_OK(std::visit([&](const auto& j) { return Validate(j, &spec); }, job));
  NDP_RETURN_NOT_OK(CheckStreams(spec));
  busy_ = true;
  job_ = job;
  stream_ = spec;
  on_done_ = std::move(on_done);
  cursor_rows_ = 0;
  bitmap_rows_ = 0;
  engine_ready_at_ = eq_->Now();
  pending_bit_count_ = 0;
  bitmap_write_cursor_ = 0;
  project_out_buffer_.clear();
  project_emitted_ = 0;
  job_matches_ = 0;
  last_result_checksum_ = kChecksumInit;
  stats_.total_busy_ps -= eq_->Now();  // settled in EndJob
  if (injector_ != nullptr && injector_->DrawHangAtDispatch()) {
    // The command sequencer wedges before its first step: the device stays
    // busy with no pending events. Only the driver watchdog (AbortJob) can
    // recover it.
    return Status::OK();
  }
  ScheduleAtGuarded(
      eq_->Now() + kInvocationOverheadCycles * config_.clock.period_ps(),
      [this] { std::visit([this](const auto& j) { Begin(j); }, *job_); });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The stream loop. Every kind runs the same sequence per step: fetch the
// pre-filter bursts not fetched yet, then each column's bursts; fold the
// rows; charge the engine; flush a full output buffer; continue. Past the
// last row comes the final write-back, then FinishJob. v2's BankScan times
// the scan kinds its own way but folds and flushes through FoldRows/Flush.

void Device::Step() {
  const StreamSpec& s = stream_;
  if (bank_scan_ && s.scan) return bank_scan_->Begin();  // v2 runs the whole scan
  if (cursor_rows_ >= s.rows) return EndStream();
  // The step's bursts start at the one holding the cursor row and cover the
  // rows that start within them.
  step_offset_ = cursor_rows_ * s.stride;
  step_offset_ -= step_offset_ % kBurstBytes;
  const uint64_t end = step_offset_ + s.step_bursts * kBurstBytes;
  step_last_ = std::min(s.rows, (end + s.stride - 1) / s.stride);
  step_bursts_ = std::min(s.step_bursts, BurstsFor(step_last_ * s.stride - step_offset_));
  BurstRun bitmap;
  if (s.bitmap && step_last_ > bitmap_rows_) {
    bitmap = {*s.bitmap + bitmap_rows_ / 8,
              (step_last_ - bitmap_rows_ + kBitsPerBurst - 1) / kBitsPerBurst};
    bitmap_rows_ += bitmap.bursts * kBitsPerBurst;
  }
  BurstChain(dram::CommandType::kRead, bitmap, [this](sim::Tick) { FetchColumn(0); });
}

void Device::FetchColumn(uint32_t c) {
  BurstChain(dram::CommandType::kRead, {stream_.cols[c] + step_offset_, step_bursts_},
             [this, c](sim::Tick data_done) {
               if (c + 1 == stream_.num_cols) return EndStep(data_done);
               FetchColumn(c + 1);
             });
}

void Device::EndStep(sim::Tick data_done) {
  if (stream_.scan && injector_ != nullptr && injector_->DrawStallAtBurst()) {
    // Sequencer stall mid-scan: the partial bitmap may already be in DRAM,
    // but this burst's rows are never accumulated. The device stays busy
    // with no pending events until the driver watchdog aborts it.
    return;
  }
  const uint64_t first = cursor_rows_;
  FoldRows(step_last_);
  const EngineCost cost = std::visit(
      [&](const auto& j) { return Cost(j, cursor_rows_ - first); }, *job_);
  ChargeEngine(data_done, cost.ps, cost.fj);
  Flush(/*final=*/false, [this](sim::Tick) { ContinueWhenEngineReady(); });
}

void Device::FoldRows(uint64_t last) {
  const uint64_t rows = std::visit([&](const auto& j) { return Fold(j, last); }, *job_);
  stats_.rows_processed += rows;
  cursor_rows_ += rows;
}

void Device::ChargeEngine(sim::Tick data_done, sim::Tick proc,
                          double energy_fj) {
  engine_ready_at_ = std::max(data_done, engine_ready_at_) + proc;
  stats_.engine_busy_ps += proc;
  stats_.energy_fj += energy_fj;
}

void Device::ContinueWhenEngineReady() {
  // Throttle command issue so a slow datapath (words_per_cycle < 1) does not
  // overrun its input FIFO: the next burst's data (which completes CL+tBURST
  // after its command) should not arrive before the engine can take it.
  // Project's spec turns the throttle off: abl_projection's numbers rest on
  // it continuing at once.
  const sim::Tick pipe_ps = BusCycles(timing().cl + timing().tburst);
  const sim::Tick earliest = stream_.throttle && engine_ready_at_ > pipe_ps
                                 ? engine_ready_at_ - pipe_ps
                                 : 0;
  if (earliest > eq_->Now()) return ScheduleAtGuarded(earliest, [this] { Step(); });
  Step();
}

void Device::Flush(bool final, std::function<void(sim::Tick)> next) {
  const BurstRun run =
      std::visit([&](const auto& j) { return WriteBack(j, final); }, *job_);
  if (run.bursts > 0 && stream_.writeback_after_engine) {
    return ScheduleAtGuarded(engine_ready_at_, [this, run, next = std::move(next)] {
      BurstChain(dram::CommandType::kWrite, run, next);
    });
  }
  BurstChain(dram::CommandType::kWrite, run, std::move(next));
}

void Device::EndStream() {
  Flush(/*final=*/true, [this](sim::Tick) { FinishJob(); });
}

void Device::FinishJob() {
  EndJob();
  ++stats_.jobs_completed;
  auto cb = std::exchange(on_done_, nullptr);
  // A dropped completion: the job finished and its results are in DRAM, but
  // the driver is never told; its watchdog times out and retries.
  if (injector_ != nullptr && injector_->DrawDropCompletion()) return;
  if (cb) cb(Completion{Status::OK(), job_matches_, eq_->Now(), 1});
}

template <typename J>
Device::EngineCost Device::Cost(const J&, uint64_t) const {
  // One word per II from the IO buffer, for a whole burst even when the
  // final one holds fewer rows.
  return {config_.BurstProcessingPs(kWordsPerBurst),
          config_.energy_per_word_fj * kWordsPerBurst};
}

// ---------------------------------------------------------------------------
// Select / row-store / probe: the scan kinds. Each folds one bit per row into
// the output buffer, which is written back every time it fills.

Status Device::Validate(const SelectJob& job, StreamSpec* spec) const {
  *spec = {.rows = job.num_rows, .cols = {job.col_base}, .stride = config_.elem_bytes,
           .scan = true, .out = job.out_base,
           .out_mask = job.masked_writeback ? job.writeback_mask : ~uint64_t{0}};
  return Status::OK();
}

Status Device::Validate(const RowStoreJob& job, StreamSpec* spec) const {
  *spec = {.rows = job.num_tuples, .cols = {job.tuple_base}, .stride = job.tuple_bytes,
           .scan = true, .out = job.out_base};
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
  return Status::OK();
}

Status Device::Validate(const ProbeJob& job, StreamSpec* spec) const {
  // Probe bitmaps are always whole-word owned by this device (the runtime
  // chunks on page boundaries), so no masked merge is needed.
  *spec = {.rows = job.num_rows, .cols = {job.col_base}, .scan = true,
           .out = job.out_base};
  if (job.hash_count != kProbeHashes) {
    return Status::InvalidArgument(
        "hash_count does not match the derived probe datapath (" +
        std::to_string(kProbeHashes) + " lanes)");
  }
  if (job.filter_words == 0 ||
      (job.filter_words & (job.filter_words - 1)) != 0) {
    return Status::InvalidArgument(
        "filter_words must be a power of two (bit index is a mask)");
  }
  if (config_.probe_words_per_cycle <= 0.0) {
    return Status::Unimplemented("datapath has no scheduled probe kernel");
  }
  return CheckRegions({{"filter_base", job.filter_base, job.filter_words, 8}});
}

void Device::Begin(const ProbeJob& job) {
  // Filter preload, shared by both generations: announce the load window to
  // the shadow checker, stream the Bloom image out of DRAM with ordinary
  // reads (the timing), latch it into the probe SRAM (the function), close
  // the window, and only then start the scan.
  channel().NoteProbeFilterLoadStart(rank_index_, eq_->Now());
  probe_sram_.assign(job.filter_words, 0);
  const BurstRun image{job.filter_base, BurstsFor(job.filter_words * 8)};
  BurstChain(dram::CommandType::kRead, image, [this, image](sim::Tick) {
    dram_->backing_store().Read(image.addr, probe_sram_.data(), probe_sram_.size() * 8);
    channel().NoteProbeFilterLoadDone(rank_index_);
    Step();
  });
}

template <typename Pass>
uint64_t Device::FillBitmap(uint64_t last, Pass pass) {
  uint64_t r = cursor_rows_;
  uint64_t matches = 0;
  for (; r < last && pending_bit_count_ < config_.output_buffer_bits; ++r) {
    const bool p = pass(r);
    pending_bits_.SetTo(pending_bit_count_++, p);
    matches += p;
  }
  CountMatches(matches);
  return r - cursor_rows_;
}

template <typename T>
const T* Device::FetchRows(uint64_t base, uint64_t last, std::vector<T>* buf) {
  buf->resize(std::min(last - cursor_rows_,
                       config_.output_buffer_bits - pending_bit_count_));
  dram_->backing_store().Read(base + cursor_rows_ * sizeof(T), buf->data(),
                              buf->size() * sizeof(T));
  return buf->data();
}

uint64_t Device::Fold(const SelectJob& job, uint64_t last) {
  if (config_.elem_bytes == 4) {  // sign-extended 32-bit halves
    const int32_t* v = FetchRows(job.col_base, last, &fold_halves_);
    return FillBitmap(last, [&](uint64_t r) {
      return EvalCompare(job.op, v[r - cursor_rows_], job.range_low, job.range_high);
    });
  }
  const int64_t* v = FetchRows(job.col_base, last, &fold_words_);
  return FillBitmap(last, [&](uint64_t r) {
    return EvalCompare(job.op, v[r - cursor_rows_], job.range_low, job.range_high);
  });
}

uint64_t Device::Fold(const RowStoreJob& job, uint64_t last) {
  const dram::BackingStore& store = dram_->backing_store();
  return FillBitmap(last, [&](uint64_t r) {
    const uint64_t addr = job.tuple_base + r * job.tuple_bytes;
    for (const RowPredicate& p : job.predicates) {
      int64_t v = static_cast<int64_t>(store.Read64(addr + p.attr_offset_bytes));
      if (!EvalCompare(p.op, v, p.range_low, p.range_high)) return false;
    }
    return true;
  });
}

uint64_t Device::Fold(const ProbeJob& job, uint64_t last) {
  const int64_t* keys = FetchRows(job.col_base, last, &fold_words_);
  // Bloom membership: every hash lane's bit for the key is set in the probe
  // SRAM (no false negatives by construction).
  return FillBitmap(last, [&](uint64_t r) {
    const uint64_t key = static_cast<uint64_t>(keys[r - cursor_rows_]);
    for (uint32_t h = 0; h < job.hash_count; ++h) {
      uint64_t bit = BloomBitIndex(key, h, job.filter_words);
      if (((probe_sram_[bit / 64] >> (bit % 64)) & 1) == 0) return false;
    }
    return true;
  });
}

Device::EngineCost Device::Cost(const ProbeJob&, uint64_t) const {
  // The hash-lane kernel's (slower) schedule instead of the comparator's.
  return {config_.ProbeBurstProcessingPs(kWordsPerBurst),
          config_.probe_energy_per_word_fj * kWordsPerBurst};
}

template <typename J>
Device::BurstRun Device::WriteBack(const J&, bool final) {
  // Scans start 64 B aligned and the buffer holds a multiple of 512 rows, so
  // every buffer boundary falls on a burst boundary: v1 never fills the
  // buffer mid-burst.
  const uint64_t bits = pending_bit_count_;
  if (bits == 0 || (!final && bits < config_.output_buffer_bits)) return {};
  const uint64_t addr = stream_.out + bitmap_write_cursor_;
  dram::BackingStore& store = dram_->backing_store();
  // Functional write, word at a time: a partial word or a masked layout
  // merges with what DRAM holds.
  for (uint64_t w = 0; w * 64 < bits; ++w) {
    uint64_t keep = stream_.out_mask;
    if (bits < (w + 1) * 64) keep &= (uint64_t{1} << (bits - w * 64)) - 1;
    uint64_t value = pending_bits_.Word(w) & keep;
    if (keep != ~uint64_t{0}) value |= store.Read64(addr + w * 8) & ~keep;
    store.Write64(addr + w * 8, value);
    // Fold the final written word into the writeback checksum: the driver
    // re-reads these exact words from DRAM, so any later corruption shows.
    last_result_checksum_ = ChecksumMix(last_result_checksum_, value);
  }
  if (injector_ != nullptr && injector_->DrawCorruptAtFlush()) {
    // Flip one already-written bit after the checksum was taken — exactly
    // what a flaky writeback path would do. The driver's verification pass
    // catches the mismatch and retries the page.
    const uint64_t bit = injector_->DrawCorruptBit(bits);
    const uint64_t waddr = addr + (bit / 64) * 8;
    store.Write64(waddr, store.Read64(waddr) ^ (uint64_t{1} << (bit % 64)));
  }
  const uint64_t bytes = (bits + 7) / 8;
  bitmap_write_cursor_ += bytes;
  pending_bit_count_ = 0;
  return {addr - addr % kBurstBytes, BurstsFor(bytes)};
}

// ---------------------------------------------------------------------------
// Sort (§4 "Sorting": fixed-function bitonic block sorter)

Status Device::Validate(const SortJob& job, StreamSpec* spec) const {
  // A step is one block; its sorted run is written back once the network
  // finishes, and the next block streams after that write-back.
  *spec = {.rows = job.num_rows, .cols = {job.col_base},
           .step_bursts = kSortBlockElems / kWordsPerBurst,
           .writeback_after_engine = true};
  return CheckRegions({{"out_base", job.out_base, job.num_rows, 8}});
}

uint64_t Device::Fold(const SortJob& job, uint64_t last) {
  // Functional model: an exact sort of the block in device SRAM.
  const uint64_t rows = last - cursor_rows_;
  std::vector<int64_t> block(rows);
  dram_->backing_store().Read(job.col_base + cursor_rows_ * 8, block.data(), rows * 8);
  std::sort(block.begin(), block.end());
  if (job.descending) std::reverse(block.begin(), block.end());
  dram_->backing_store().Write(job.out_base + cursor_rows_ * 8, block.data(), rows * 8);
  return rows;
}

Device::EngineCost Device::Cost(const SortJob&, uint64_t rows) const {
  // The bitonic network's stage count on the comparator array.
  return {config_.SortBlockCycles(static_cast<uint32_t>(rows)) *
              config_.clock.period_ps(),
          config_.energy_per_word_fj * static_cast<double>(rows)};
}

Device::BurstRun Device::WriteBack(const SortJob& job, bool final) {
  if (final) return {};
  return {job.out_base + step_offset_, step_bursts_};
}

// ---------------------------------------------------------------------------
// Aggregate, project and group-by: folds over the rows an optional
// pre-filter bitmap selects.

template <typename F>
uint64_t Device::ForSelected(std::optional<uint64_t> bitmap, uint64_t last, F fold) {
  const dram::BackingStore& store = dram_->backing_store();
  for (uint64_t r = cursor_rows_; r < last; ++r) {
    if (!bitmap || ((store.Read64(*bitmap + (r / 64) * 8) >> (r % 64)) & 1)) fold(r);
  }
  return last - cursor_rows_;
}

Status Device::Validate(const AggregateJob& job, StreamSpec* spec) const {
  *spec = {.rows = job.num_rows, .cols = {job.col_base},
           .bitmap = job.bitmap_base ? std::optional(job.bitmap_base) : std::nullopt};
  return CheckRegions({{"out_addr", job.out_addr, 1, 8, /*aligned=*/false}});
}

void Device::Begin(const AggregateJob& job) {
  agg_acc_ = AggIdentity(job.kind);
  Step();
}

uint64_t Device::Fold(const AggregateJob& job, uint64_t last) {
  return ForSelected(stream_.bitmap, last, [&](uint64_t r) {
    int64_t v = static_cast<int64_t>(dram_->backing_store().Read64(job.col_base + r * 8));
    agg_acc_ = AggMerge(job.kind, agg_acc_, job.kind == AggKind::kCount ? 1 : v);
    CountMatches(1);
  });
}

Device::BurstRun Device::WriteBack(const AggregateJob& job, bool final) {
  if (!final) return {};
  dram_->backing_store().Write64(job.out_addr, static_cast<uint64_t>(agg_acc_));
  return {job.out_addr - job.out_addr % kBurstBytes, 1};
}

Status Device::Validate(const ProjectJob& job, StreamSpec* spec) const {
  *spec = {.rows = job.num_rows, .cols = {job.col_base}, .bitmap = job.bitmap_base,
           .throttle = false};
  if (job.out_base % kBurstBytes != 0) {
    return Status::InvalidArgument("out_base must be 64 B aligned");
  }
  return Status::OK();
}

uint64_t Device::Fold(const ProjectJob& job, uint64_t last) {
  return ForSelected(stream_.bitmap, last, [&](uint64_t r) {
    project_out_buffer_.push_back(static_cast<int64_t>(
        dram_->backing_store().Read64(job.col_base + r * 8)));
    CountMatches(1);
  });
}

Device::BurstRun Device::WriteBack(const ProjectJob& job, bool final) {
  // Buffer qualifying values up to the device's output buffer capacity
  // before dumping them back (§4: "when the internal buffers are full,
  // JAFAR will dump the contents back to a pre-allocated location") —
  // flushing per burst would pay the write-to-read turnaround each time.
  // Mid-job only whole bursts leave the buffer.
  uint64_t n = project_out_buffer_.size();
  if (!final) {
    if (n < config_.output_buffer_bits / 8) return {};
    n -= n % kWordsPerBurst;
  }
  if (n == 0) return {};
  const uint64_t addr = job.out_base + project_emitted_ * 8;
  dram_->backing_store().Write(addr, project_out_buffer_.data(), n * 8);
  project_out_buffer_.erase(project_out_buffer_.begin(),
                            project_out_buffer_.begin() + static_cast<long>(n));
  project_emitted_ += n;
  const uint64_t first = addr - addr % kBurstBytes;
  return {first, (addr + n * 8 - 1 - first) / kBurstBytes + 1};
}

// Grouped aggregation (§4: bucket-limited, hierarchical passes)

Status Device::Validate(const GroupByJob& job, StreamSpec* spec) const {
  // Stream the two columns in DRAM-row-sized steps (8 KB = 1024 values):
  // alternating single bursts between the columns would ping-pong two rows
  // of one bank (the columns often alias to the same bank), paying a
  // precharge/activate pair per burst. Whole-row steps amortize the row
  // switch across 128 bursts — the device's SRAM double-buffers one row of
  // keys against one row of values.
  *spec = {.rows = job.num_rows, .cols = {job.key_base, job.val_base}, .num_cols = 2,
           .bitmap = job.bitmap_base ? std::optional(job.bitmap_base) : std::nullopt,
           .step_bursts = 128};
  return CheckRegions({{"out_base", job.out_base, config_.groupby_buckets, 16}});
}

void Device::Begin(const GroupByJob& job) {
  groupby_sram_.assign(2 * config_.groupby_buckets, 0);
  for (size_t b = 0; b < groupby_sram_.size(); b += 2) {
    groupby_sram_[b] = AggIdentity(job.kind);
  }
  Step();
}

uint64_t Device::Fold(const GroupByJob& job, uint64_t last) {
  const dram::BackingStore& store = dram_->backing_store();
  return ForSelected(stream_.bitmap, last, [&](uint64_t r) {
    int64_t bucket = static_cast<int64_t>(store.Read64(job.key_base + r * 8)) -
                     job.key_offset;
    if (bucket < 0 || bucket >= static_cast<int64_t>(config_.groupby_buckets)) {
      return;  // outside this hierarchical pass's window
    }
    int64_t v = static_cast<int64_t>(store.Read64(job.val_base + r * 8));
    int64_t* slot = &groupby_sram_[2 * bucket];
    slot[0] = AggMerge(job.kind, slot[0], job.kind == AggKind::kCount ? 1 : v);
    ++slot[1];
    CountMatches(1);
  });
}

Device::EngineCost Device::Cost(const GroupByJob&, uint64_t rows) const {
  // One key/value pair per cycle (hash + accumulate); a step's processing
  // overlaps the next step's reads via the usual throttle.
  const uint32_t words = static_cast<uint32_t>(2 * rows);
  return {config_.BurstProcessingPs(words), config_.energy_per_word_fj * words};
}

Device::BurstRun Device::WriteBack(const GroupByJob& job, bool final) {
  if (!final) return {};
  // Dump the bucket SRAM image back to DRAM.
  const uint64_t bytes = groupby_sram_.size() * 8;
  dram_->backing_store().Write(job.out_base, groupby_sram_.data(), bytes);
  return {job.out_base, BurstsFor(bytes)};
}

}  // namespace ndp::jafar
