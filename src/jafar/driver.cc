#include "jafar/driver.h"

#include <algorithm>

#include "jafar/checksum.h"
#include "util/macros.h"

namespace ndp::jafar {

Driver::Driver(Device* device, dram::MemoryController* controller,
               DriverConfig config, const StatsScope& stats)
    : device_(device),
      controller_(controller),
      config_(config),
      eq_(device->event_queue()) {
  NDP_CHECK(config_.page_bytes % 64 == 0);
  NDP_CHECK(config_.retry.max_attempts >= 1);
  watchdog_.driver = this;
  stats.Counter("watchdog_fires", &stats_.watchdog_fires);
  stats.Counter("retries", &stats_.retries);
  stats.Counter("checksum_errors", &stats_.checksum_errors);
  stats.Counter("device_errors", &stats_.device_errors);
  stats.Counter("permanent_failures", &stats_.permanent_failures);
  stats.Histogram("recovery_latency_ps", &recovery_latency_);
}

void Driver::ArmWatchdog(uint64_t rows) {
  DisarmWatchdog();
  sim::Tick deadline = eq_->Now() + config_.watchdog_base_ps +
                       rows * kWatchdogPerRowPs;
  eq_->Schedule(deadline, &watchdog_);
}

void Driver::DisarmWatchdog() {
  if (watchdog_.scheduled()) eq_->Cancel(&watchdog_);
}

void Driver::OnWatchdogFire() {
  ++stats_.watchdog_fires;
  // Reclaim the device. AbortJob is a no-op when the job actually finished
  // but its completion signal was dropped — either way the device is idle
  // afterwards and the attempt is treated as timed out.
  device_->AbortJob();
  HandleFailure(
      Status::Internal("watchdog timeout: device did not signal completion"));
}

void Driver::AcquireOwnership(std::function<void(sim::Tick)> done) {
  controller_->TransferOwnership(device_->rank_index(),
                                 dram::RankOwner::kAccelerator, std::move(done));
}

void Driver::ReleaseOwnership(std::function<void(sim::Tick)> done) {
  controller_->TransferOwnership(device_->rank_index(), dram::RankOwner::kHost,
                                 std::move(done));
}

// ---------------------------------------------------------------------------
// Submit and the attempt loop

Status Driver::Submit(const JobDescriptor& job,
                      std::function<void(const Completion&)> on_done) {
  if (active_) {
    return Status::DeviceBusy("a job is already in flight on this driver");
  }
  const uint64_t rows = JobRows(job);
  if (rows == 0) return Status::InvalidArgument("a job needs at least one row");
  const auto* sel = std::get_if<SelectJob>(&job);
  if (sel != nullptr && sel->col_base % config_.page_bytes != 0) {
    return Status::InvalidArgument("col_data must be page aligned (Figure 2: "
                                   "one call per virtual memory page)");
  }
  active_ = true;
  job_ = job;
  result_ = Completion{};
  on_done_ = std::move(on_done);
  StartAttempt(1);
  return Status::OK();
}

JobDescriptor Driver::NextPage() const {
  const auto* sel = std::get_if<SelectJob>(&job_);
  if (sel == nullptr) return job_;
  // Page granularity: at least one virtual-memory page (Figure 2's API
  // unit), widened to the device's preferred scan chunk when it advertises
  // one (the v2 sequencer needs a whole bank wave per invocation).
  uint64_t chunk =
      std::max(config_.page_bytes, device_->config().scan_chunk_bytes);
  SelectJob page = *sel;
  page.num_rows =
      std::min(sel->num_rows, chunk / device_->config().elem_bytes);
  return page;
}

void Driver::StartAttempt(uint32_t attempt) {
  attempt_ = attempt;
  if (attempt == 1) first_dispatch_ps_ = eq_->Now();
  page_ = NextPage();
  Status st = device_->Start(
      page_, [this](const Completion& done) { OnAttemptDone(done); });
  if (!st.ok()) {
    ++stats_.device_errors;
    HandleFailure(std::move(st));
    return;
  }
  ArmWatchdog(JobRows(page_));
}

void Driver::OnAttemptDone(const Completion& done) {
  DisarmWatchdog();
  if (!done.status.ok()) {
    // Async job failure (e.g. uncorrectable ECC machine check).
    ++stats_.device_errors;
    HandleFailure(done.status);
    return;
  }
  if (!VerifyWriteback()) {
    ++stats_.checksum_errors;
    HandleFailure(
        Status::Internal("writeback checksum mismatch on result bitmap"));
    return;
  }
  if (attempt_ > 1) {
    recovery_latency_.Add(static_cast<double>(eq_->Now() - first_dispatch_ps_));
  }
  // The attempt's matches enter the result exactly once, here: a retried
  // attempt rewrites its output from scratch and reports only its own
  // count, so no double counting.
  result_.matches += done.matches;
  ++result_.pages;
  if (auto* sel = std::get_if<SelectJob>(&job_)) {
    const uint64_t rows = std::get<SelectJob>(page_).num_rows;
    sel->num_rows -= rows;
    sel->col_base += rows * device_->config().elem_bytes;
    sel->out_base += (rows + 7) / 8;
    if (sel->num_rows > 0) {
      StartAttempt(1);
      return;
    }
  }
  Finish(Status::OK());
}

bool Driver::VerifyWriteback() const {
  uint64_t out = 0, rows = 0;
  if (const auto* s = std::get_if<SelectJob>(&page_)) {
    out = s->out_base;
    rows = s->num_rows;
  } else if (const auto* r = std::get_if<RowStoreJob>(&page_)) {
    out = r->out_base;
    rows = r->num_tuples;
  } else if (const auto* p = std::get_if<ProbeJob>(&page_)) {
    out = p->out_base;
    rows = p->num_rows;
  } else {
    return true;  // no bitmap output, nothing checksummed
  }
  // Recompute the FNV-1a the device folded over every bitmap word it wrote
  // for this attempt, reading the words back from the DRAM array.
  uint64_t bytes = (rows + 7) / 8;
  uint64_t h = kChecksumInit;
  for (uint64_t w = 0; w * 8 < bytes; ++w) {
    h = ChecksumMix(h, device_->dram()->backing_store().Read64(out + w * 8));
  }
  return h == device_->last_result_checksum();
}

void Driver::HandleFailure(Status st) {
  DisarmWatchdog();
  if (!IsDeviceFault(st.code()) || attempt_ >= config_.retry.max_attempts) {
    ++stats_.permanent_failures;
    Finish(std::move(st));
    return;
  }
  ++stats_.retries;
  eq_->ScheduleAfter(config_.retry.DelayFor(attempt_),
                     [this] { StartAttempt(attempt_ + 1); });
}

void Driver::Finish(Status st) {
  const bool ok = st.ok();
  active_ = false;
  result_.status = std::move(st);
  result_.completed_at = eq_->Now();
  if (!ok) result_.matches = 0;
  // Completion flag for CPU polling (§2.2). Timing is folded into the final
  // bitmap write-back burst; the flag word itself is a functional store.
  const auto* sel = std::get_if<SelectJob>(&job_);
  if (ok && sel != nullptr && sel->flag_addr != 0) {
    device_->dram()->backing_store().Write64(sel->flag_addr, kDoneFlagValue);
  }
  // Copies: the callback may Submit the next job, which resets both.
  Completion done = result_;
  auto cb = std::move(on_done_);
  on_done_ = nullptr;
  if (cb) cb(done);
}

Status Driver::HierarchicalGroupBy(
    GroupByJob job, uint32_t num_groups,
    std::function<void(const Completion&)> on_done) {
  const uint32_t buckets = device_->config().groupby_buckets;
  const uint32_t passes = (num_groups + buckets - 1) / buckets;
  if (passes == 0) return Status::InvalidArgument("num_groups must be > 0");
  return SubmitGroupByPass(job, 0, passes, Completion{}, std::move(on_done));
}

Status Driver::SubmitGroupByPass(
    const GroupByJob& job, uint32_t pass, uint32_t passes, Completion total,
    std::function<void(const Completion&)> on_done) {
  // Pass p covers keys [p * buckets, (p + 1) * buckets) and writes its
  // window to out_base + p * buckets * 16 bytes, so the merged result is
  // contiguous.
  const uint32_t buckets = device_->config().groupby_buckets;
  GroupByJob window = job;
  window.key_offset = static_cast<int64_t>(pass) * buckets;
  window.out_base = job.out_base + static_cast<uint64_t>(pass) * buckets * 16;
  return Submit(window, [this, job, pass, passes, total,
                         on_done](const Completion& done) mutable {
    total.status = done.status;
    total.matches += done.matches;
    total.pages += done.pages;
    total.completed_at = done.completed_at;
    if (done.status.ok() && pass + 1 < passes) {
      total.status = SubmitGroupByPass(job, pass + 1, passes, total, on_done);
      if (total.status.ok()) return;
    }
    if (!total.status.ok()) total.matches = 0;
    if (on_done) on_done(total);
  });
}

}  // namespace ndp::jafar
