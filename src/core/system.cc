#include "core/system.h"

#include "core/pushdown.h"
#include "util/logging.h"
#include "util/macros.h"

namespace ndp::core {

SystemModel::SystemModel(PlatformConfig config) : config_(std::move(config)) {
  StatsScope root(&stats_, "system");
  root.Counter("ticks_ps",
               std::function<uint64_t()>([this] { return eq_.Now(); }));
  dram_ = std::make_unique<dram::DramSystem>(
      &eq_, config_.dram_timing, config_.dram_org, config_.interleave,
      dram::ControllerConfig{}, root.Sub("dram"));
  hierarchy_ = std::make_unique<cpu::CacheHierarchy>(
      &eq_, config_.core.clock, config_.caches, dram_.get(),
      config_.frontside_ps, root.Sub("cpu"));
  core_ = std::make_unique<cpu::Core>(&eq_, config_.core, hierarchy_->top(),
                                      root.Sub("cpu").Sub("core"));
  // Derive the device timing with the generation's deriver — v2 additionally
  // schedules the select kernel on the narrowed per-bank resources to get the
  // bank comparator's rate.
  device_config_ =
      (config_.device_gen == jafar::DeviceGeneration::kV2BankLevel
           ? jafar::DeviceConfig::DeriveBank(config_.dram_timing,
                                             config_.dram_org,
                                             config_.jafar_datapath)
           : jafar::DeviceConfig::Derive(config_.dram_timing,
                                         config_.jafar_datapath))
          .ValueOrDie();
  device_ = std::make_unique<jafar::Device>(dram_.get(), 0, 0, device_config_,
                                            root.Sub("jafar").Sub("dev0"));
  driver_ = std::make_unique<jafar::Driver>(device_.get(), &dram_->controller(0),
                                            config_.driver, root.Sub("jafar"));

  StatsScope core_scope = root.Sub("core");
  core_scope.Counter("pushdown_fallbacks", &pushdown_fallbacks_);
  core_scope.Counter("degraded_mode", &degraded_mode_);
  core_scope.Counter("pushdown_probes", &pushdown_probes_);

  // Reject an invalid plan even when it is inactive (a NaN or negative rate
  // reads as inactive), and attach an injector to the device only when some
  // rate is nonzero — a system with an inactive plan takes no RNG draws and
  // stays byte-identical to a fault-free build.
  NDP_CHECK_MSG(config_.fault_plan.Validate().ok(),
                "PlatformConfig::fault_plan has a rate outside [0, 1]");
  if (config_.fault_plan.active()) {
    injector_ = std::make_unique<fault::FaultInjector>(config_.fault_plan,
                                                       root.Sub("fault"));
    device_->set_fault_injector(injector_.get());
  }
}

uint64_t SystemModel::Allocate(uint64_t bytes, uint64_t align) {
  NDP_CHECK(align > 0 && (align & (align - 1)) == 0);
  next_alloc_ = (next_alloc_ + align - 1) & ~(align - 1);
  uint64_t base = next_alloc_;
  next_alloc_ += bytes;
  NDP_CHECK_MSG(next_alloc_ <= dram_->organization().BytesPerRank(),
                "out of JAFAR-rank memory");
  return base;
}

uint64_t SystemModel::PinColumn(const db::Column& col) {
  auto it = pinned_.find(&col);
  if (it != pinned_.end()) return it->second;
  uint64_t base = Allocate(col.SizeBytes());
  dram_->backing_store().Write(base, col.data(), col.SizeBytes());
  pinned_.emplace(&col, base);
  return base;
}

sim::Tick SystemModel::PumpUntil(const bool* done) {
  bool ok = eq_.RunUntilTrue([done] { return *done; });
  NDP_CHECK_MSG(ok, "simulation drained without completing the operation");
  return eq_.Now();
}

Result<SystemModel::CpuRunResult> SystemModel::RunCpuSelect(
    const db::Column& col, int64_t lo, int64_t hi, db::SelectMode mode,
    bool cold_caches) {
  uint64_t col_base = PinColumn(col);
  uint64_t out_base = Allocate(col.size() * 4);
  cpu::SelectScanStream stream(col.data(), col.size(), lo, hi, col_base,
                               out_base,
                               mode == db::SelectMode::kPredicated);
  NDP_ASSIGN_OR_RETURN(CpuRunResult r, RunStream(&stream, cold_caches));
  r.matches = stream.matches();
  return r;
}

Result<SystemModel::CpuRunResult> SystemModel::ReplayTrace(
    const std::vector<cpu::TraceEvent>& events, bool cold_caches) {
  cpu::ReplayStream stream(&events);
  return RunStream(&stream, cold_caches);
}

Result<SystemModel::CpuRunResult> SystemModel::RunStream(
    cpu::UopStream* stream, bool cold_caches) {
  if (core_->busy()) return Status::DeviceBusy("core is running a kernel");
  if (cold_caches) hierarchy_->InvalidateAll();
  cpu::CoreStats core_before = core_->stats();
  StatsSnapshot before = stats_.Snapshot();
  bool done = false;
  sim::Tick start = eq_.Now();
  NDP_RETURN_NOT_OK(core_->Run(stream, [&done](sim::Tick) { done = true; }));
  sim::Tick end = PumpUntil(&done);
  CpuRunResult r;
  r.duration_ps = end - start;
  r.stats = core_->stats().DeltaSince(core_before);
  r.counters = stats_.Snapshot().DeltaSince(before);
  return r;
}

Result<SystemModel::OwnedRun> SystemModel::RunOwned(
    const jafar::JobDescriptor& job) {
  OwnedRun run;
  run.start = eq_.Now();
  // Acquire rank ownership through the memory controller (MR3/MPR, §2.2).
  bool owned = false;
  driver_->AcquireOwnership([&owned](sim::Tick) { owned = true; });
  run.acquired = PumpUntil(&owned);

  bool done = false;
  // Exclusive single-query path (fig3/fig4, fixed time-slicing): the caller
  // wants the whole rank, not runtime multiplexing. ndp-lint: runtime-bypass-ok
  Status submitted = driver_->Submit(job, [&](const jafar::Completion& c) {
    run.completion = c;
    done = true;
  });
  if (submitted.ok()) PumpUntil(&done);

  // Release before reporting a failure: a failed job must not leave the host
  // memory controller locked out.
  bool released = false;
  driver_->ReleaseOwnership([&released](sim::Tick) { released = true; });
  run.released = PumpUntil(&released);
  NDP_RETURN_NOT_OK(submitted);
  NDP_RETURN_NOT_OK(run.completion.status);
  return run;
}

Result<SystemModel::JafarRunResult> SystemModel::RunJafarSelect(
    const db::Column& col, int64_t lo, int64_t hi) {
  jafar::SelectJob job;
  job.col_base = PinColumn(col);
  job.num_rows = col.size();
  job.range_low = lo;
  job.range_high = hi;
  job.out_base = Allocate((col.size() + 7) / 8 + 64, 4096);
  job.flag_addr = Allocate(64, 64);

  jafar::DeviceStats device_before = device_->stats();
  StatsSnapshot before = stats_.Snapshot();
  NDP_ASSIGN_OR_RETURN(OwnedRun run, RunOwned(job));

  JafarRunResult r;
  r.duration_ps = run.released - run.start;
  r.ownership_ps = (run.acquired - run.start) +
                   (run.released - run.completion.completed_at);
  r.matches = run.completion.matches;
  r.bitmap_addr = job.out_base;
  // Per-run stats as deltas against the before-run snapshots.
  r.stats = device_->stats().DeltaSince(device_before);
  r.counters = stats_.Snapshot().DeltaSince(before);
  return r;
}

std::string SystemModel::DumpStats() const {
  std::string out = "---------- simulated system statistics ----------\n";
  out += stats_.DumpText();
  return out;
}

namespace {

/// Consecutive device failures before the breaker opens.
constexpr uint32_t kDegradeThreshold = 3;
/// While degraded, every Nth pushdown call probes the device again.
constexpr uint64_t kProbeInterval = 16;

}  // namespace

db::NdpSelectHook SystemModel::MakePushdownHook() {
  return [this](const db::Column& col,
                const db::Pred& pred) -> Result<db::PositionList> {
    int64_t lo, hi;
    NDP_RETURN_NOT_OK(PredToJafarRange(pred, &lo, &hi));

    // Circuit breaker: after kDegradeThreshold consecutive device failures,
    // stop dispatching to JAFAR (each failed attempt costs watchdog + retry
    // latency) and decline immediately, except for a periodic probe that
    // checks whether the device has recovered.
    if (degraded_mode_ != 0) {
      if (++pushdown_probes_ % kProbeInterval != 0) {
        // kDeviceBusy (not kFailedPrecondition) so the operator layer counts
        // this as a device-health fallback, unlike planner declines.
        return Status::DeviceBusy(
            "JAFAR pushdown degraded: device declined without dispatch");
      }
    }

    Result<JafarRunResult> run = RunJafarSelect(col, lo, hi);
    if (!run.ok()) {
      if (IsDeviceFault(run.status().code())) {
        ++pushdown_fallbacks_;
        if (++consecutive_failures_ >= kDegradeThreshold) degraded_mode_ = 1;
      }
      return run.status();
    }
    consecutive_failures_ = 0;
    degraded_mode_ = 0;

    // Read the bitmap back (the CPU would stream it through its caches).
    BitVector bm(col.size());
    for (size_t w = 0; w < bm.num_words(); ++w) {
      bm.SetWord(w, dram_->backing_store().Read64(
                        run.ValueOrDie().bitmap_addr + w * 8));
    }
    return db::BitmapToPositions(bm);
  };
}

}  // namespace ndp::core
