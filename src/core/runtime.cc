#include "core/runtime.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/profiling.h"
#include "core/pushdown.h"
#include "core/scheduler.h"
#include "util/logging.h"

namespace ndp::core {

namespace {

constexpr uint64_t kRowsPerPage = 4096 / 8;  ///< int64 rows per 4 KB page

uint64_t RoundDownPages(uint64_t rows) {
  return rows / kRowsPerPage * kRowsPerPage;
}

/// Kinds whose device output is a per-row bitmap merged into JobResult::
/// bitmap (select's match bitmap, probe's candidate bitmap).
bool KindHasBitmap(ndp::core::JobKind kind) {
  return kind == ndp::core::JobKind::kSelect ||
         kind == ndp::core::JobKind::kProbe;
}

}  // namespace

// -- RuntimeConfig ------------------------------------------------------------

Status RuntimeConfig::Validate() const {
  if (kLeaseMinBusCycles > lease_init_bus_cycles ||
      lease_init_bus_cycles > lease_max_bus_cycles) {
    return Status::InvalidArgument(
        "runtime config: need lease_min <= lease_init <= lease_max");
  }
  if (!(qos_max_cpu_slowdown_pct > 0.0 && qos_max_cpu_slowdown_pct <= 100.0)) {
    return Status::InvalidArgument(
        "runtime config: slowdown budget must be in (0, 100] percent");
  }
  if (!(kIdleBusyThreshold < qos_budget_fraction())) {
    return Status::InvalidArgument(
        "runtime config: idle threshold must be below the busy budget");
  }
  if (qos_max_stall_bus_cycles < kLeaseMinBusCycles) {
    return Status::InvalidArgument(
        "runtime config: stall bound below the minimum lease");
  }
  return Status::OK();
}

// -- LeaseController ----------------------------------------------------------

LeaseController::LeaseController(const RuntimeConfig& cfg) : cfg_(cfg) {
  lease_ = static_cast<double>(
      std::min(cfg_.lease_init_bus_cycles, LeaseCap()));
  lease_ = std::max(lease_, static_cast<double>(kLeaseMinBusCycles));
}

uint64_t LeaseController::LeaseCap() const {
  return std::min(cfg_.lease_max_bus_cycles, cfg_.qos_max_stall_bus_cycles);
}

void LeaseController::Observe(uint64_t window_cycles, uint64_t busy_cycles,
                              uint64_t requests) {
  if (window_cycles == 0) return;
  double u = std::min(1.0, static_cast<double>(busy_cycles) /
                               static_cast<double>(window_cycles));
  double idle =
      PessimisticIdlePeriodCycles(window_cycles, busy_cycles, requests);
  if (!has_observation_) {
    ewma_busy_ = u;
    ewma_idle_ = idle;
    has_observation_ = true;
  } else {
    ewma_busy_ = kEwmaAlpha * u + (1.0 - kEwmaAlpha) * ewma_busy_;
    ewma_idle_ =
        kEwmaAlpha * idle + (1.0 - kEwmaAlpha) * ewma_idle_;
  }
  double cap = static_cast<double>(LeaseCap());
  double floor = static_cast<double>(kLeaseMinBusCycles);
  if (ewma_busy_ > cfg_.qos_budget_fraction()) {
    lease_ = std::max(floor, lease_ * kLeaseShrink);
    ++shrinks_;
  } else if (ewma_busy_ < kIdleBusyThreshold) {
    lease_ = std::min(
        cap, std::max(lease_ * kLeaseGrow,
                      kIdleFillFactor * ewma_idle_));
    ++grows_;
  }
  lease_ = std::clamp(lease_, floor, cap);
}

uint64_t LeaseController::NextLeaseBusCycles() const {
  return static_cast<uint64_t>(std::llround(lease_));
}

bool LeaseController::ChannelIdle() const {
  return has_observation_ && ewma_busy_ < kIdleBusyThreshold;
}

bool LeaseController::OverBudget() const {
  return has_observation_ && ewma_busy_ > cfg_.qos_budget_fraction();
}

uint64_t LeaseController::HostWindowBusCycles(uint64_t lease_bus_cycles) const {
  if (ChannelIdle()) return kHostWindowMinBusCycles;
  double beta = cfg_.qos_budget_fraction();
  if (beta >= 1.0) return kHostWindowMinBusCycles;
  double w = static_cast<double>(lease_bus_cycles) * (1.0 - beta) / beta;
  return std::max(kHostWindowMinBusCycles,
                  static_cast<uint64_t>(std::ceil(w)));
}

// -- NdpRuntime internals -----------------------------------------------------

struct NdpRuntime::Job {
  JobId id = 0;
  JobKind kind = JobKind::kSelect;
  JobPriority priority = JobPriority::kBatch;
  int64_t lo = 0, hi = 0;
  jafar::AggKind agg = jafar::AggKind::kSum;
  uint64_t total_rows = 0;
  uint64_t rows_completed = 0;
  uint64_t matches = 0;
  int64_t agg_value = 0;  ///< kAggregate: seeded with the kind's identity
  uint64_t leases = 0;
  // -- Probe state (kProbe only) ---------------------------------------------
  /// Host-built Bloom image over the build keys; the source of every
  /// per-device copy (EnsureProbeFilter).
  std::vector<uint64_t> filter_image;
  uint64_t filter_words = 0;  ///< filter_image.size(), a power of two
  /// Devices that already hold the image, and where. Lazy: a device pays for
  /// the image only if a chunk of this job actually lands on it.
  std::map<uint32_t, uint64_t> filter_base_by_device;
  // -- Group-by state (kGroupBy only) ----------------------------------------
  /// key -> {aggregate, count}, merged per lease from the device's bucket
  /// scratch (and from host-folded seam rows).
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  /// Absolute cancellation time (0 = none): checked at every chunk-boundary
  /// dispatch and again before completion, so an expired job is never
  /// silently completed late.
  sim::Tick deadline_ps = 0;
  /// Chunks made by NewChunk and not yet ended by EndChunk. The job
  /// completes when its LAST chunk ends: a copy in flight (a steal or a
  /// re-homed tail) holds rows no lane has counted yet.
  uint64_t chunks_live = 0;
  bool failed = false;
  /// FinishJob ran: the result is recorded (or handed off) and on_done
  /// fired. The job leaves jobs_ once this is set and chunks_live is 0.
  bool finished = false;
  /// Burst admission: the result goes to on_done only, never to results_.
  bool burst = false;
  sim::Tick submitted_ps = 0;
  /// Per-job result bitmap, folded from the device out region as each lease
  /// ends. The fold cannot wait: out regions come from the placement and are
  /// shared by every job over the column, so the next lease on the lane —
  /// another job's, or one that preempts this chunk — overwrites them.
  BitVector bitmap;
  JobCallback on_done;
};

struct NdpRuntime::Chunk {
  Job* job = nullptr;
  uint64_t seq = 0;  ///< global submission sequence, the FIFO key
  JobPriority priority = JobPriority::kBatch;
  uint64_t col_base = 0;
  uint64_t out_base = 0;
  uint64_t val_base = 0;     ///< group-by value slice (0 otherwise)
  uint64_t first_row = 0;
  uint64_t rows = 0;
  uint64_t rows_done = 0;    ///< completed-lease prefix
  uint64_t rows_leased = 0;  ///< dispatched prefix (>= rows_done)
};

struct NdpRuntime::Lane {
  enum class State : uint8_t { kIdle, kDeferred, kLeasing, kWaiting, kDead };

  uint32_t device = 0;  ///< also the lane's index in lanes_
  uint32_t channel = 0;
  std::unique_ptr<jafar::Driver> driver;
  std::deque<std::unique_ptr<Chunk>> queue;  ///< (priority, seq) order
  std::unique_ptr<Chunk> active;
  State state = State::kIdle;
  uint32_t defers = 0;

  // Host-window observation bookkeeping.
  bool has_window = false;
  bool sampling_inflight = false;  ///< a SampleChannel round-trip is pending
  sim::Tick window_start_ps = 0;
  double busy_base = 0, req_base = 0;

  uint64_t cur_lease_cycles = 0;
  uint64_t cur_lease_rows = 0;
  uint64_t agg_scratch = 0;  ///< 8-byte partial-result cell, lazily allocated
  uint64_t gb_scratch = 0;   ///< group-by bucket dump region, lazily allocated
  int64_t gb_key_offset = 0;   ///< bucket window base of the in-flight lease
  bool gb_host_seam = false;   ///< lease folded host-side (see DESIGN.md §12)

  // Heavy-hitter detector state: progress rate of this lane's leases.
  double ewma_ps_per_row = 0.0;
  uint64_t rate_leases = 0;    ///< completed leases feeding the EWMA
  sim::Tick lease_start_ps = 0;
  bool hh_flagged = false;
};

// -- NdpRuntime ---------------------------------------------------------------

NdpRuntime::NdpRuntime(DimmArray* array, RuntimeConfig config)
    : array_(array), config_(config), eq_(array->eq()) {
  NDP_CHECK(config_.Validate().ok());
  uint32_t channels = array_->dram().num_channels();
  for (uint32_t c = 0; c < channels; ++c) {
    controllers_.push_back(std::make_unique<LeaseController>(config_));
    std::string prefix = "array.dram.ctrl" + std::to_string(c) + ".";
    busy_paths_rc_.push_back(prefix + "rc_busy_cycles");
    busy_paths_wc_.push_back(prefix + "wc_busy_cycles");
    req_paths_rd_.push_back(prefix + "reads_served");
    req_paths_wr_.push_back(prefix + "writes_served");
  }
  StatsScope scope(array_->mutable_stats(), "array.runtime");
  scope.Counter("jobs_submitted", &counters_.jobs_submitted);
  scope.Counter("jobs_completed", &counters_.jobs_completed);
  scope.Counter("jobs_failed", &counters_.jobs_failed);
  scope.Counter("leases", &counters_.leases);
  scope.Counter("admission_defers", &counters_.admission_defers);
  scope.Counter("steals", &counters_.steals);
  scope.Counter("stolen_pages", &counters_.stolen_pages);
  scope.Counter("lane_failures", &counters_.lane_failures);
  scope.Counter("chunks_reassigned", &counters_.chunks_reassigned);
  scope.Counter("deadline_cancellations", &counters_.deadline_cancellations);
  scope.Counter("hh_flags", &counters_.hh_flags);
  scope.Counter("eta_steals", &counters_.eta_steals);
  for (uint32_t c = 0; c < channels; ++c) {
    StatsScope ch = scope.Sub("ctrl" + std::to_string(c));
    LeaseController* lc = controllers_[c].get();
    ch.Gauge("ewma_busy_fraction",
             std::function<double()>([lc] { return lc->ewma_busy_fraction(); }));
    ch.Gauge("ewma_idle_cycles",
             std::function<double()>([lc] { return lc->ewma_idle_cycles(); }));
    ch.Gauge("lease_bus_cycles", std::function<double()>([lc] {
               return static_cast<double>(lc->NextLeaseBusCycles());
             }));
    ch.Counter("qos_shrinks",
               std::function<uint64_t()>([lc] { return lc->qos_shrinks(); }));
    ch.Counter("qos_grows",
               std::function<uint64_t()>([lc] { return lc->qos_grows(); }));
  }
  for (uint32_t d = 0; d < array_->num_devices(); ++d) {
    auto lane = std::make_unique<Lane>();
    lane->device = d;
    jafar::Device& dev = array_->device(d);
    lane->channel = dev.channel_index();
    lane->driver = std::make_unique<jafar::Driver>(
        &dev, &array_->dram().controller(dev.channel_index()), config_.driver,
        scope.Sub("lane" + std::to_string(d)));
    lanes_.push_back(std::move(lane));
  }
  // Seed each lane's observation window at construction: the first dispatch
  // then sees whatever host traffic ran before the first submission, instead
  // of flying blind until its first inter-lease window (§3.3's estimator is
  // supposed to inform dispatch, not trail it).
  for (auto& lane : lanes_) BeginWindow(*lane);
}

NdpRuntime::~NdpRuntime() = default;

LeaseController& NdpRuntime::controller(uint32_t channel) {
  NDP_CHECK(channel < controllers_.size());
  return *controllers_[channel];
}

uint32_t NdpRuntime::lanes_alive() const {
  uint32_t n = 0;
  for (const auto& lane : lanes_) {
    if (lane->state != Lane::State::kDead) ++n;
  }
  return n;
}

sim::Tick NdpRuntime::BusCyclesToPs(uint64_t cycles) const {
  return cycles * array_->timing().tck_ps;
}

double NdpRuntime::ReadChannelBusyCycles(uint32_t channel) const {
  const StatsRegistry& reg = array_->stats();
  return reg.ReadValue(busy_paths_rc_[channel]) +
         reg.ReadValue(busy_paths_wc_[channel]);
}

double NdpRuntime::ReadChannelRequests(uint32_t channel) const {
  const StatsRegistry& reg = array_->stats();
  return reg.ReadValue(req_paths_rd_[channel]) +
         reg.ReadValue(req_paths_wr_[channel]);
}

// -- Submission ---------------------------------------------------------------

Result<NdpRuntime::JobId> NdpRuntime::SubmitSelect(const PlacedColumn& col,
                                                   int64_t lo, int64_t hi,
                                                   JobPriority priority,
                                                   JobCallback on_done) {
  SubmitOptions opts;
  opts.priority = priority;
  opts.on_done = std::move(on_done);
  return Submit(col, JobKind::kSelect, lo, hi, jafar::AggKind::kSum,
                std::move(opts), /*burst=*/false);
}

Result<std::vector<NdpRuntime::JobId>> NdpRuntime::SubmitSelectBurst(
    std::vector<BurstSelect> burst) {
  std::vector<JobId> ids;
  ids.reserve(burst.size());
  for (BurstSelect& b : burst) {
    NDP_CHECK(b.col != nullptr);
    NDP_ASSIGN_OR_RETURN(
        JobId id, Submit(*b.col, JobKind::kSelect, b.lo, b.hi,
                         jafar::AggKind::kSum, std::move(b.opts),
                         /*burst=*/true));
    ids.push_back(id);
  }
  // One wake-up for the whole burst: every chunk of every request is queued
  // (priority, seq)-ordered before any lane picks its next lease.
  for (auto& lane : lanes_) Poke(*lane);
  return ids;
}

Result<NdpRuntime::JobId> NdpRuntime::SubmitAggregate(const PlacedColumn& col,
                                                      jafar::AggKind kind,
                                                      JobPriority priority,
                                                      JobCallback on_done) {
  SubmitOptions opts;
  opts.priority = priority;
  opts.on_done = std::move(on_done);
  return Submit(col, JobKind::kAggregate, 0, 0, kind, std::move(opts),
                /*burst=*/false);
}

Result<NdpRuntime::JobId> NdpRuntime::SubmitProbe(
    const PlacedColumn& col, std::vector<uint64_t> filter_image,
    JobPriority priority, JobCallback on_done) {
  if (filter_image.empty() ||
      (filter_image.size() & (filter_image.size() - 1)) != 0) {
    return Status::InvalidArgument(
        "runtime: probe filter image must be a nonzero power-of-two size");
  }
  SubmitOptions opts;
  opts.priority = priority;
  opts.on_done = std::move(on_done);
  return Submit(col, JobKind::kProbe, 0, 0, jafar::AggKind::kSum,
                std::move(opts), /*burst=*/false, /*vals=*/nullptr,
                std::move(filter_image));
}

Result<NdpRuntime::JobId> NdpRuntime::SubmitGroupBy(const PlacedColumn& keys,
                                                    const PlacedColumn& vals,
                                                    jafar::AggKind kind,
                                                    JobPriority priority,
                                                    JobCallback on_done) {
  if (keys.total_rows != vals.total_rows ||
      keys.parts.size() != vals.parts.size()) {
    return Status::InvalidArgument(
        "runtime: group-by key and value columns must be placed alike");
  }
  for (size_t i = 0; i < keys.parts.size(); ++i) {
    if (keys.parts[i].device != vals.parts[i].device ||
        keys.parts[i].rows != vals.parts[i].rows) {
      return Status::InvalidArgument(
          "runtime: group-by key and value splits disagree");
    }
  }
  SubmitOptions opts;
  opts.priority = priority;
  opts.on_done = std::move(on_done);
  return Submit(keys, JobKind::kGroupBy, 0, 0, kind, std::move(opts),
                /*burst=*/false, &vals);
}

Result<NdpRuntime::JobId> NdpRuntime::Submit(const PlacedColumn& col,
                                             JobKind kind, int64_t lo,
                                             int64_t hi, jafar::AggKind agg,
                                             SubmitOptions opts, bool burst,
                                             const PlacedColumn* vals,
                                             std::vector<uint64_t> filter_image) {
  if (col.total_rows == 0) {
    return Status::InvalidArgument("runtime: cannot submit an empty column");
  }
  if (lanes_alive() == 0) {
    return Status::FailedPrecondition("runtime: no healthy device lanes");
  }
  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->kind = kind;
  job->priority = opts.priority;
  job->lo = lo;
  job->hi = hi;
  job->agg = agg;
  if (kind == JobKind::kAggregate) job->agg_value = jafar::AggIdentity(agg);
  job->total_rows = col.total_rows;
  if (KindHasBitmap(kind)) job->bitmap.Resize(col.total_rows);
  if (kind == JobKind::kProbe) {
    job->filter_words = filter_image.size();
    job->filter_image = std::move(filter_image);
  }
  job->submitted_ps = eq_.Now();
  job->deadline_ps = opts.deadline_ps;
  job->on_done = std::move(opts.on_done);
  job->burst = burst;
  const JobId id = job->id;
  Job* j = job.get();
  jobs_[id] = std::move(job);
  ++counters_.jobs_submitted;
  ++active_jobs_;

  for (size_t pi = 0; pi < col.parts.size(); ++pi) {
    const DevicePlacement& part = col.parts[pi];
    if (part.rows == 0) continue;
    uint64_t val_base = vals != nullptr ? vals->parts[pi].col_base : 0;
    Lane& lane = *lanes_[part.device];
    if (lane.state == Lane::State::kDead) {
      // The placement's home device already failed: route to the least
      // loaded healthy lane through the reassignment copy path.
      Reassign(*j, j->priority, part.col_base, val_base, part.first_row,
               part.rows, Status::Internal("runtime: all device lanes failed"));
      // A failure may have retired the job already (no chunk left alive).
      if (!jobs_.contains(id) || j->failed) return id;
      continue;
    }
    // Insert without poking: waking lanes mid-loop would let early-poked idle
    // lanes steal from the first part before their own parts even arrive.
    InsertChunk(lane, NewChunk(*j, j->priority, part.col_base, part.out_base,
                               val_base, part.first_row, part.rows));
  }
  // Wake everyone only once the whole submission is in place; chunk-less
  // lanes immediately volunteer as steal targets for it. Burst admission
  // defers even this to the end of the burst.
  if (!burst) {
    for (auto& lane : lanes_) Poke(*lane);
  }
  return id;
}

Result<PlacedColumn*> NdpRuntime::EnsurePlaced(const db::Column& col) {
  // The entry holds the buffer it placed, so a column at this address that
  // holds another buffer (built at a recycled address, or written since and
  // so detached) cannot be mistaken for it: it is placed afresh.
  auto it = placed_.find(&col);
  if (it != placed_.end() && it->second.buffer.get() == &col.values()) {
    return &it->second.placed;
  }
  NDP_ASSIGN_OR_RETURN(PlacedColumn placed, array_->PlaceColumn(col));
  ColumnPlacement& entry = placed_[&col];
  entry = {col.buffer(), std::move(placed)};
  return &entry.placed;
}

// -- Queue / dispatch ---------------------------------------------------------

void NdpRuntime::InsertChunk(Lane& lane, std::unique_ptr<Chunk> chunk) {
  auto pos = std::find_if(
      lane.queue.begin(), lane.queue.end(),
      [&](const std::unique_ptr<Chunk>& c) {
        return std::make_pair(c->priority, c->seq) >
               std::make_pair(chunk->priority, chunk->seq);
      });
  lane.queue.insert(pos, std::move(chunk));
}

void NdpRuntime::EnqueueChunk(Lane& lane, std::unique_ptr<Chunk> chunk) {
  InsertChunk(lane, std::move(chunk));
  Poke(lane);
  // New backlog is a steal opportunity: idle siblings (their own queues
  // drained) would otherwise park forever, since nothing else re-pokes them.
  for (auto& other : lanes_) {
    if (other.get() != &lane) Poke(*other);
  }
}

void NdpRuntime::Poke(Lane& lane) {
  if (lane.state == Lane::State::kIdle && !lane.sampling_inflight) {
    MaybeDispatch(lane);
  }
}

void NdpRuntime::MaybeDispatch(Lane& lane) {
  if (lane.state != Lane::State::kIdle || lane.sampling_inflight) return;
  // Refresh the utilization estimate if the lane has been idle long enough to
  // have accumulated a meaningful window (e.g. first dispatch after a stretch
  // of host-only traffic). Freshly observed windows (OnWindowEnd) are not
  // re-sampled: the elapsed time since is below the minimum window.
  if (lane.has_window &&
      eq_.Now() - lane.window_start_ps >=
          BusCyclesToPs(kHostWindowMinBusCycles)) {
    const uint32_t d = lane.device;
    ObserveWindowThen(lane, [this, d] { DispatchNow(*lanes_[d]); });
    return;
  }
  DispatchNow(lane);
}

void NdpRuntime::DispatchNow(Lane& lane) {
  if (lane.state != Lane::State::kIdle) return;
  // Drop chunks of jobs that already failed (lane deaths purge queues, but a
  // failure can race an in-flight lease of a sibling chunk), and cancel jobs
  // whose deadline passed while they queued — the chunk boundary is the
  // cancellation point, so an expired job never starts another lease.
  while (!lane.queue.empty()) {
    Job* front_job = lane.queue.front()->job;
    if (front_job->failed) {
      lane.queue.pop_front();
      EndChunk(*front_job);
      continue;
    }
    if (CancelIfExpired(*front_job)) continue;  // FailJob purged the queues
    break;
  }
  if (lane.queue.empty()) {
    TrySteal(lane);
    return;
  }
  LeaseController& lc = *controllers_[lane.channel];
  const Chunk& front = *lane.queue.front();
  if (front.priority == JobPriority::kBatch && lc.OverBudget() &&
      lane.defers < kAdmissionMaxDefers) {
    // Idle-aware admission: hold background work while the channel runs
    // hotter than the QoS budget, but never indefinitely (defer cap).
    ++lane.defers;
    ++counters_.admission_defers;
    lane.state = Lane::State::kDeferred;
    const uint32_t d = lane.device;
    eq_.ScheduleAfter(BusCyclesToPs(kAdmissionDeferBusCycles),
                      [this, d] {
                        Lane& l = *lanes_[d];
                        if (l.state != Lane::State::kDeferred) return;
                        l.state = Lane::State::kIdle;
                        ObserveWindowThen(
                            l, [this, d] { MaybeDispatch(*lanes_[d]); });
                      });
    return;
  }
  lane.defers = 0;
  StartLease(lane);
}

void NdpRuntime::StartLease(Lane& lane) {
  lane.active = std::move(lane.queue.front());
  lane.queue.pop_front();
  LeaseController& lc = *controllers_[lane.channel];
  lane.cur_lease_cycles = lc.NextLeaseBusCycles();
  uint64_t rows_per_lease = RowsPerLeaseCycles(
      array_->timing(), array_->device_config(), lane.cur_lease_cycles);
  lane.cur_lease_rows =
      std::min(rows_per_lease, lane.active->rows - lane.active->rows_done);
  lane.active->rows_leased = lane.active->rows_done + lane.cur_lease_rows;
  lane.state = Lane::State::kLeasing;
  lane.lease_start_ps = eq_.Now();
  lane.gb_host_seam = false;
  ++counters_.leases;
  ++lane.active->job->leases;
  const uint32_t d = lane.device;
  // The driver lives on the device's channel partition: the acquire request
  // travels out through the port and its grant travels back, one lookahead
  // hop each way (both immediate in single-wheel mode).
  array_->PostToDevice(d, [this, d] {
    lanes_[d]->driver->AcquireOwnership([this, d](sim::Tick) {
      array_->PostToHost(d, [this, d] { OnOwnershipAcquired(*lanes_[d]); });
    });
  });
}

void NdpRuntime::OnOwnershipAcquired(Lane& lane) {
  // Lease parameters are computed host-side; only the descriptor crosses to
  // the channel partition, and only the Completion's status and match count
  // cross back.
  Chunk& c = *lane.active;
  const uint64_t col_addr = c.col_base + c.rows_done * 8;
  const uint64_t out_addr = c.out_base + c.rows_done / 8;
  jafar::JobDescriptor job;
  switch (c.job->kind) {
    case JobKind::kSelect: {
      jafar::SelectJob sel;
      sel.col_base = col_addr;
      sel.num_rows = lane.cur_lease_rows;
      sel.range_low = c.job->lo;
      sel.range_high = c.job->hi;
      sel.out_base = out_addr;
      job = sel;
      break;
    }
    case JobKind::kProbe: {
      Result<uint64_t> filter = EnsureProbeFilter(lane, *c.job);
      if (!filter.ok()) {
        OnLeaseDone(lane, filter.status(), 0);
        return;
      }
      jafar::ProbeJob probe;
      probe.col_base = col_addr;
      probe.num_rows = lane.cur_lease_rows;
      probe.out_base = out_addr;
      probe.filter_base = filter.value();
      probe.filter_words = c.job->filter_words;
      job = probe;
      break;
    }
    case JobKind::kGroupBy: {
      // Bucket-window lease shaping (DESIGN.md §12): the device aggregates
      // keys in [key_offset, key_offset + buckets) and silently skips the
      // rest, so exactness requires every dispatched row's key to land in
      // the window. Scan forward from the resume point (host-side, against
      // the backing store — standing in for the zone-map key ranges a real
      // planner keeps) and shrink the lease to the maximal in-window prefix.
      // Clustered keys (TPC-H lineitem by orderkey) keep whole leases;
      // adversarial keys degrade to shorter leases, never to wrong answers.
      const uint32_t buckets = array_->device_config().groupby_buckets;
      auto& store = array_->dram().backing_store();
      int64_t k0 = static_cast<int64_t>(store.Read64(col_addr));
      uint64_t window = 1;
      while (window < lane.cur_lease_rows) {
        int64_t k = static_cast<int64_t>(store.Read64(col_addr + window * 8));
        if (k < k0 || k - k0 >= static_cast<int64_t>(buckets)) break;
        ++window;
      }
      uint64_t aligned = window & ~uint64_t{7};
      if (aligned == 0) {
        // Ragged seam: fewer than one 64 B burst of rows before the keys
        // leave the window, which the engine's alignment rule cannot
        // express. Fold a whole burst (or the chunk tail) host-side — a full
        // 8 rows, not just the window, so the resume point stays 64 B
        // aligned — and complete the lease without a device job.
        uint64_t seam = std::min<uint64_t>(8, lane.cur_lease_rows);
        for (uint64_t r = 0; r < seam; ++r) {
          int64_t key = static_cast<int64_t>(store.Read64(col_addr + r * 8));
          int64_t val = static_cast<int64_t>(
              store.Read64(c.val_base + (c.rows_done + r) * 8));
          MergeGroup(*c.job, key,
                     c.job->agg == jafar::AggKind::kCount ? 1 : val, 1);
        }
        lane.cur_lease_rows = seam;
        c.rows_leased = c.rows_done + seam;
        lane.gb_host_seam = true;
        OnLeaseDone(lane, Status::OK(), 0);
        return;
      }
      lane.cur_lease_rows = aligned;
      c.rows_leased = c.rows_done + aligned;
      lane.gb_key_offset = k0;
      if (lane.gb_scratch == 0) {
        Result<uint64_t> scratch =
            array_->AllocOnDevice(lane.device, uint64_t{buckets} * 16, 64);
        if (!scratch.ok()) {
          OnLeaseDone(lane, scratch.status(), 0);
          return;
        }
        lane.gb_scratch = scratch.value();
      }
      jafar::GroupByJob gb;
      gb.key_base = col_addr;
      gb.val_base = c.val_base + c.rows_done * 8;
      gb.num_rows = lane.cur_lease_rows;
      gb.kind = c.job->agg;
      gb.key_offset = k0;
      gb.out_base = lane.gb_scratch;
      job = gb;
      break;
    }
    case JobKind::kAggregate: {
      if (lane.agg_scratch == 0) {
        Result<uint64_t> scratch = array_->AllocOnDevice(lane.device, 64, 64);
        if (!scratch.ok()) {
          OnLeaseDone(lane, scratch.status(), 0);
          return;
        }
        lane.agg_scratch = scratch.value();
      }
      jafar::AggregateJob agg;
      agg.col_base = col_addr;
      agg.num_rows = lane.cur_lease_rows;
      agg.kind = c.job->agg;
      agg.out_addr = lane.agg_scratch;
      job = agg;
      break;
    }
  }
  const uint32_t d = lane.device;
  array_->PostToDevice(d, [this, d, job] {
    Status st = lanes_[d]->driver->Submit(
        job, [this, d](const jafar::Completion& done) {
          Status s = done.status;
          uint64_t n = done.matches;
          array_->PostToHost(
              d, [this, d, s, n] { OnLeaseDone(*lanes_[d], s, n); });
        });
    // The lane runs one lease at a time, so the driver is never busy here;
    // a refusal is a wiring bug, not a device fault.
    NDP_CHECK_MSG(st.ok(), st.message().c_str());
  });
}

void NdpRuntime::OnLeaseDone(Lane& lane, const Status& status,
                             uint64_t lease_matches) {
  if (!status.ok()) {
    HandleLaneFailure(lane, status);
    return;
  }
  Chunk& c = *lane.active;
  Job& job = *c.job;
  if (!job.failed) {
    if (KindHasBitmap(job.kind)) {
      job.matches += lease_matches;
      // Fold the lease's bits now: the next lease on this lane may be
      // another job's over the same placement, which overwrites the region.
      // Leases start on whole pages, so the fold starts on a bitmap word.
      array_->ReadBitmap(c.out_base + c.rows_done / 8,
                         c.first_row + c.rows_done, lane.cur_lease_rows,
                         &job.bitmap);
    } else if (job.kind == JobKind::kGroupBy) {
      if (!lane.gb_host_seam) {
        // Fold the device's bucket dump: count == 0 marks an untouched
        // bucket (its aggregate word is the kind's fold identity, never a
        // real group), so only touched buckets enter the result map.
        auto& store = array_->dram().backing_store();
        const uint32_t buckets = array_->device_config().groupby_buckets;
        for (uint32_t b = 0; b < buckets; ++b) {
          int64_t count = static_cast<int64_t>(
              store.Read64(lane.gb_scratch + uint64_t{b} * 16 + 8));
          if (count == 0) continue;
          int64_t agg = static_cast<int64_t>(
              store.Read64(lane.gb_scratch + uint64_t{b} * 16));
          MergeGroup(job, lane.gb_key_offset + b, agg, count);
        }
      }
    } else {
      int64_t partial = static_cast<int64_t>(
          array_->dram().backing_store().Read64(lane.agg_scratch));
      job.agg_value = jafar::AggMerge(job.agg, job.agg_value, partial);
    }
    c.rows_done += lane.cur_lease_rows;
    job.rows_completed += lane.cur_lease_rows;
  }
  // Progress-rate EWMA, the heavy-hitter detector's input. Host-folded seam
  // leases are skipped: their handful of rows at ownership-round-trip cost
  // would poison the rate with a meaningless outlier.
  if (lane.cur_lease_rows > 0 && !lane.gb_host_seam) {
    double ps_per_row =
        static_cast<double>(eq_.Now() - lane.lease_start_ps) /
        static_cast<double>(lane.cur_lease_rows);
    lane.ewma_ps_per_row =
        lane.rate_leases == 0
            ? ps_per_row
            : kEwmaAlpha * ps_per_row +
                  (1.0 - kEwmaAlpha) * lane.ewma_ps_per_row;
    ++lane.rate_leases;
    UpdateHeavyHitters();
  }
  const uint32_t d = lane.device;
  array_->PostToDevice(d, [this, d] {
    lanes_[d]->driver->ReleaseOwnership([this, d](sim::Tick) {
      array_->PostToHost(d, [this, d] { OnOwnershipReleased(*lanes_[d]); });
    });
  });
}

void NdpRuntime::OnOwnershipReleased(Lane& lane) {
  BeginWindow(lane);
  Chunk& c = *lane.active;
  if (c.job->failed || c.rows_done == c.rows) {
    EndChunk(*c.job);
  } else {
    // Partially processed chunk goes back to the front of the queue (it has
    // the lowest seq of its priority class by construction).
    EnqueueChunk(lane, std::move(lane.active));
  }
  lane.active.reset();
  LeaseController& lc = *controllers_[lane.channel];
  uint64_t window = lc.HostWindowBusCycles(lane.cur_lease_cycles);
  lane.state = Lane::State::kWaiting;
  const uint32_t d = lane.device;
  eq_.ScheduleAfter(BusCyclesToPs(window),
                    [this, d] { OnWindowEnd(*lanes_[d]); });
}

void NdpRuntime::OnWindowEnd(Lane& lane) {
  if (lane.state != Lane::State::kWaiting) return;  // lane died meanwhile
  lane.state = Lane::State::kIdle;
  const uint32_t d = lane.device;
  ObserveWindowThen(lane, [this, d] { MaybeDispatch(*lanes_[d]); });
}

void NdpRuntime::BeginWindow(Lane& lane) {
  lane.has_window = true;
  lane.sampling_inflight = true;
  const uint32_t d = lane.device;
  SampleChannel(lane, [this, d](double busy, double reqs) {
    Lane& l = *lanes_[d];
    l.sampling_inflight = false;
    l.window_start_ps = eq_.Now();
    l.busy_base = busy;
    l.req_base = reqs;
    // A submission may have been poked away while the sample was in flight
    // (Poke skips sampling lanes); catch it up now. In single-wheel mode the
    // sample is synchronous, so this fires with nothing queued and the
    // dispatch path no-ops — same behavior as before the port round-trip.
    if (l.state == Lane::State::kIdle) MaybeDispatch(l);
  });
}

void NdpRuntime::SampleChannel(Lane& lane,
                               std::function<void(double, double)> k) {
  uint32_t ch = lane.channel;
  uint32_t dev = lane.device;
  array_->PostToDevice(dev, [this, ch, dev, k = std::move(k)] {
    double busy = ReadChannelBusyCycles(ch);
    double reqs = ReadChannelRequests(ch);
    array_->PostToHost(dev, [k, busy, reqs] { k(busy, reqs); });
  });
}

void NdpRuntime::ObserveWindowThen(Lane& lane, std::function<void()> k) {
  if (!lane.has_window || lane.sampling_inflight) {
    // Either no window to observe or a sample round-trip is already pending
    // (which will refresh the bases itself): skip, but keep the continuation
    // — deterministically, in every mode.
    k();
    return;
  }
  lane.sampling_inflight = true;
  const uint32_t d = lane.device;
  SampleChannel(lane, [this, d, k = std::move(k)](double busy, double reqs) {
    Lane& l = *lanes_[d];
    l.sampling_inflight = false;
    sim::Tick now = eq_.Now();
    uint64_t window_cycles =
        (now - l.window_start_ps) / array_->timing().tck_ps;
    if (window_cycles > 0) {
      uint64_t busy_cycles =
          static_cast<uint64_t>(std::max(0.0, busy - l.busy_base));
      uint64_t requests =
          static_cast<uint64_t>(std::max(0.0, reqs - l.req_base));
      controllers_[l.channel]->Observe(window_cycles,
                                      std::min(busy_cycles, window_cycles),
                                      requests);
    }
    l.window_start_ps = now;
    l.busy_base = busy;
    l.req_base = reqs;
    k();
  });
}

// -- Completion ---------------------------------------------------------------

std::unique_ptr<NdpRuntime::Chunk> NdpRuntime::NewChunk(
    Job& job, JobPriority priority, uint64_t col_base, uint64_t out_base,
    uint64_t val_base, uint64_t first_row, uint64_t rows) {
  ++job.chunks_live;
  return std::make_unique<Chunk>(&job, next_chunk_seq_++, priority, col_base,
                                 out_base, val_base, first_row, rows);
}

void NdpRuntime::EndChunk(Job& job) {
  NDP_CHECK(job.chunks_live > 0);
  if (--job.chunks_live > 0) return;
  if (job.finished) {
    // A failed job's last in-flight lease came back: nothing refers to the
    // job any more, so it retires.
    jobs_.erase(job.id);
    return;
  }
  if (job.failed) return;  // FailJob is purging; its FinishJob retires it
  // The last chunk ended: every row was counted and folded exactly once.
  NDP_CHECK(job.rows_completed == job.total_rows);
  // Never silently complete late: a job whose last lease landed past the
  // deadline reports DeadlineExceeded, not a stale success.
  if (CancelIfExpired(job)) return;
  FinishJob(job, Status::OK());
}

bool NdpRuntime::CancelIfExpired(Job& job) {
  if (job.failed || job.deadline_ps == 0 || eq_.Now() <= job.deadline_ps) {
    return false;
  }
  ++counters_.deadline_cancellations;
  FailJob(job, Status::DeadlineExceeded(
                   "runtime: job cancelled at chunk boundary past deadline"));
  return true;
}

void NdpRuntime::FinishJob(Job& job, const Status& status) {
  JobResult result;
  result.job_id = job.id;
  result.kind = job.kind;
  result.status = status;
  result.submitted_ps = job.submitted_ps;
  result.completed_ps = eq_.Now();
  result.leases = job.leases;
  if (status.ok()) {
    result.matches = job.matches;
    result.agg_value = job.agg_value;
    if (KindHasBitmap(job.kind)) result.bitmap = std::move(job.bitmap);
    if (job.kind == JobKind::kGroupBy) result.groups = std::move(job.groups);
    ++counters_.jobs_completed;
  } else {
    ++counters_.jobs_failed;
  }
  --active_jobs_;
  job.finished = true;
  JobCallback cb = std::move(job.on_done);
  if (job.burst) {
    if (cb) cb(result);
  } else {
    auto [it, inserted] = results_.emplace(job.id, std::move(result));
    NDP_CHECK(inserted);
    if (cb) cb(it->second);
  }
  // Retire now unless a failed job still has a lease in flight; that
  // lease's EndChunk retires it.
  if (job.chunks_live == 0) jobs_.erase(job.id);
}

void NdpRuntime::FailJob(Job& job, const Status& status) {
  if (job.failed) return;
  job.failed = true;
  // Purge the job's queued chunks everywhere; in-flight sibling leases see
  // job.failed when they come back and end their chunk then.
  for (auto& lane : lanes_) {
    auto& q = lane->queue;
    q.erase(std::remove_if(q.begin(), q.end(),
                           [&](const std::unique_ptr<Chunk>& c) {
                             if (c->job != &job) return false;
                             EndChunk(job);
                             return true;
                           }),
            q.end());
  }
  FinishJob(job, status);
}

// -- Probe / group-by helpers -------------------------------------------------

Result<uint64_t> NdpRuntime::EnsureProbeFilter(Lane& lane, Job& job) {
  auto it = job.filter_base_by_device.find(lane.device);
  if (it != job.filter_base_by_device.end()) return it->second;
  NDP_ASSIGN_OR_RETURN(
      uint64_t base,
      array_->AllocOnDevice(lane.device, job.filter_words * 8, 4096));
  // Functional-only image write, like the steal copy: the modeled cost is
  // the device's timed filter-load read stream at every probe lease (and the
  // extra transplant bursts when a steal carries the image along).
  auto& store = array_->dram().backing_store();
  for (uint64_t w = 0; w < job.filter_words; ++w) {
    store.Write64(base + w * 8, job.filter_image[w]);
  }
  job.filter_base_by_device.emplace(lane.device, base);
  return base;
}

void NdpRuntime::MergeGroup(Job& job, int64_t key, int64_t agg,
                            int64_t count) {
  auto [it, fresh] = job.groups.try_emplace(key, agg, count);
  if (fresh) return;
  it->second.first = jafar::AggMerge(job.agg, it->second.first, agg);
  it->second.second += count;
}

// -- Heavy-hitter detection ----------------------------------------------------

double NdpRuntime::EtaScore(const Lane& lane) const {
  uint64_t rows = StealableRows(lane);
  if (rows == 0) return 0.0;
  double rate;
  if (lane.rate_leases >= kHeavyHitterMinLeases) {
    rate = lane.ewma_ps_per_row;
  } else {
    // No trustworthy rate of its own yet: borrow the mean of trusted
    // siblings so a cold lane is neither invisible nor dominant, and fall
    // back to a neutral constant before anyone has finished a lease.
    double sum = 0.0;
    uint32_t n = 0;
    for (const auto& l : lanes_) {
      if (l->state == Lane::State::kDead) continue;
      if (l->rate_leases >= kHeavyHitterMinLeases) {
        sum += l->ewma_ps_per_row;
        ++n;
      }
    }
    rate = n > 0 ? sum / n : 1.0;
  }
  return static_cast<double>(rows) * rate;
}

void NdpRuntime::UpdateHeavyHitters() {
  if (!config_.steal_enabled) return;
  double sum = 0.0;
  uint32_t busy = 0;
  for (const auto& lane : lanes_) {
    if (lane->state == Lane::State::kDead) continue;
    double eta = EtaScore(*lane);
    if (eta > 0.0) {
      sum += eta;
      ++busy;
    }
  }
  if (busy < 2) return;  // nothing to compare against (or nobody to steal)
  double mean = sum / busy;
  bool flagged_new = false;
  for (auto& lane : lanes_) {
    if (lane->state == Lane::State::kDead) continue;
    bool hot = lane->rate_leases >= kHeavyHitterMinLeases &&
               EtaScore(*lane) > kHeavyHitterThreshold * mean;
    if (hot && !lane->hh_flagged) {
      ++counters_.hh_flags;
      flagged_new = true;
    }
    lane->hh_flagged = hot;
  }
  // A fresh heavy hitter is a steal opportunity right now: wake idle
  // siblings instead of leaving them parked until their next natural poke.
  if (flagged_new) {
    for (auto& lane : lanes_) Poke(*lane);
  }
}

// -- Work stealing / lane failure --------------------------------------------

uint64_t NdpRuntime::StealableRows(const Lane& lane) const {
  if (lane.state == Lane::State::kDead) return 0;
  uint64_t rows = 0;
  if (lane.active) rows += lane.active->rows - lane.active->rows_leased;
  for (const auto& c : lane.queue) rows += c->rows - c->rows_done;
  return rows;
}

NdpRuntime::Lane* NdpRuntime::LeastLoadedLiveLane() const {
  Lane* best = nullptr;
  for (const auto& cand : lanes_) {
    if (cand->state == Lane::State::kDead) continue;
    // Strict <: the first of equally loaded lanes wins.
    if (best == nullptr || StealableRows(*cand) < StealableRows(*best)) {
      best = cand.get();
    }
  }
  return best;
}

void NdpRuntime::TrySteal(Lane& thief) {
  if (!config_.steal_enabled || thief.state != Lane::State::kIdle) return;
  // Victim selection by ETA (rows x observed ps/row), the skew-aware choice:
  // a heavy-hitter lane with few rows of expensive keys outranks a fast lane
  // with more rows. The classic most-rows victim is tracked only so the
  // divergence is visible in the eta_steals counter.
  Lane* rows_victim = nullptr;
  uint64_t max_rows = 0;
  Lane* victim = nullptr;
  double max_eta = 0.0;
  uint64_t victim_rows = 0;
  for (auto& cand : lanes_) {
    if (cand.get() == &thief) continue;
    uint64_t rows = StealableRows(*cand);
    if (rows > max_rows) {
      rows_victim = cand.get();
      max_rows = rows;
    }
    double eta = EtaScore(*cand);
    if (eta > max_eta) {
      victim = cand.get();
      max_eta = eta;
      victim_rows = rows;
    }
  }
  if (victim == nullptr) return;
  if (victim != rows_victim) ++counters_.eta_steals;
  // Steal from the tail of the victim's backlog: its newest queued chunk, or
  // the un-dispatched tail of its active chunk.
  Chunk* source = nullptr;
  uint64_t reserved = 0;  ///< rows of `source` the victim must keep
  if (!victim->queue.empty()) {
    source = victim->queue.back().get();
    reserved = source->rows_done;
  } else if (victim->active) {
    source = victim->active.get();
    reserved = source->rows_leased;
  }
  if (source == nullptr || source->job->failed) return;
  // Quantum-bounded halving: take at most half the backlog, but never more
  // than a quarter-lease of rows per steal. An uncapped half-of-backlog grab
  // lets one thief serialize a giant copy in front of a giant scan while its
  // siblings starve; small quanta keep the copy latency per steal low and
  // re-balance the array several times per lease.
  uint64_t lease_rows =
      RowsPerLeaseCycles(array_->timing(), array_->device_config(),
                         controllers_[thief.channel]->NextLeaseBusCycles());
  uint64_t quantum = std::max<uint64_t>(
      kStealMinPages * kRowsPerPage, lease_rows / 4);
  uint64_t desired =
      std::min({source->rows - reserved, victim_rows / 2, quantum});
  // Keep the victim a page-aligned prefix so both halves' bitmap rows stay
  // word-aligned; the ragged tail (if any) travels with the thief.
  uint64_t keep = std::max(reserved, RoundDownPages(source->rows - desired));
  uint64_t steal_rows = source->rows - keep;
  if (steal_rows < kStealMinPages * kRowsPerPage) return;
  Job& job = *source->job;
  uint64_t src_addr = source->col_base + keep * 8;
  uint64_t val_src_addr =
      job.kind == JobKind::kGroupBy ? source->val_base + keep * 8 : 0;
  uint64_t first_row = source->first_row + keep;
  if (!TransplantRows(thief, job, source->priority, src_addr, val_src_addr,
                      first_row, steal_rows)) {
    return;  // thief rank full — not worth failing anything over
  }
  source->rows = keep;
  ++counters_.steals;
  counters_.stolen_pages += (steal_rows + kRowsPerPage - 1) / kRowsPerPage;
  // A queued chunk whose whole remaining tail was stolen will never run
  // again: end the husk now so it cannot be dispatched as a zero-row lease.
  if (!victim->queue.empty() && victim->queue.back().get() == source &&
      source->rows == source->rows_done) {
    victim->queue.pop_back();
    EndChunk(job);
  }
}

bool NdpRuntime::TransplantRows(Lane& target, Job& job, JobPriority priority,
                                uint64_t src_addr, uint64_t val_src_addr,
                                uint64_t first_row, uint64_t rows) {
  Result<uint64_t> col_base = array_->AllocOnDevice(target.device, rows * 8);
  if (!col_base.ok()) return false;
  Result<uint64_t> out_base = array_->AllocOnDevice(
      target.device, ((rows + 7) / 8 + 4095) & ~uint64_t{4095});
  if (!out_base.ok()) return false;
  uint64_t val_base = 0;
  if (job.kind == JobKind::kGroupBy) {
    // Group-by chunks travel as (key, value) stream pairs.
    Result<uint64_t> v = array_->AllocOnDevice(target.device, rows * 8);
    if (!v.ok()) return false;
    val_base = v.value();
  }
  // Live from creation: the copy latency is part of the chunk's life.
  std::unique_ptr<Chunk> chunk =
      NewChunk(job, priority, col_base.value(), out_base.value(), val_base,
               first_row, rows);
  // Host-mediated DMA: 64 B bursts read from the source rank and written to
  // the target rank through the host. The read and write streams pipeline
  // through the host's buffer (and overlap fully when source and target sit
  // on different channels), so the steady-state rate is one burst per tCCD,
  // plus a fixed software overhead. The copy is functional-only (no DRAM
  // commands), a modeling simplification documented in DESIGN.md §9.
  uint64_t bursts = (rows * 8 + 63) / 64;
  if (job.kind == JobKind::kGroupBy) bursts *= 2;  // key + value streams
  if (job.kind == JobKind::kProbe &&
      job.filter_base_by_device.find(target.device) ==
          job.filter_base_by_device.end()) {
    // The Bloom image rides along when the target has never probed this job
    // (the image itself is laid down by EnsureProbeFilter at dispatch).
    bursts += (job.filter_words * 8 + 63) / 64;
  }
  uint64_t copy_cycles = kStealCopyOverheadBusCycles +
                         bursts * array_->timing().tccd;
  const uint32_t ti = target.device;
  // Shared-pointer hand-off keeps the chunk alive inside the closure.
  std::shared_ptr<Chunk> pending(chunk.release());
  eq_.ScheduleAfter(
      BusCyclesToPs(copy_cycles), [this, ti, pending, src_addr, val_src_addr] {
        std::vector<uint8_t> buf(pending->rows * 8);
        array_->dram().backing_store().Read(src_addr, buf.data(), buf.size());
        array_->dram().backing_store().Write(pending->col_base, buf.data(),
                                             buf.size());
        if (pending->val_base != 0) {
          array_->dram().backing_store().Read(val_src_addr, buf.data(),
                                              buf.size());
          array_->dram().backing_store().Write(pending->val_base, buf.data(),
                                               buf.size());
        }
        Lane& lane = *lanes_[ti];
        auto owned = std::make_unique<Chunk>(*pending);
        if (lane.state == Lane::State::kDead) {
          // The thief died during the copy; bounce the rows once more.
          Lane* next = LeastLoadedLiveLane();
          if (next == nullptr) {
            FailJob(*owned->job,
                    Status::Internal("runtime: all device lanes failed"));
            EndChunk(*owned->job);
            return;
          }
          ++counters_.chunks_reassigned;
          EnqueueChunk(*next, std::move(owned));
          return;
        }
        EnqueueChunk(lane, std::move(owned));
      });
  return true;
}

void NdpRuntime::Reassign(Job& job, JobPriority priority, uint64_t src_addr,
                          uint64_t val_src_addr, uint64_t first_row,
                          uint64_t rows, const Status& no_lane_status) {
  Lane* target = LeastLoadedLiveLane();
  if (target == nullptr) {
    FailJob(job, no_lane_status);
    return;
  }
  if (!TransplantRows(*target, job, priority, src_addr, val_src_addr,
                      first_row, rows)) {
    FailJob(job, Status::ResourceExhausted(
                     "runtime: no space to reassign rows to a live lane"));
    return;
  }
  ++counters_.chunks_reassigned;
}

void NdpRuntime::HandleLaneFailure(Lane& lane, const Status& status) {
  ++counters_.lane_failures;
  lane.state = Lane::State::kDead;
  // Hand the rank back to the host controller so CPU traffic to it drains
  // (the failed device is idle after the driver's abort path).
  const uint32_t dead = lane.device;
  array_->PostToDevice(dead, [this, dead] {
    lanes_[dead]->driver->ReleaseOwnership([](sim::Tick) {});
  });

  // Move the lane's work out first, then re-home each chunk's unfinished
  // rows before ending it, so a live job never sees its chunk count touch
  // zero in between. The failed lease's rows were never counted, and every
  // finished lease already folded its result, so nothing runs twice.
  std::vector<std::unique_ptr<Chunk>> orphans;
  if (lane.active) orphans.push_back(std::move(lane.active));
  for (auto& c : lane.queue) orphans.push_back(std::move(c));
  lane.queue.clear();
  for (const auto& c : orphans) {
    Job& job = *c->job;
    if (!job.failed && c->rows_done < c->rows) {
      uint64_t val_src = job.kind == JobKind::kGroupBy
                             ? c->val_base + c->rows_done * 8
                             : 0;
      Reassign(job, c->priority, c->col_base + c->rows_done * 8, val_src,
               c->first_row + c->rows_done, c->rows - c->rows_done, status);
    }
    EndChunk(job);
  }
}

// -- Waiting / results --------------------------------------------------------

Status NdpRuntime::Drain() {
  if (!array_->RunUntilTrue([this] { return active_jobs_ == 0; })) {
    return Status::Internal("runtime drain stalled: jobs pending, queue dry");
  }
  return Status::OK();
}

Status NdpRuntime::WaitFor(JobId id) {
  if (id == 0 || id >= next_job_id_) {
    return Status::NotFound("runtime: unknown job id");
  }
  // A finished job is retired from jobs_, or about to be once its last
  // in-flight lease ends.
  if (!array_->RunUntilTrue([this, id] {
        auto it = jobs_.find(id);
        return it == jobs_.end() || it->second->finished;
      })) {
    return Status::Internal("runtime wait stalled: job pending, queue dry");
  }
  return Status::OK();
}

const JobResult* NdpRuntime::result(JobId id) const {
  auto it = results_.find(id);
  return it == results_.end() ? nullptr : &it->second;
}

Result<JobResult> NdpRuntime::TakeResult(JobId id) {
  NDP_RETURN_NOT_OK(WaitFor(id));
  auto it = results_.find(id);
  NDP_CHECK(it != results_.end());
  JobResult r = std::move(it->second);
  results_.erase(it);
  NDP_RETURN_NOT_OK(r.status);
  return r;
}

// -- Pushdown hooks -----------------------------------------------------------

db::NdpSelectHook NdpRuntime::MakePushdownHook() {
  return [batch = MakePushdownBatchHook()](
             const db::Column& col,
             const db::Pred& pred) -> Result<db::PositionList> {
    NDP_ASSIGN_OR_RETURN(std::vector<db::PositionList> lists,
                         batch({{&col, pred}}));
    return std::move(lists.front());
  };
}

db::NdpSelectBatchHook NdpRuntime::MakePushdownBatchHook() {
  return [this](const std::vector<std::pair<const db::Column*, db::Pred>>&
                    selects) -> Result<std::vector<db::PositionList>> {
    auto submit = [this](const db::Column& col,
                         const db::Pred& pred) -> Result<JobId> {
      int64_t lo, hi;
      NDP_RETURN_NOT_OK(PredToJafarRange(pred, &lo, &hi));
      NDP_ASSIGN_OR_RETURN(PlacedColumn * placed, EnsurePlaced(col));
      return SubmitSelect(*placed, lo, hi, JobPriority::kInteractive);
    };
    Status st;
    std::vector<JobId> ids;
    ids.reserve(selects.size());
    for (const auto& [col, pred] : selects) {
      Result<JobId> id = submit(*col, pred);
      if (!id.ok()) {
        st = id.status();
        break;
      }
      ids.push_back(id.value());
    }
    // Every submitted id is taken, even after an error, so the hook leaves
    // no result behind in results_.
    std::vector<db::PositionList> lists;
    lists.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      Result<JobResult> r = TakeResult(ids[i]);
      if (!st.ok()) continue;
      if (!r.ok()) {
        st = r.status();
        continue;
      }
      db::PositionList positions = db::BitmapToPositions(r.value().bitmap);
      st = ValidatePushdownResult(positions, selects[i].first->size());
      lists.push_back(std::move(positions));
    }
    NDP_RETURN_NOT_OK(st);
    return lists;
  };
}

db::NdpSemiJoinHook NdpRuntime::MakeSemiJoinHook() {
  return [this](const db::Column& build_col, const db::PositionList& build_pos,
                const db::Column& probe_col,
                const db::PositionList& probe_pos)
             -> Result<db::PositionList> {
    // Host side of the JSPIM-style split: build both the Bloom image (what
    // the device probes) and the exact key set (what refines the device's
    // candidates). Sharing BloomBitIndex with the device functional model is
    // what makes "no false negatives" a structural property, not a hope.
    const uint64_t filter_words = RuntimeConfig::join_filter_kb * 1024 / 8;
    std::vector<uint64_t> image(filter_words, 0);
    std::unordered_set<int64_t> build_keys;
    build_keys.reserve(build_pos.size());
    for (uint32_t p : build_pos) {
      int64_t key = build_col[p];
      if (!build_keys.insert(key).second) continue;
      for (uint32_t h = 0; h < jafar::kProbeHashes; ++h) {
        uint64_t bit =
            jafar::BloomBitIndex(static_cast<uint64_t>(key), h, filter_words);
        image[bit / 64] |= uint64_t{1} << (bit % 64);
      }
    }
    NDP_ASSIGN_OR_RETURN(PlacedColumn * placed, EnsurePlaced(probe_col));
    NDP_ASSIGN_OR_RETURN(JobId id, SubmitProbe(*placed, std::move(image),
                                               JobPriority::kInteractive));
    NDP_ASSIGN_OR_RETURN(JobResult r, TakeResult(id));
    // Refinement: candidates are a superset (Bloom collisions), never a
    // subset — a candidate bit may be spurious, a missing bit is definitive.
    db::PositionList out;
    for (uint32_t p : probe_pos) {
      if (r.bitmap.Get(p) && build_keys.count(probe_col[p]) != 0) {
        out.push_back(p);
      }
    }
    return out;
  };
}

db::NdpGroupByHook NdpRuntime::MakeGroupByHook() {
  return [this](const db::Column& key_col, const db::Column& val_col)
             -> Result<std::map<int64_t, std::pair<int64_t, int64_t>>> {
    if (key_col.size() != val_col.size()) {
      return Status::InvalidArgument(
          "runtime: group-by key/value columns differ in length");
    }
    NDP_ASSIGN_OR_RETURN(PlacedColumn * keys, EnsurePlaced(key_col));
    NDP_ASSIGN_OR_RETURN(PlacedColumn * vals, EnsurePlaced(val_col));
    NDP_ASSIGN_OR_RETURN(
        JobId id, SubmitGroupBy(*keys, *vals, jafar::AggKind::kSum,
                                JobPriority::kInteractive));
    NDP_ASSIGN_OR_RETURN(JobResult r, TakeResult(id));
    return std::move(r.groups);
  };
}

}  // namespace ndp::core
