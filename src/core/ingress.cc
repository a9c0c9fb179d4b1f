#include "core/ingress.h"

#include <algorithm>

#include "util/logging.h"

namespace ndp::core {

namespace {

constexpr sim::Tick kPsPerMs = 1'000'000'000;

}  // namespace

// -- IngressConfig ------------------------------------------------------------

Status IngressConfig::Validate() const {
  if (rings == 0 || slots == 0 || burst == 0 || poll_bus_cycles == 0) {
    return Status::InvalidArgument(
        "ingress config: rings/slots/burst/poll must be positive");
  }
  if (ring_capacity < 2 || (ring_capacity & (ring_capacity - 1)) != 0) {
    return Status::InvalidArgument(
        "ingress config: ring_capacity must be a power of two >= 2");
  }
  if (slots < rings) {
    return Status::InvalidArgument(
        "ingress config: need at least one slot per ring");
  }
  if (retry_tokens < 0.0 || retry_refill_per_ms < 0.0) {
    return Status::InvalidArgument(
        "ingress config: retry budget must be non-negative");
  }
  if (!(shed_threshold > 0.0 && shed_threshold < brownout_threshold &&
        brownout_threshold <= 1.0)) {
    return Status::InvalidArgument(
        "ingress config: need 0 < shed < brownout <= 1");
  }
  if (!(governor_hysteresis >= 0.0 && governor_hysteresis < shed_threshold)) {
    return Status::InvalidArgument(
        "ingress config: hysteresis must be in [0, shed_threshold)");
  }
  if (!(governor_alpha > 0.0 && governor_alpha <= 1.0)) {
    return Status::InvalidArgument(
        "ingress config: governor alpha must be in (0, 1]");
  }
  if (governor_poll_bus_cycles == 0 || brownout_ndp_inflight == 0 ||
      cpu_scan_bus_cycles_per_row == 0) {
    return Status::InvalidArgument(
        "ingress config: governor cadence / brownout bound / cpu cost must "
        "be positive");
  }
  return Status::OK();
}

const char* OverloadStateToString(OverloadState s) {
  switch (s) {
    case OverloadState::kHealthy: return "healthy";
    case OverloadState::kShedLowPriority: return "shed_low_priority";
    case OverloadState::kBrownout: return "brownout";
  }
  return "unknown";
}

// -- ServingIngress -----------------------------------------------------------

ServingIngress::ServingIngress(NdpRuntime* runtime, DimmArray* array,
                               IngressConfig config,
                               std::vector<TenantSpec> tenants)
    : runtime_(runtime),
      array_(array),
      config_(config),
      eq_(array->eq()),
      tenants_(std::move(tenants)) {
  NDP_CHECK(config_.Validate().ok());
  NDP_CHECK(!tenants_.empty());
  pool_.resize(config_.slots);
  free_.reserve(config_.slots);
  // Slot 0 pops first: the freelist is LIFO and filled in reverse.
  for (uint64_t i = config_.slots; i > 0; --i) {
    free_.push_back(static_cast<uint32_t>(i - 1));
  }
  rings_.reserve(config_.rings);
  for (uint64_t r = 0; r < config_.rings; ++r) {
    rings_.emplace_back(static_cast<size_t>(config_.ring_capacity));
  }
  buckets_.resize(tenants_.size());
  for (auto& b : buckets_) b.tokens = config_.retry_tokens;
  occupancy_path_ = "array.ingress.slots_in_use";
  StatsScope scope(array_->mutable_stats(), "array.ingress");
  scope.Counter("accepted", &counters_.accepted);
  scope.Counter("bursts", &counters_.bursts);
  scope.Counter("admitted_interactive", &counters_.admitted_interactive);
  scope.Counter("admitted_batch", &counters_.admitted_batch);
  scope.Counter("completed_ndp", &counters_.completed_ndp);
  scope.Counter("completed_cpu", &counters_.completed_cpu);
  scope.Counter("shed_ring_full", &counters_.shed_ring_full);
  scope.Counter("shed_slots_exhausted", &counters_.shed_slots_exhausted);
  scope.Counter("shed_low_priority", &counters_.shed_low_priority);
  scope.Counter("shed_retry_budget", &counters_.shed_retry_budget);
  scope.Counter("expired_at_admission", &counters_.expired_at_admission);
  scope.Counter("deadline_exceeded", &counters_.deadline_exceeded);
  scope.Counter("failed", &counters_.failed);
  scope.Counter("retries", &counters_.retries);
  scope.Counter("governor_transitions", &counters_.governor_transitions);
  scope.Gauge("slots_in_use", std::function<double()>([this] {
                return static_cast<double>(slots_in_use());
              }));
  scope.Gauge("overload_state", std::function<double()>([this] {
                return static_cast<double>(state_);
              }));
  scope.Gauge("occupancy_ewma",
              std::function<double()>([this] { return occupancy_ewma_; }));
}

ServingIngress::~ServingIngress() = default;

uint32_t ServingIngress::AddTable(const db::Column* col,
                                  const PlacedColumn* placed) {
  NDP_CHECK(col != nullptr && placed != nullptr);
  NDP_CHECK(col->size() > 0 && placed->total_rows == col->size());
  tables_.push_back(Table{col, placed});
  return static_cast<uint32_t>(tables_.size() - 1);
}

namespace {
sim::Tick BusCyclesToPsFor(const DimmArray& array, uint64_t cycles) {
  return cycles * array.timing().tck_ps;
}
}  // namespace

bool ServingIngress::Enqueue(uint32_t ring, const ServingRequest& req,
                             ServeCallback done) {
  NDP_CHECK(ring < rings_.size());
  NDP_CHECK(req.tenant < tenants_.size());
  NDP_CHECK(req.table < tables_.size());
  sim::Tick now = eq_.Now();
  if (req.deadline_ps != 0 && now > req.deadline_ps) {
    FinishShed(done, ServeOutcome::kExpiredAtAdmission);
    return false;
  }
  // The governor's door check: under shed or brownout, batch-priority
  // tenants are rejected before they consume a slot.
  if (state_ != OverloadState::kHealthy &&
      tenants_[req.tenant].priority == JobPriority::kBatch) {
    FinishShed(done, ServeOutcome::kShedLowPriority);
    return false;
  }
  // Slot exhaustion is the first, cheapest shed point (mbuf-pool idiom).
  if (free_.empty()) {
    FinishShed(done, ServeOutcome::kShedSlotsExhausted);
    return false;
  }
  uint32_t slot = free_.back();
  free_.pop_back();
  Slot& s = pool_[slot];
  s.req = req;
  s.done = std::move(done);
  s.accepted_ps = now;
  s.cpu_matches = 0;
  s.retries = 0;
  if (!rings_[ring].TryPush(slot)) {
    ServeCallback cb = std::move(s.done);
    s.done = nullptr;
    free_.push_back(slot);
    FinishShed(cb, ServeOutcome::kShedRingFull);
    return false;
  }
  ++counters_.accepted;
  SchedulePump();
  return true;
}

void ServingIngress::Start() {
  running_ = true;
  SchedulePump();
  ScheduleGovernor();
}

void ServingIngress::Stop() { running_ = false; }

Status ServingIngress::Drain() {
  if (!array_->RunUntilTrue([this] { return slots_in_use() == 0; })) {
    return Status::Internal(
        "ingress drain stalled: requests pending, event queue dry");
  }
  return Status::OK();
}

bool ServingIngress::HasBacklog() const { return slots_in_use() > 0; }

void ServingIngress::SchedulePump() {
  if (pump_scheduled_) return;
  if (!running_ && !HasBacklog()) return;
  pump_scheduled_ = true;
  eq_.ScheduleAfter(BusCyclesToPsFor(*array_, config_.poll_bus_cycles),
                    [this] { Pump(); });
}

void ServingIngress::Pump() {
  pump_scheduled_ = false;
  // Round-robin over the rings, at most `burst` requests each; the whole
  // drain admits as ONE runtime burst (single poke pass).
  std::vector<uint32_t> ndp_batch;  // ndp: bounded-by(IngressConfig::burst)
  ndp_batch.reserve(config_.burst * config_.rings);
  uint64_t drained = 0;
  for (uint64_t i = 0; i < config_.rings; ++i) {
    uint32_t ring = static_cast<uint32_t>((next_ring_ + i) % config_.rings);
    uint32_t slot = 0;
    for (uint64_t n = 0; n < config_.burst && rings_[ring].Pop(&slot); ++n) {
      ++drained;
      Admit(slot, &ndp_batch);
    }
  }
  next_ring_ = static_cast<uint32_t>((next_ring_ + 1) % config_.rings);
  if (drained > 0) ++counters_.bursts;
  if (!ndp_batch.empty()) SubmitNdpBurst(ndp_batch);
  SchedulePump();
}

void ServingIngress::Admit(uint32_t slot, std::vector<uint32_t>* ndp_batch) {
  Slot& s = pool_[slot];
  sim::Tick now = eq_.Now();
  // Deadline re-check at admission: the request may have aged out while it
  // sat in the ring. Dying here is free — no lease was spent on it.
  if (s.req.deadline_ps != 0 && now > s.req.deadline_ps) {
    Finish(slot, ServeOutcome::kExpiredAtAdmission, 0);
    return;
  }
  // The governor may have tightened since the door check.
  if (state_ != OverloadState::kHealthy &&
      tenants_[s.req.tenant].priority == JobPriority::kBatch) {
    Finish(slot, ServeOutcome::kShedLowPriority, 0);
    return;
  }
  // Brownout routes the NDP overflow (and everything, once the array has no
  // healthy lanes) onto the bit-identical CPU fallback.
  bool to_cpu = runtime_->lanes_alive() == 0 ||
                (state_ == OverloadState::kBrownout &&
                 ndp_inflight_ >= config_.brownout_ndp_inflight);
  if (to_cpu) {
    SubmitCpu(slot);
    return;
  }
  ++ndp_inflight_;
  ndp_batch->push_back(slot);
}

SubmitOptions ServingIngress::OptionsFor(uint32_t slot) {
  Slot& s = pool_[slot];
  const TenantSpec& tenant = tenants_[s.req.tenant];
  if (tenant.priority == JobPriority::kInteractive) {
    ++counters_.admitted_interactive;
  } else {
    ++counters_.admitted_batch;
  }
  SubmitOptions opts;
  opts.priority = tenant.priority;
  opts.deadline_ps = s.req.deadline_ps;
  opts.on_done = [this, slot](const JobResult& r) { OnNdpDone(slot, r); };
  return opts;
}

void ServingIngress::SubmitNdpBurst(const std::vector<uint32_t>& slot_ids) {
  // ndp: bounded-by(IngressConfig::burst)
  std::vector<NdpRuntime::BurstSelect> burst;
  burst.reserve(slot_ids.size());
  for (uint32_t slot : slot_ids) {
    Slot& s = pool_[slot];
    NdpRuntime::BurstSelect b;
    b.col = tables_[s.req.table].placed;
    b.lo = s.req.lo;
    b.hi = s.req.hi;
    b.opts = OptionsFor(slot);
    burst.push_back(std::move(b));
  }
  Result<std::vector<NdpRuntime::JobId>> ids =
      runtime_->SubmitSelectBurst(std::move(burst));
  // Admission preconditions (live lanes, non-empty tables) are checked before
  // routing to NDP; a rejection here is a wiring bug, not an overload signal.
  NDP_CHECK_MSG(ids.ok(), ids.status().message().c_str());
}

void ServingIngress::SubmitCpu(uint32_t slot) {
  Slot& s = pool_[slot];
  const Table& t = tables_[s.req.table];
  sim::Tick now = eq_.Now();
  uint64_t rows = t.col->size();
  sim::Tick scan_ps = BusCyclesToPsFor(
      *array_, rows * config_.cpu_scan_bus_cycles_per_row);
  sim::Tick start = std::max(now, cpu_busy_until_ps_);
  sim::Tick done_ps = start + scan_ps;
  if (s.req.deadline_ps != 0 && done_ps > s.req.deadline_ps) {
    // Would finish past the deadline: cancel before burning CPU time on it,
    // so an overloaded fallback sheds cheaply instead of queueing late work.
    Finish(slot, ServeOutcome::kDeadlineExceeded, 0);
    return;
  }
  // Bit-identical fallback: the same inclusive [lo, hi] count the JAFAR
  // select path produces, computed over the host copy of the column.
  uint64_t matches = 0;
  for (int64_t v : t.col->values()) {
    if (v >= s.req.lo && v <= s.req.hi) ++matches;
  }
  s.cpu_matches = matches;
  cpu_busy_until_ps_ = done_ps;
  eq_.ScheduleAfter(done_ps - now, [this, slot] {
    Finish(slot, ServeOutcome::kOkCpuFallback, pool_[slot].cpu_matches);
  });
}

void ServingIngress::OnNdpDone(uint32_t slot, const JobResult& r) {
  NDP_CHECK(ndp_inflight_ > 0);
  --ndp_inflight_;
  Slot& s = pool_[slot];
  if (r.status.ok()) {
    Finish(slot, ServeOutcome::kOk, r.matches);
    return;
  }
  if (r.status.code() == StatusCode::kDeadlineExceeded) {
    Finish(slot, ServeOutcome::kDeadlineExceeded, 0);
    return;
  }
  // Fault path. A retry is only worth a token while the deadline still has
  // room; budget exhaustion sheds instead of spinning on a sick device.
  if (s.req.deadline_ps != 0 && eq_.Now() > s.req.deadline_ps) {
    Finish(slot, ServeOutcome::kDeadlineExceeded, 0);
    return;
  }
  if (!TakeRetryToken(s.req.tenant)) {
    Finish(slot, ServeOutcome::kShedRetryBudget, 0);
    return;
  }
  ++counters_.retries;
  ++s.retries;
  if (runtime_->lanes_alive() == 0) {
    SubmitCpu(slot);
    return;
  }
  ++ndp_inflight_;
  SubmitNdpBurst({slot});
}

bool ServingIngress::TakeRetryToken(uint32_t tenant) {
  TokenBucket& b = buckets_[tenant];
  sim::Tick now = eq_.Now();
  double refill = static_cast<double>(now - b.last_refill_ps) / kPsPerMs *
                  config_.retry_refill_per_ms;
  b.tokens = std::min(config_.retry_tokens, b.tokens + refill);
  b.last_refill_ps = now;
  if (b.tokens < 1.0) return false;
  b.tokens -= 1.0;
  return true;
}

double ServingIngress::retry_tokens(uint32_t t) const {
  const TokenBucket& b = buckets_[t];
  double refill = static_cast<double>(eq_.Now() - b.last_refill_ps) / kPsPerMs *
                  config_.retry_refill_per_ms;
  return std::min(config_.retry_tokens, b.tokens + refill);
}

void ServingIngress::BumpOutcome(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kOk: ++counters_.completed_ndp; break;
    case ServeOutcome::kOkCpuFallback: ++counters_.completed_cpu; break;
    case ServeOutcome::kShedRingFull: ++counters_.shed_ring_full; break;
    case ServeOutcome::kShedSlotsExhausted:
      ++counters_.shed_slots_exhausted;
      break;
    case ServeOutcome::kShedLowPriority: ++counters_.shed_low_priority; break;
    case ServeOutcome::kShedRetryBudget: ++counters_.shed_retry_budget; break;
    case ServeOutcome::kExpiredAtAdmission:
      ++counters_.expired_at_admission;
      break;
    case ServeOutcome::kDeadlineExceeded: ++counters_.deadline_exceeded; break;
    case ServeOutcome::kFailed: ++counters_.failed; break;
  }
}

void ServingIngress::Finish(uint32_t slot, ServeOutcome outcome,
                            uint64_t matches) {
  Slot& s = pool_[slot];
  BumpOutcome(outcome);
  ServingResult res;
  res.outcome = outcome;
  res.matches = matches;
  res.accepted_ps = s.accepted_ps;
  res.completed_ps = eq_.Now();
  ServeCallback done = std::move(s.done);
  s.done = nullptr;
  // Release before the callback: a closed-loop client may immediately
  // Enqueue its next request into the slot we just freed.
  free_.push_back(slot);
  if (done) done(res);
}

void ServingIngress::FinishShed(const ServeCallback& done,
                                ServeOutcome outcome) {
  BumpOutcome(outcome);
  if (done) {
    ServingResult res;
    res.outcome = outcome;
    res.accepted_ps = eq_.Now();
    res.completed_ps = eq_.Now();
    done(res);
  }
}

// -- Overload governor --------------------------------------------------------

void ServingIngress::ScheduleGovernor() {
  if (!config_.governor_enabled || governor_scheduled_) return;
  if (!running_ && !HasBacklog()) return;
  governor_scheduled_ = true;
  eq_.ScheduleAfter(
      BusCyclesToPsFor(*array_, config_.governor_poll_bus_cycles),
      [this] { GovernorTick(); });
}

void ServingIngress::GovernorTick() {
  governor_scheduled_ = false;
  // Driven online from the live stats registry — the same surface every
  // other estimator in this repo reads — not from private shortcuts.
  double occ = array_->stats().ReadValue(occupancy_path_) /
               static_cast<double>(config_.slots);
  occupancy_ewma_ = has_occupancy_
                        ? config_.governor_alpha * occ +
                              (1.0 - config_.governor_alpha) * occupancy_ewma_
                        : occ;
  has_occupancy_ = true;
  double e = occupancy_ewma_;
  double hyst = config_.governor_hysteresis;
  OverloadState next = state_;
  switch (state_) {
    case OverloadState::kHealthy:
      if (e >= config_.brownout_threshold) {
        next = OverloadState::kBrownout;
      } else if (e >= config_.shed_threshold) {
        next = OverloadState::kShedLowPriority;
      }
      break;
    case OverloadState::kShedLowPriority:
      if (e >= config_.brownout_threshold) {
        next = OverloadState::kBrownout;
      } else if (e < config_.shed_threshold - hyst) {
        next = OverloadState::kHealthy;
      }
      break;
    case OverloadState::kBrownout:
      if (e < config_.shed_threshold - hyst) {
        next = OverloadState::kHealthy;
      } else if (e < config_.brownout_threshold - hyst) {
        next = OverloadState::kShedLowPriority;
      }
      break;
  }
  if (next != state_) {
    ++counters_.governor_transitions;
    state_ = next;
  }
  ScheduleGovernor();
}

}  // namespace ndp::core
