#include "core/host_traffic.h"

#include <cmath>

#include "util/logging.h"

namespace ndp::core {

namespace {

/// Fraction of host requests that are writes.
constexpr double kWriteFraction = 0.3;

/// Fleet select predicates are [lo, lo + kSpan - 1] with lo uniform over
/// [kValueLo, kValueHi - kSpan].
constexpr int64_t kValueLo = 0;
constexpr int64_t kValueHi = 1'000'000;
constexpr int64_t kSpan = 50'000;
static_assert(kSpan > 0 && kValueHi - kValueLo >= kSpan,
              "the predicate span must fit the value domain");

}  // namespace

HostTrafficGen::HostTrafficGen(sim::EventQueue* eq,
                               dram::MemoryController* controller,
                               HostTrafficConfig config,
                               const StatsScope& stats)
    : eq_(eq),
      controller_(controller),
      config_(config),
      rng_(config.seed, /*stream=*/0x9e3779b97f4a7c15ULL) {
  NDP_CHECK(config_.reqs_per_us > 0.0);
  if (stats.active()) {
    stats.Counter("issued", &issued_);
    stats.Counter("completed", &completed_);
    stats.Counter("backpressure_retries", &retries_);
    stats.Histogram("latency_ps", &latency_);
  }
}

void HostTrafficGen::AddRegion(uint64_t base, uint64_t bytes) {
  NDP_CHECK(bytes >= 64);
  regions_.push_back(Region{base & ~uint64_t{63}, bytes / 64});
  total_lines_ += bytes / 64;
}

void HostTrafficGen::Start() {
  NDP_CHECK(!regions_.empty());
  running_ = true;
  ScheduleNext();
}

void HostTrafficGen::Stop() { running_ = false; }

void HostTrafficGen::ScheduleNext() {
  if (!running_) return;
  // Exponential inter-arrival with mean 1e6 / reqs_per_us picoseconds.
  double u = rng_.NextDouble();
  double gap_ps = -std::log(1.0 - u) * (1.0e6 / config_.reqs_per_us);
  eq_->ScheduleAfter(static_cast<sim::Tick>(gap_ps) + 1, [this] { Issue(); });
}

void HostTrafficGen::Issue() {
  if (!running_) return;
  // Pick a line uniformly over the pooled regions (size-weighted).
  NDP_DCHECK(total_lines_ < (uint64_t{1} << 32));
  uint64_t line = rng_.NextBounded(static_cast<uint32_t>(total_lines_));
  uint64_t addr = 0;
  for (const Region& r : regions_) {
    if (line < r.lines) {
      addr = r.base + line * 64;
      break;
    }
    line -= r.lines;
  }
  bool is_write = rng_.NextBool(kWriteFraction);
  ++issued_;
  TryEnqueue(addr, is_write, eq_->Now());
  ScheduleNext();
}

void HostTrafficGen::TryEnqueue(uint64_t addr, bool is_write,
                                sim::Tick first_attempt_ps) {
  dram::Request req;
  req.addr = addr;
  req.is_write = is_write;
  req.requester = dram::RequesterId::kCpu;
  req.on_complete = [this, first_attempt_ps](sim::Tick done) {
    ++completed_;
    latency_.Add(static_cast<double>(done - first_attempt_ps));
  };
  Status s = controller_->Enqueue(req);
  if (s.ok()) return;
  NDP_CHECK(s.code() == StatusCode::kResourceExhausted);
  // Queue full: the request waits in the "MSHR" for a freed slot. Latency
  // keeps accruing from the first attempt — backpressure is stall the CPU sees.
  ++retries_;
  controller_->WaitForSpace(is_write, [this, addr, is_write, first_attempt_ps] {
    TryEnqueue(addr, is_write, first_attempt_ps);
  });
}

// -- ClientFleet --------------------------------------------------------------

ClientFleet::ClientFleet(sim::EventQueue* eq, ServingIngress* ingress,
                         FleetConfig config, const StatsScope& stats)
    : eq_(eq), ingress_(ingress), config_(config) {
  NDP_CHECK(config_.reqs_per_us > 0.0);
  size_t n = ingress_->num_tenants();
  NDP_CHECK(n > 0);
  rngs_.reserve(n);
  stats_.resize(n);
  for (uint32_t t = 0; t < n; ++t) {
    // One PCG32 stream per tenant: tenant t's request sequence is invariant
    // to every other tenant's traffic and to the overload response.
    rngs_.emplace_back(config_.seed, /*stream=*/2 * uint64_t{t} + 1);
    open_weight_total_ += ingress_->tenant(t).weight;
    if (stats.active()) {
      StatsScope ts = stats.Sub("tenant" + std::to_string(t));
      ts.Counter("issued", &stats_[t].issued);
      ts.Counter("goodput", &stats_[t].goodput);
      ts.Counter("shed", &stats_[t].shed);
      ts.Counter("late", &stats_[t].late);
      ts.Counter("failed", &stats_[t].failed);
      ts.Counter("mismatches", &stats_[t].mismatches);
      ts.Histogram("latency_ps", &stats_[t].latency);
    }
  }
}

void ClientFleet::Start() {
  running_ = true;
  for (uint32_t t = 0; t < ingress_->num_tenants(); ++t) {
    ScheduleOpenArrival(t);
  }
}

void ClientFleet::Stop() { running_ = false; }

uint64_t ClientFleet::issued() const {
  uint64_t n = 0;
  for (const TenantStats& s : stats_) n += s.issued;
  return n;
}

uint64_t ClientFleet::goodput() const {
  uint64_t n = 0;
  for (const TenantStats& s : stats_) n += s.goodput;
  return n;
}

uint64_t ClientFleet::shed() const {
  uint64_t n = 0;
  for (const TenantStats& s : stats_) n += s.shed;
  return n;
}

uint64_t ClientFleet::mismatches() const {
  uint64_t n = 0;
  for (const TenantStats& s : stats_) n += s.mismatches;
  return n;
}

void ClientFleet::Mix(uint64_t* digest, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *digest ^= (v >> (8 * i)) & 0xff;
    *digest *= 1099511628211ULL;  // FNV-1a prime
  }
}

void ClientFleet::ScheduleOpenArrival(uint32_t tenant) {
  if (!running_) return;
  const TenantSpec& spec = ingress_->tenant(tenant);
  double rate = config_.reqs_per_us * spec.weight / open_weight_total_;
  double u = rngs_[tenant].NextDouble();
  double gap_ps = -std::log(1.0 - u) * (1.0e6 / rate);
  eq_->ScheduleAfter(static_cast<sim::Tick>(gap_ps) + 1, [this, tenant] {
    if (!running_) return;
    IssueOne(tenant);
    ScheduleOpenArrival(tenant);
  });
}

void ClientFleet::IssueOne(uint32_t tenant) {
  Rng& rng = rngs_[tenant];
  const TenantSpec& spec = ingress_->tenant(tenant);
  ServingRequest req;
  req.tenant = tenant;
  req.table = rng.NextBounded(static_cast<uint32_t>(ingress_->num_tables()));
  req.lo = kValueLo + rng.NextInRange(0, kValueHi - kValueLo - kSpan);
  req.hi = req.lo + kSpan - 1;
  req.deadline_ps = spec.deadline_ps == 0 || !config_.propagate_deadlines
                        ? 0
                        : eq_->Now() + spec.deadline_ps;
  uint32_t ring =
      static_cast<uint32_t>(issue_seq_++ % ingress_->config().rings);
  ++stats_[tenant].issued;
  Mix(&issue_digest_, tenant);
  Mix(&issue_digest_, req.table);
  Mix(&issue_digest_, static_cast<uint64_t>(req.lo));
  Mix(&issue_digest_, static_cast<uint64_t>(eq_->Now()));
  ServingRequest oracle_req = req;  // callback outlives `req`
  ingress_->Enqueue(ring, req,
                    [this, tenant, oracle_req](const ServingResult& res) {
                      if (oracle_ && IsGoodput(res.outcome) &&
                          oracle_(oracle_req) != res.matches) {
                        ++stats_[tenant].mismatches;
                      }
                      OnDone(tenant, res);
                    });
}

void ClientFleet::OnDone(uint32_t tenant, const ServingResult& res) {
  TenantStats& ts = stats_[tenant];
  Mix(&outcome_digest_, static_cast<uint64_t>(res.outcome));
  Mix(&outcome_digest_, static_cast<uint64_t>(res.completed_ps));
  switch (res.outcome) {
    case ServeOutcome::kOk:
    case ServeOutcome::kOkCpuFallback: {
      // Client-side SLO judgment: with deadline propagation off (the naive
      // control) the ingress completes everything eventually, but a
      // completion past the tenant SLO is still not goodput.
      const sim::Tick latency = res.completed_ps - res.accepted_ps;
      const sim::Tick slo = ingress_->tenant(tenant).deadline_ps;
      if (slo != 0 && latency > slo) {
        ++ts.late;
        break;
      }
      ++ts.goodput;
      ts.latency.Add(static_cast<double>(latency));
      break;
    }
    case ServeOutcome::kShedRingFull:
    case ServeOutcome::kShedSlotsExhausted:
    case ServeOutcome::kShedLowPriority:
    case ServeOutcome::kShedRetryBudget:
      ++ts.shed;
      break;
    case ServeOutcome::kExpiredAtAdmission:
    case ServeOutcome::kDeadlineExceeded:
      ++ts.late;
      break;
    case ServeOutcome::kFailed:
      ++ts.failed;
      break;
  }
}

}  // namespace ndp::core
