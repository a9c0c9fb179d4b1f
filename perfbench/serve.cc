// `serve`: open-loop serving through the ingress. Two tenants — interactive
// (60% of arrivals, 500 us deadline) and batch (40%, 3 ms) — arrive Poisson
// at each rung of a fixed rate ladder. Each rung runs ServingIngress ->
// NdpRuntime over its own 4-device v1 DimmArray (single wheel) holding a
// 32 Ki-row uniform column, for a fixed simulated window. The benchmark makes
// the arrivals itself and times every request from its due time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/ingress.h"
#include "core/runtime.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ndp;

constexpr uint64_t kRows = 32 * 1024;
constexpr int64_t kValueMax = 1'000'000;  ///< values uniform in [0, 1M)
constexpr int64_t kSpan = 50'000;         ///< predicate width
/// The rate ladder, each rung with its fixed simulated window. Simulation cost
/// grows with device busy time, so windows are sized to what each rung
/// reports. The light rung is cheap and carries the end-to-end latency
/// percentiles, so it gets enough requests for them to be steady across
/// seeds. Near saturation the tail is set by how many requests queue behind
/// the CPU fallback — a step of one 41 us scan — so a knee p99 jumps between
/// steps from seed to seed; the knee and the rungs between feed the per-layer
/// numbers only, and the overload rung the goodput.
struct RungSpec {
  double rate;  ///< requests per us, both tenants
  sim::Tick window_ps;
};
constexpr RungSpec kRungs[] = {
    {0.05, 24'000'000'000}, {0.1, 1'000'000'000}, {0.15, 1'000'000'000},
    {0.2, 2'000'000'000},   {0.3, 1'000'000'000}, {0.4, 2'000'000'000},
};
constexpr size_t kLightRung = 0;     ///< 0.05 req/us
constexpr size_t kKneeRung = 3;      ///< 0.2 req/us
constexpr size_t kOverloadRung = 5;  ///< 0.4 req/us
constexpr sim::Tick kWarmupPs = 20'000'000;
constexpr sim::Tick kSloPs = 500'000'000;  ///< interactive deadline
constexpr sim::Tick kBatchDeadlinePs = 3'000'000'000;
constexpr double kWeights[2] = {0.6, 0.4};
constexpr uint64_t kRings = 2;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The governed policy of the serving ablation: a small slot pool so the
/// occupancy signal reacts within the window, and a brownout NDP bound that
/// keeps admitted sojourn inside the interactive deadline.
core::IngressConfig ServingConfig() {
  core::IngressConfig cfg;
  cfg.rings = kRings;
  cfg.ring_capacity = 256;
  cfg.slots = 128;
  cfg.burst = 16;
  cfg.poll_bus_cycles = 800;
  cfg.retry_tokens = 8.0;
  cfg.retry_refill_per_ms = 4.0;
  cfg.governor_enabled = true;
  cfg.shed_threshold = 0.5;
  cfg.brownout_threshold = 0.8;
  cfg.governor_hysteresis = 0.15;
  cfg.governor_poll_bus_cycles = 2'000;
  cfg.governor_alpha = 0.3;
  cfg.brownout_ndp_inflight = 8;
  cfg.cpu_scan_bus_cycles_per_row = 1;
  NDP_CHECK(cfg.Validate().ok());
  return cfg;
}

std::vector<core::TenantSpec> Tenants() {
  core::TenantSpec interactive;
  interactive.name = "interactive";
  interactive.priority = core::JobPriority::kInteractive;
  interactive.weight = kWeights[0];
  interactive.deadline_ps = kSloPs;
  core::TenantSpec batch;
  batch.name = "batch";
  batch.priority = core::JobPriority::kBatch;
  batch.weight = kWeights[1];
  batch.deadline_ps = kBatchDeadlinePs;
  return {interactive, batch};
}

struct Arrival {
  sim::Tick due = 0;  ///< offset from the rung's start
  uint32_t tenant = 0;
  int64_t lo = 0, hi = 0;
};

struct Record {
  bool finished = false;
  core::ServeOutcome outcome = core::ServeOutcome::kFailed;
  uint64_t matches = 0;
  sim::Tick done_ps = 0;
};

struct Rung {
  double rate = 0;
  sim::Tick window_ps = 0;
  std::vector<Arrival> arrivals;
  std::unique_ptr<core::DimmArray> array;
  std::unique_ptr<core::NdpRuntime> runtime;
  core::PlacedColumn placed;
  std::unique_ptr<core::ServingIngress> ingress;

  // Measured-phase state.
  sim::Tick start_ps = 0;
  size_t next = 0;
  uint64_t finished = 0;
  uint64_t outstanding_half = 0, outstanding_end = 0;
  std::vector<Record> records;
  StatsSnapshot delta;
  uint64_t events = 0;
};

class Serve : public Workload {
 public:
  void Setup(const Options& opts, Tracer* tracer) override;
  void Run(Tracer* tracer) override;
  Outcome Verify() override;
  std::string Digest() const override;
  void EndToEnd(Metrics* m) const override;
  void PerLayer(const Tracer& tracer, Metrics* m) const override;

 private:
  /// Interactive-tenant latencies of one rung, us from due time; requests
  /// that were shed, late, failed or wrong count as +inf (missing the SLO).
  std::vector<double> InteractiveLatencies(const Rung& r) const;
  bool Good(const Rung& r, size_t i) const;
  uint64_t Oracle(int64_t lo, int64_t hi) const;
  void IssueDue(Rung* r, Tracer* tracer);

  db::Column col_ = db::Column::Int64("values");
  std::vector<int64_t> sorted_;
  std::vector<std::unique_ptr<Rung>> rungs_;
};

void Serve::Setup(const Options& opts, Tracer* tracer) {
  {
    Scoped s(tracer, "db.generate");
    col_ = UniformColumn(kRows, opts.seed);
    sorted_.assign(col_.values().begin(), col_.values().end());
    std::sort(sorted_.begin(), sorted_.end());
  }
  const jafar::DeviceConfig dev_cfg = DeriveDeviceConfig(tracer);
  for (size_t k = 0; k < std::size(kRungs); ++k) {
    auto r = std::make_unique<Rung>();
    r->rate = kRungs[k].rate;
    r->window_ps = kRungs[k].window_ps;
    {
      // Open-loop Poisson arrivals per tenant, one PCG32 stream each.
      Scoped s(tracer, "db.generate");
      for (uint32_t t = 0; t < 2; ++t) {
        Rng rng(opts.seed, /*stream=*/100 + 2 * k + t);
        const double mean_gap_ps = 1e6 / (r->rate * kWeights[t]);
        double at = 0;
        for (;;) {
          at += -std::log(1.0 - rng.NextDouble()) * mean_gap_ps;
          if (at >= static_cast<double>(r->window_ps)) break;
          Arrival a;
          a.due = static_cast<sim::Tick>(at);
          a.tenant = t;
          a.lo = rng.NextInRange(0, kValueMax - kSpan);
          a.hi = a.lo + kSpan - 1;
          r->arrivals.push_back(a);
        }
      }
      std::stable_sort(r->arrivals.begin(), r->arrivals.end(),
                       [](const Arrival& a, const Arrival& b) {
                         return a.due < b.due;
                       });
    }
    r->array = std::make_unique<core::DimmArray>(dram::DramTiming::DDR3_1600(),
                                                 4, 1, dev_cfg);
    r->runtime =
        std::make_unique<core::NdpRuntime>(r->array.get(), core::RuntimeConfig{});
    {
      Scoped s(tracer, "dimm.place");
      r->placed = r->array->PlaceColumn(col_).ValueOrDie();
    }
    r->ingress = std::make_unique<core::ServingIngress>(
        r->runtime.get(), r->array.get(), ServingConfig(), Tenants());
    NDP_CHECK(r->ingress->AddTable(&col_, &r->placed) == 0);
    r->records.resize(r->arrivals.size());
    rungs_.push_back(std::move(r));
  }
}

void Serve::IssueDue(Rung* r, Tracer* tracer) {
  sim::EventQueue& eq = r->array->eq();
  const sim::Tick now = eq.Now();
  while (r->next < r->arrivals.size() &&
         r->start_ps + r->arrivals[r->next].due <= now) {
    const size_t i = r->next++;
    const Arrival& a = r->arrivals[i];
    core::ServingRequest req;
    req.tenant = a.tenant;
    req.table = 0;
    req.lo = a.lo;
    req.hi = a.hi;
    req.deadline_ps = r->start_ps + a.due +
                      (a.tenant == 0 ? kSloPs : kBatchDeadlinePs);
    Scoped s(tracer, "ingress.Enqueue", now);
    r->ingress->Enqueue(static_cast<uint32_t>(i % kRings), req,
                        [r, i](const core::ServingResult& res) {
                          Record& rec = r->records[i];
                          rec.finished = true;
                          rec.outcome = res.outcome;
                          rec.matches = res.matches;
                          rec.done_ps = res.completed_ps;
                          ++r->finished;
                        });
  }
  if (r->next < r->arrivals.size()) {
    eq.ScheduleAt(r->start_ps + r->arrivals[r->next].due,
                  [this, r, tracer] { IssueDue(r, tracer); });
  }
}

void Serve::Run(Tracer* tracer) {
  for (auto& up : rungs_) {
    Rung* r = up.get();
    core::DimmArray& array = *r->array;
    sim::EventQueue& eq = array.eq();
    Scoped rung_span(tracer, "serve.rung", eq.Now());
    // Channel silence before the first arrival gives the lease controller's
    // idle estimator real history.
    eq.RunUntil(eq.Now() + kWarmupPs);
    const uint64_t events0 = eq.executed_events();
    StatsSnapshot before = array.stats().Snapshot();
    r->start_ps = eq.Now();
    r->ingress->Start();
    if (!r->arrivals.empty()) {
      eq.ScheduleAt(r->start_ps + r->arrivals[0].due,
                    [this, r, tracer] { IssueDue(r, tracer); });
    }
    {
      Scoped s(tracer, "sim.RunUntil", eq.Now());
      array.RunUntil(r->start_ps + r->window_ps / 2);
      r->outstanding_half = r->next - r->finished;
      array.RunUntil(r->start_ps + r->window_ps);
      r->outstanding_end = r->next - r->finished;
    }
    r->ingress->Stop();
    {
      Scoped s(tracer, "ingress.Drain", eq.Now());
      NDP_CHECK(r->ingress->Drain().ok());
    }
    {
      Scoped s(tracer, "runtime.Drain", eq.Now());
      NDP_CHECK(r->runtime->Drain().ok());
    }
    r->events = eq.executed_events() - events0;
    r->delta = array.stats().Snapshot().DeltaSince(before);
  }
}

uint64_t Serve::Oracle(int64_t lo, int64_t hi) const {
  return static_cast<uint64_t>(
      std::upper_bound(sorted_.begin(), sorted_.end(), hi) -
      std::lower_bound(sorted_.begin(), sorted_.end(), lo));
}

bool Serve::Good(const Rung& r, size_t i) const {
  const Record& rec = r.records[i];
  const Arrival& a = r.arrivals[i];
  const sim::Tick limit = a.tenant == 0 ? kSloPs : kBatchDeadlinePs;
  return rec.finished && core::IsGoodput(rec.outcome) &&
         rec.matches == Oracle(a.lo, a.hi) &&
         rec.done_ps - (r.start_ps + a.due) <= limit;
}

std::vector<double> Serve::InteractiveLatencies(const Rung& r) const {
  std::vector<double> lat;
  for (size_t i = 0; i < r.arrivals.size(); ++i) {
    if (r.arrivals[i].tenant != 0) continue;
    lat.push_back(Good(r, i) ? static_cast<double>(r.records[i].done_ps -
                                                   r.start_ps -
                                                   r.arrivals[i].due) /
                                   1e6
                             : kInf);
  }
  return lat;
}

Outcome Serve::Verify() {
  Outcome out;
  for (const auto& up : rungs_) {
    const Rung& r = *up;
    uint64_t goodput = 0, shed = 0, late = 0, failed = 0;
    for (size_t i = 0; i < r.arrivals.size(); ++i) {
      const Record& rec = r.records[i];
      const Arrival& a = r.arrivals[i];
      ++out.attempted;
      if (!rec.finished) {
        ++out.failed;  // never reached a terminal outcome
        continue;
      }
      switch (rec.outcome) {
        case core::ServeOutcome::kOk:
        case core::ServeOutcome::kOkCpuFallback:
          // Every completion, on time or not, must match the oracle.
          if (rec.matches != Oracle(a.lo, a.hi)) {
            ++out.failed;
            ++failed;
          } else if (Good(r, i)) {
            ++goodput;
          } else {
            ++late;
          }
          break;
        case core::ServeOutcome::kShedRingFull:
        case core::ServeOutcome::kShedSlotsExhausted:
        case core::ServeOutcome::kShedLowPriority:
        case core::ServeOutcome::kShedRetryBudget:
          ++shed;
          break;
        case core::ServeOutcome::kExpiredAtAdmission:
        case core::ServeOutcome::kDeadlineExceeded:
          ++late;
          break;
        case core::ServeOutcome::kFailed:
          ++failed;
          ++out.failed;
          break;
      }
    }
    char what[160];
    std::snprintf(what, sizeof(what),
                  "serve rung %.2f: issued %zu != goodput %llu + shed %llu + "
                  "late %llu + failed %llu",
                  r.rate, r.arrivals.size(),
                  static_cast<unsigned long long>(goodput),
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(late),
                  static_cast<unsigned long long>(failed));
    out.Check(goodput + shed + late + failed == r.arrivals.size(), what);
    out.Check(r.finished == r.arrivals.size(),
              "serve: a request never reached a terminal outcome");
  }
  return out;
}

std::string Serve::Digest() const {
  std::string d;
  char buf[96];
  for (const auto& up : rungs_) {
    const Rung& r = *up;
    std::snprintf(buf, sizeof(buf), "rung %.2f start %llu n %zu\n", r.rate,
                  static_cast<unsigned long long>(r.start_ps),
                  r.arrivals.size());
    d += buf;
    for (const Record& rec : r.records) {
      std::snprintf(buf, sizeof(buf), "%d %llu %llu\n",
                    static_cast<int>(rec.outcome),
                    static_cast<unsigned long long>(rec.matches),
                    static_cast<unsigned long long>(rec.done_ps));
      d += buf;
    }
    d += r.delta.ToText();
  }
  return d;
}

void Serve::EndToEnd(Metrics* m) const {
  uint64_t issued = 0, good = 0;
  for (const auto& up : rungs_) {
    for (size_t i = 0; i < up->arrivals.size(); ++i) {
      ++issued;
      good += Good(*up, i);
    }
  }
  const std::vector<double> light = InteractiveLatencies(*rungs_[kLightRung]);
  const Rung& over = *rungs_[kOverloadRung];
  uint64_t over_good = 0;
  for (size_t i = 0; i < over.arrivals.size(); ++i) over_good += Good(over, i);
  m->Set("p50_us", ExactQuantile(light, 0.5), "us");
  m->Set("p99_us", ExactQuantile(light, 0.99), "us");
  m->Set("goodput_per_s",
         static_cast<double>(over_good) /
             (static_cast<double>(over.window_ps) / 1e12),
         "1/s");
  m->Set("ok_frac", static_cast<double>(good) / static_cast<double>(issued),
         "ratio");
}

void Serve::PerLayer(const Tracer& tracer, Metrics* m) const {
  (void)tracer;
  StatsSnapshot d;
  uint64_t events = 0, issued = 0, shed = 0, late = 0;
  sim::Tick elapsed = 0;
  double max_rate = 0;
  for (const auto& up : rungs_) {
    const Rung& r = *up;
    Accumulate(&d, r.delta);
    events += r.events;
    uint64_t rung_bad = 0;
    for (size_t i = 0; i < r.arrivals.size(); ++i) {
      ++issued;
      const core::ServeOutcome o = r.records[i].outcome;
      bool is_shed = o == core::ServeOutcome::kShedRingFull ||
                     o == core::ServeOutcome::kShedSlotsExhausted ||
                     o == core::ServeOutcome::kShedLowPriority ||
                     o == core::ServeOutcome::kShedRetryBudget;
      shed += is_shed;
      late += !is_shed && !Good(r, i);
      rung_bad += !Good(r, i);
    }
    elapsed += r.window_ps;
    // In SLO: interactive p99 within the deadline, at most 1% of requests
    // missed, and a backlog that did not grow over the window's second half.
    const double p99 = ExactQuantile(InteractiveLatencies(r), 0.99);
    const bool in_slo =
        p99 <= static_cast<double>(kSloPs) / 1e6 &&
        static_cast<double>(rung_bad) <=
            0.01 * static_cast<double>(r.arrivals.size()) &&
        r.outstanding_end <= std::max<uint64_t>(16, 2 * r.outstanding_half);
    if (in_slo) max_rate = std::max(max_rate, r.rate);
  }
  m->Set("sim.events", static_cast<double>(events), "count");
  DramLayerMetrics(d, "array.dram", 4, elapsed,
                   static_cast<double>(dram::DramTiming::DDR3_1600().tck_ps), m);
  JafarLayerMetrics(d, 4, elapsed, m);
  RuntimeLayerMetrics(d, 4, m);
  const double acc = d.Value("array.ingress.accepted");
  const double bursts = d.Value("array.ingress.bursts");
  const double cpu = d.Value("array.ingress.completed_cpu");
  const double ndp = d.Value("array.ingress.completed_ndp");
  m->Set("ingress.shed_frac", static_cast<double>(shed) / issued, "ratio");
  m->Set("ingress.late_frac", static_cast<double>(late) / issued, "ratio");
  m->Set("ingress.cpu_fallback_frac", cpu + ndp > 0 ? cpu / (cpu + ndp) : 0,
         "ratio");
  m->Set("ingress.reqs_per_burst", bursts > 0 ? acc / bursts : 0, "count");
  m->Set("ingress.governor_transitions",
         d.Value("array.ingress.governor_transitions"), "count");
  m->Set("ingress.max_rate_in_slo", max_rate, "1/us");
  const std::vector<double> knee = InteractiveLatencies(*rungs_[kKneeRung]);
  m->Set("ingress.knee_p99_us", ExactQuantile(knee, 0.99), "us");
  m->Set("ingress.knee_samples", static_cast<double>(knee.size()), "count");
  const double light =
      static_cast<double>(InteractiveLatencies(*rungs_[kLightRung]).size());
  m->Set("p50_us.samples", light, "count");
  m->Set("p99_us.samples", light, "count");
}

}  // namespace

std::unique_ptr<Workload> MakeServe() { return std::make_unique<Serve>(); }

}  // namespace perfbench
