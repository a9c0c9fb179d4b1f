// Synthetic host (CPU) memory traffic for runtime experiments: an open-issue
// generator of cache-line requests with seeded-PCG32 exponential
// inter-arrivals, standing in for the co-running CPU workload whose slowdown
// the §3.3 QoS budget bounds. The per-request latency histogram is the
// measurement: p99 latency under a JAFAR runtime quantifies the CPU stall
// the lease controller is supposed to keep inside its budget.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/ingress.h"
#include "dram/controller.h"
#include "sim/event_queue.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stats_registry.h"

namespace ndp::core {

struct HostTrafficConfig {
  /// Offered load: mean request arrivals per microsecond (Poisson process).
  double reqs_per_us = 50.0;
  /// PCG32 seed; the only randomness in a runtime experiment.
  uint64_t seed = 1;
};

/// \brief Seeded open-loop cache-line traffic over caller-provided regions.
///
/// Regions must be allocated by the caller (DimmArray::AllocOnDevice or
/// equivalent) so generator writes never clobber column data. Addresses are
/// 64 B aligned — one BL8 burst per request, like a CPU line fill.
class HostTrafficGen {
 public:
  HostTrafficGen(sim::EventQueue* eq, dram::MemoryController* controller,
                 HostTrafficConfig config, const StatsScope& stats = {});
  NDP_DISALLOW_COPY_AND_ASSIGN(HostTrafficGen);

  /// Adds `bytes` at `base` to the address pool (weighted by size).
  void AddRegion(uint64_t base, uint64_t bytes);

  /// Starts the arrival process (requires at least one region).
  void Start();
  /// Stops issuing new requests; in-flight ones still complete.
  void Stop();

  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }
  /// Requests the controller refused; each waits for a freed slot once.
  uint64_t backpressure_retries() const { return retries_; }
  /// Request completion latency (enqueue attempt to last data beat), ps.
  const Histogram& latency() const { return latency_; }

 private:
  struct Region {
    uint64_t base, lines;  ///< 64 B lines
  };

  void ScheduleNext();
  void Issue();
  void TryEnqueue(uint64_t addr, bool is_write, sim::Tick first_attempt_ps);

  sim::EventQueue* eq_;
  dram::MemoryController* controller_;
  HostTrafficConfig config_;
  Rng rng_;
  std::vector<Region> regions_;
  uint64_t total_lines_ = 0;
  bool running_ = false;

  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t retries_ = 0;
  Histogram latency_{0.0, 2.0e8, 200};
};

/// \brief Client-fleet knobs: the serving-side workload shape.
struct FleetConfig {
  /// Aggregate open-loop arrival rate across all open-loop tenants,
  /// requests per microsecond (split by tenant weight).
  double reqs_per_us = 0.05;
  /// PCG32 seed; every tenant derives its own stream from it.
  uint64_t seed = 1;
  /// When false, requests are issued with no deadline (the pre-ingress
  /// control: nothing is ever cancelled, late work completes silently). The
  /// fleet still judges completions against the tenant SLO client-side, so
  /// goodput means "on time" under either mode.
  bool propagate_deadlines = true;
};

/// \brief Seeded open-loop serving clients over a ServingIngress.
///
/// One independent PCG32 stream per tenant, so the issued request sequence
/// (tenants, tables, predicates, arrival ticks) is a pure function of
/// (FleetConfig, TenantSpec list) — the reproducibility tests pin this via
/// issue_digest(). Tenants arrive Poisson at a weight-proportional share of
/// reqs_per_us and do not slow down when shed (that is what makes overload
/// possible).
class ClientFleet {
 public:
  /// Per-tenant outcome accounting (registered under "<scope>.tenant<i>.").
  struct TenantStats {
    uint64_t issued = 0;
    uint64_t goodput = 0;     ///< completed within the tenant SLO
    uint64_t shed = 0;        ///< rejected: ring/pool/priority/retry-budget
    uint64_t late = 0;        ///< expired, cancelled, or completed past SLO
    uint64_t failed = 0;      ///< terminal NDP failure
    uint64_t mismatches = 0;  ///< oracle disagreements (should stay 0)
    Histogram latency{0.0, 4.0e9, 400};  ///< goodput latency, ps
  };

  ClientFleet(sim::EventQueue* eq, ServingIngress* ingress, FleetConfig config,
              const StatsScope& stats = {});
  NDP_DISALLOW_COPY_AND_ASSIGN(ClientFleet);

  /// Optional per-request ground truth: when set, every goodput completion
  /// is checked against it and disagreements count as mismatches.
  void set_oracle(std::function<uint64_t(const ServingRequest&)> oracle) {
    oracle_ = std::move(oracle);
  }

  /// Starts every tenant's arrival process.
  void Start();
  /// Stops issuing; in-flight requests still reach their terminal outcome.
  void Stop();

  const TenantStats& tenant_stats(uint32_t t) const { return stats_[t]; }
  uint64_t issued() const;
  uint64_t goodput() const;
  uint64_t shed() const;
  uint64_t mismatches() const;
  /// FNV-1a digest over the issued request stream (tenant, table, predicate,
  /// arrival tick) — equal seeds must produce equal digests, any thread
  /// count, any overload response.
  uint64_t issue_digest() const { return issue_digest_; }
  /// Same, over (outcome, completion tick) of every terminal callback.
  uint64_t outcome_digest() const { return outcome_digest_; }

 private:
  void ScheduleOpenArrival(uint32_t tenant);
  void IssueOne(uint32_t tenant);
  void OnDone(uint32_t tenant, const ServingResult& res);
  void Mix(uint64_t* digest, uint64_t v);

  sim::EventQueue* eq_;
  ServingIngress* ingress_;
  FleetConfig config_;
  bool running_ = false;
  double open_weight_total_ = 0.0;
  uint64_t issue_seq_ = 0;  ///< round-robins requests over the rings
  uint64_t issue_digest_ = 1469598103934665603ULL;   ///< FNV-1a basis
  uint64_t outcome_digest_ = 1469598103934665603ULL;
  std::function<uint64_t(const ServingRequest&)> oracle_;
  std::vector<Rng> rngs_;          ///< one stream per tenant
  std::vector<TenantStats> stats_; ///< sized at construction, stable
};

}  // namespace ndp::core
