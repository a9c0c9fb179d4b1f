// Overload-robust serving ingress: the front door between a client fleet and
// the NdpRuntime, modeled on a DPDK-style packet path (per-core rings over
// a fixed mbuf pool, drained in bursts).
//
//   * Bounded everywhere: requests live in a fixed pre-allocated slot pool
//     and travel through fixed-capacity rings. Slot exhaustion and a full
//     ring are the first, cheapest shed points — a traffic spike hits a hard
//     boundary at the door instead of growing a queue somewhere deep.
//   * Deadline propagation: every request carries an absolute deadline that
//     follows it through admission, the runtime's chunk queues, and job end;
//     expired work is cancelled at the next chunk boundary and is never
//     silently completed late.
//   * Retry budgets: a per-tenant token bucket caps the retry amplification
//     of the fault path — a device that hangs under load makes its tenant
//     shed, not spin.
//   * Overload governor: a three-state machine (healthy -> shed-low-priority
//     -> brownout) driven online from live stats-registry reads of slot
//     occupancy. Shedding drops batch-priority tenants at the door; brownout
//     additionally bounds the NDP backlog and routes the overflow of
//     interactive selects to the bit-identical CPU scan fallback, so goodput
//     degrades smoothly past saturation instead of cliffing.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/dimm_array.h"
#include "core/runtime.h"
#include "db/column.h"
#include "sim/ring.h"
#include "util/stats_registry.h"

namespace ndp::core {

/// Ingress policy knobs.
struct IngressConfig {
  // -- Bounded buffering ----------------------------------------------------
  uint64_t rings = 4;            ///< per-core request rings
  uint64_t ring_capacity = 256;  ///< entries per ring (power of two)
  uint64_t slots = 1024;         ///< pre-allocated request slots (mbuf pool)
  uint64_t burst = 32;           ///< max requests drained per ring per pump
  uint64_t poll_bus_cycles = 800;  ///< pump cadence, DDR3 bus cycles

  // -- Retry budget ---------------------------------------------------------
  double retry_tokens = 8.0;         ///< per-tenant bucket capacity
  double retry_refill_per_ms = 4.0;  ///< tokens regained per simulated ms

  // -- Overload governor ----------------------------------------------------
  bool governor_enabled = true;
  double shed_threshold = 0.5;      ///< occupancy EWMA: healthy -> shed
  double brownout_threshold = 0.8;  ///< occupancy EWMA: shed -> brownout
  double governor_hysteresis = 0.15;  ///< downward transitions need this gap
  uint64_t governor_poll_bus_cycles = 4'000;  ///< tick cadence
  double governor_alpha = 0.3;  ///< occupancy EWMA smoothing
  /// In brownout, at most this many requests may be in flight in the
  /// NdpRuntime; the overflow routes to the CPU fallback. Bounding the NDP
  /// backlog is what keeps admitted-request latency inside the deadline.
  uint64_t brownout_ndp_inflight = 64;
  /// Cost model of the CPU fallback scan: bus cycles per row, serialized
  /// through a single host core.
  uint64_t cpu_scan_bus_cycles_per_row = 4;

  Status Validate() const;
};

/// One serving tenant: its QoS class, open-loop arrival weight (ClientFleet),
/// and per-request deadline (the SLO).
struct TenantSpec {
  std::string name;
  JobPriority priority = JobPriority::kBatch;
  double weight = 1.0;
  /// Relative deadline applied to every request, ps after arrival.
  sim::Tick deadline_ps = 500'000'000;
};

enum class OverloadState : uint8_t {
  kHealthy = 0,
  kShedLowPriority = 1,
  kBrownout = 2,
};
const char* OverloadStateToString(OverloadState s);

/// Terminal outcome of one serving request.
enum class ServeOutcome : uint8_t {
  kOk = 0,             ///< completed on the NDP path before the deadline
  kOkCpuFallback,      ///< completed on the CPU fallback before the deadline
  kShedRingFull,       ///< rejected at the door: ring at capacity
  kShedSlotsExhausted, ///< rejected at the door: slot pool empty
  kShedLowPriority,    ///< rejected by the governor: batch tenant under shed
  kShedRetryBudget,    ///< failed and the tenant's retry bucket was empty
  kExpiredAtAdmission, ///< deadline already passed when admission looked
  kDeadlineExceeded,   ///< cancelled at a chunk boundary past the deadline
  kFailed,             ///< NDP job failed terminally (no retry possible)
};

/// True for outcomes that count toward goodput (completed, on time).
inline bool IsGoodput(ServeOutcome o) {
  return o == ServeOutcome::kOk || o == ServeOutcome::kOkCpuFallback;
}

struct ServingRequest {
  uint32_t tenant = 0;
  uint32_t table = 0;  ///< from ServingIngress::AddTable
  int64_t lo = 0, hi = 0;
  sim::Tick deadline_ps = 0;  ///< absolute simulated time; 0 = none
};

struct ServingResult {
  ServeOutcome outcome = ServeOutcome::kFailed;
  uint64_t matches = 0;
  sim::Tick accepted_ps = 0;   ///< arrival at the ingress
  sim::Tick completed_ps = 0;  ///< terminal outcome time
};
using ServeCallback = std::function<void(const ServingResult&)>;

/// Registered under "array.ingress.".
struct IngressCounters {
  uint64_t accepted = 0;             ///< made it past the door into a ring
  uint64_t bursts = 0;               ///< non-empty pump drains
  uint64_t admitted_interactive = 0; ///< NDP admissions at kInteractive
  uint64_t admitted_batch = 0;       ///< NDP admissions at kBatch
  uint64_t completed_ndp = 0;
  uint64_t completed_cpu = 0;
  uint64_t shed_ring_full = 0;
  uint64_t shed_slots_exhausted = 0;
  uint64_t shed_low_priority = 0;
  uint64_t shed_retry_budget = 0;
  uint64_t expired_at_admission = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;              ///< budgeted resubmissions after a fault
  uint64_t governor_transitions = 0;
};

/// \brief The serving front door: rings -> slot pool -> burst admission into
/// the NdpRuntime, with the governor deciding who gets in and where.
///
/// Runs on the host partition of the simulation: every ring has one
/// producer (the client fleet) and one consumer (the pump). Stats register
/// in the array's registry; keep the ingress alive for as long as that
/// registry is read.
class ServingIngress {
 public:
  ServingIngress(NdpRuntime* runtime, DimmArray* array, IngressConfig config,
                 std::vector<TenantSpec> tenants);
  ~ServingIngress();
  NDP_DISALLOW_COPY_AND_ASSIGN(ServingIngress);

  /// Registers a servable column (host copy + its placement). The host copy
  /// is what the CPU fallback scans; it must stay alive and unmodified.
  uint32_t AddTable(const db::Column* col, const PlacedColumn* placed);

  /// Producer side, called at request arrival. Returns true when the request
  /// was accepted into `ring`; on a shed the callback still fires
  /// synchronously with the shed outcome, so every request gets exactly one
  /// terminal ServingResult either way.
  bool Enqueue(uint32_t ring, const ServingRequest& req, ServeCallback done);

  /// Starts the pump (and the governor, when enabled).
  void Start();
  /// Stops accepting; already-accepted requests still drain to completion.
  void Stop();
  /// Pumps the event queue until every accepted request reached its terminal
  /// outcome (call after Stop).
  Status Drain();

  OverloadState state() const { return state_; }
  double occupancy_ewma() const { return occupancy_ewma_; }
  uint64_t slots_in_use() const { return config_.slots - free_.size(); }
  const IngressConfig& config() const { return config_; }
  const IngressCounters& counters() const { return counters_; }
  size_t num_tenants() const { return tenants_.size(); }
  const TenantSpec& tenant(uint32_t t) const { return tenants_[t]; }
  size_t num_tables() const { return tables_.size(); }
  /// Retry tokens currently in tenant `t`'s bucket (monotone refill applied).
  double retry_tokens(uint32_t t) const;

 private:
  struct Slot {
    ServingRequest req;
    ServeCallback done;
    sim::Tick accepted_ps = 0;
    uint64_t cpu_matches = 0;  ///< fallback result, computed at submission
    uint32_t retries = 0;
  };
  struct Table {
    const db::Column* col = nullptr;
    const PlacedColumn* placed = nullptr;
  };
  struct TokenBucket {
    double tokens = 0.0;
    sim::Tick last_refill_ps = 0;
  };

  void Pump();
  void SchedulePump();
  void GovernorTick();
  void ScheduleGovernor();
  /// Routing decision for one drained slot: NDP burst, CPU fallback, or an
  /// immediate terminal outcome (expired / shed).
  void Admit(uint32_t slot, std::vector<uint32_t>* ndp_batch);
  /// The one NDP admission path: a pump's drained burst, or a retry (a
  /// burst of one).
  void SubmitNdpBurst(const std::vector<uint32_t>& slot_ids);
  void SubmitCpu(uint32_t slot);
  void OnNdpDone(uint32_t slot, const JobResult& r);
  SubmitOptions OptionsFor(uint32_t slot);
  bool TakeRetryToken(uint32_t tenant);
  void Finish(uint32_t slot, ServeOutcome outcome, uint64_t matches);
  /// Terminal outcome for a request that never got (or already released) a
  /// slot: counts it and fires the callback synchronously.
  void FinishShed(const ServeCallback& done, ServeOutcome outcome);
  void BumpOutcome(ServeOutcome outcome);
  bool HasBacklog() const;

  NdpRuntime* runtime_;
  DimmArray* array_;
  IngressConfig config_;
  sim::EventQueue& eq_;

  /// Fixed mbuf-style request pool; never grows after construction.
  std::vector<Slot> pool_;       // ndp: bounded-by(IngressConfig::slots)
  std::vector<uint32_t> free_;   // ndp: bounded-by(IngressConfig::slots)
  /// Fixed ring set; each ring is capacity-bounded via TryPush.
  // ndp: bounded-by(IngressConfig::rings)
  std::vector<sim::Ring<uint32_t>> rings_;
  // Setup-time metadata, not on the per-request admission path.
  std::vector<Table> tables_;         // ndp-lint: bounded-queue-ok registered once at setup, before Start
  std::vector<TenantSpec> tenants_;   // ndp-lint: bounded-queue-ok fixed tenant set from construction
  std::vector<TokenBucket> buckets_;  // ndp-lint: bounded-queue-ok one bucket per tenant, sized at construction

  bool running_ = false;
  bool pump_scheduled_ = false;
  bool governor_scheduled_ = false;
  uint32_t next_ring_ = 0;  ///< round-robin drain cursor
  uint64_t ndp_inflight_ = 0;
  sim::Tick cpu_busy_until_ps_ = 0;  ///< single-server CPU fallback model
  OverloadState state_ = OverloadState::kHealthy;
  double occupancy_ewma_ = 0.0;
  bool has_occupancy_ = false;
  std::string occupancy_path_;  ///< registry path the governor reads

  IngressCounters counters_;
};

}  // namespace ndp::core
