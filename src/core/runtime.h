// Asynchronous multi-query JAFAR runtime (§3.3 closed-loop): many concurrent
// select/aggregate jobs over a DimmArray, dispatched opportunistically into
// memory-controller idle periods.
//
//   * Per-device FIFO+priority queues: jobs split into per-device chunks at
//     placement boundaries; each device lane drains its queue as a sequence
//     of ownership leases through the fault-recovering jafar::Driver.
//   * Adaptive leases: a per-channel LeaseController keeps an online EWMA of
//     the paper's §3.3 idle-period estimator, fed from the stats registry
//     between leases (during the run, not post-hoc). Leases shrink when the
//     measured host utilization exceeds the QoS budget (max CPU slowdown %,
//     longest-stall bound) and grow toward exclusive ownership when the
//     channel is idle.
//   * Work stealing: a lane that drains its queue re-partitions remaining
//     pages from the most-loaded lane to itself (host-mediated copy), so
//     skewed partitions no longer gate makespan; a permanently faulted
//     lane's pages re-enter the queues the same way.
//
// Determinism: every ordering decision derives from simulated time and the
// (priority, submission-sequence) order; the only randomness in a runtime
// experiment is the workload's seeded PCG32 (host_traffic.h).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dimm_array.h"
#include "jafar/driver.h"
#include "util/bitvector.h"

namespace ndp::core {

// -- Fixed runtime policy -----------------------------------------------------
// Constants of the lease controller, admission, stealing and the heavy-hitter
// detector. No experiment varies them, so they are not RuntimeConfig knobs.
// All cycle quantities are DDR3 bus cycles.

/// Multiplicative lease increase when idle and decrease when over budget.
inline constexpr double kLeaseGrow = 2.0;
inline constexpr double kLeaseShrink = 0.5;
/// EWMA smoothing for the per-window busy fraction, the idle estimate and
/// each lane's progress rate.
inline constexpr double kEwmaAlpha = 0.25;
/// Host utilization below which the channel counts as idle (grow region).
/// RuntimeConfig::Validate keeps the QoS budget fraction above it.
inline constexpr double kIdleBusyThreshold = 0.05;
/// When idle, grow at least to kIdleFillFactor x the EWMA of the §3.3
/// mean-idle-period estimate — the "size leases from the estimator" rule.
inline constexpr double kIdleFillFactor = 32.0;
/// Batch-priority dispatches are deferred this long while the channel is
/// over budget...
inline constexpr uint64_t kAdmissionDeferBusCycles = 4'000;
/// ...but at most this many consecutive times (starvation freedom).
inline constexpr uint32_t kAdmissionMaxDefers = 8;
/// Minimum profitable steal, in 4 KB pages.
inline constexpr uint64_t kStealMinPages = 4;
/// Fixed overhead of a host-mediated steal copy, in bus cycles (on top of
/// 1 x tCCD per 64 B burst: the read and write streams pipeline through the
/// host buffer on different channels).
inline constexpr uint64_t kStealCopyOverheadBusCycles = 2'000;
/// A lane whose drain ETA exceeds this multiple of the mean over busy lanes
/// is flagged as a heavy hitter; newly flagged lanes wake idle siblings so
/// stealing starts immediately rather than at the next natural wake-up.
inline constexpr double kHeavyHitterThreshold = 1.5;
/// Trust a lane's progress-rate EWMA only after this many completed
/// leases; untrusted lanes borrow the mean rate of trusted siblings.
inline constexpr uint64_t kHeavyHitterMinLeases = 2;
/// Floor of every lease the controller grants.
inline constexpr uint64_t kLeaseMinBusCycles = 2'000;
/// Floor of the host window between leases.
inline constexpr uint64_t kHostWindowMinBusCycles = 500;

static_assert(kLeaseShrink > 0.0 && kLeaseShrink < 1.0 && kLeaseGrow > 1.0,
              "need 0 < shrink < 1 < grow");
static_assert(kEwmaAlpha > 0.0 && kEwmaAlpha <= 1.0, "alpha must be in (0, 1]");
static_assert(kIdleBusyThreshold >= 0.0 && kIdleFillFactor >= 0.0,
              "idle threshold and fill factor must be non-negative");
static_assert(kHeavyHitterThreshold >= 1.0,
              "a sub-mean heavy hitter is meaningless");
static_assert(kHeavyHitterMinLeases >= 1, "need at least one trusted lease");
static_assert(kLeaseMinBusCycles > 0 && kHostWindowMinBusCycles > 0,
              "lease and host-window floors must be positive");

/// QoS and policy knobs of the runtime. All cycle quantities are DDR3 bus
/// cycles.
struct RuntimeConfig {
  // -- Lease controller -----------------------------------------------------
  uint64_t lease_max_bus_cycles = 160'000;
  uint64_t lease_init_bus_cycles = 20'000;

  // -- QoS budget -----------------------------------------------------------
  /// Max CPU slowdown budget, percent: bounds the rank-ownership duty cycle
  /// lease/(lease+window) whenever the host has traffic.
  double qos_max_cpu_slowdown_pct = 25.0;
  /// Longest-stall bound: no lease (hence no single host-request stall due
  /// to ownership) may exceed this many bus cycles.
  // ndp-lint: never-set-ok loose/tight property test sweeps the stall cap
  uint64_t qos_max_stall_bus_cycles = 40'000;

  // -- Recovery -------------------------------------------------------------
  /// Per-lane driver (watchdog/retry/writeback-checksum) configuration,
  /// passed through to each lane's jafar::Driver unchanged.
  jafar::DriverConfig driver;

  // -- Work stealing --------------------------------------------------------
  /// Victims are picked by the largest estimated time to drain (stealable
  /// rows x EWMA ps/row), so a slow lane buried under skewed partitions is
  /// relieved first even when a fast lane happens to hold more raw rows.
  bool steal_enabled = true;

  // -- Join / group-by pushdown ---------------------------------------------
  /// Bloom hash lanes per probe job: the device's probe datapath width.
  static constexpr uint64_t join_hashes = jafar::kProbeHashes;
  /// Bloom filter image size in KB. Power of two, so the device can reduce
  /// hashes to bit indices with a mask instead of a divider.
  static constexpr uint64_t join_filter_kb = 16;
  static_assert((join_filter_kb & (join_filter_kb - 1)) == 0,
                "join_filter_kb must be a power of two");

  Status Validate() const;

  double qos_budget_fraction() const { return qos_max_cpu_slowdown_pct / 100.0; }
};

/// \brief Per-channel adaptive lease sizing (one instance per memory
/// channel; all lanes on the channel feed it their host-window observations).
///
/// Let u = EWMA busy fraction of the host windows, i = EWMA of the §3.3
/// idle-period estimate, beta = qos budget fraction, and
/// cap = min(lease_max, qos_max_stall). Per observation:
///
///   u > beta               : L <- max(L_min, kLeaseShrink * L)  (over budget)
///   u < kIdleBusyThreshold : L <- min(cap, max(kLeaseGrow * L,
///                                 kIdleFillFactor * i))        (idle)
///   otherwise              : L unchanged                       (hold)
///
/// and the host window is W(L) = max(W_min, L * (1 - beta) / beta), collapsed
/// to W_min when the channel is idle. Tightening the budget (smaller beta or
/// smaller stall cap) can only shrink L and grow W for the same observation
/// sequence — the monotonicity property tests pin this.
class LeaseController {
 public:
  explicit LeaseController(const RuntimeConfig& cfg);

  /// One host-window observation: `window_cycles` elapsed off-lease,
  /// `busy_cycles` of controller busy time and `requests` served within it.
  /// Updates the EWMAs, then applies the adaptation rule.
  void Observe(uint64_t window_cycles, uint64_t busy_cycles,
               uint64_t requests);

  uint64_t NextLeaseBusCycles() const;
  uint64_t HostWindowBusCycles(uint64_t lease_bus_cycles) const;
  bool ChannelIdle() const;
  bool OverBudget() const;

  double ewma_busy_fraction() const { return ewma_busy_; }
  double ewma_idle_cycles() const { return ewma_idle_; }
  uint64_t qos_shrinks() const { return shrinks_; }
  uint64_t qos_grows() const { return grows_; }

 private:
  uint64_t LeaseCap() const;

  RuntimeConfig cfg_;
  double lease_;
  double ewma_busy_ = 0.0;
  double ewma_idle_ = 0.0;
  bool has_observation_ = false;
  uint64_t shrinks_ = 0;
  uint64_t grows_ = 0;
};

enum class JobPriority : uint8_t { kInteractive = 0, kBatch = 1 };
enum class JobKind : uint8_t { kSelect, kAggregate, kProbe, kGroupBy };

/// Per-job submission options. `deadline_ps` is an absolute simulated time;
/// 0 means no deadline. A deadlined job whose deadline passes is cancelled at
/// the next chunk boundary (queued chunks dropped before their lease starts)
/// and can never complete late: the completion path re-checks the deadline
/// and fails the job with DeadlineExceeded instead of reporting success.
struct SubmitOptions {
  JobPriority priority = JobPriority::kBatch;
  sim::Tick deadline_ps = 0;
  std::function<void(const struct JobResult&)> on_done;
};

/// Completion record of one runtime job.
struct JobResult {
  uint64_t job_id = 0;
  JobKind kind = JobKind::kSelect;
  Status status;                ///< OK, or the cause after lanes failed
  uint64_t matches = 0;         ///< select/probe: qualifying rows
  int64_t agg_value = 0;        ///< aggregate: folded result
  BitVector bitmap;             ///< select/probe: merged, logical row order
  /// Group-by: key -> {aggregate, row count}, merged across every device's
  /// bucket-window passes.
  // ndp-lint: bounded-queue-ok result payload: one entry per distinct key of one group-by job
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  sim::Tick submitted_ps = 0;
  sim::Tick completed_ps = 0;
  uint64_t leases = 0;          ///< ownership leases spent on this job
};

/// \brief The runtime: queues, lease loop, admission, stealing, recovery.
///
/// One jafar::Driver per array device (the fault PR's watchdog/retry/
/// writeback-checksum path, reused unchanged). Stats register under
/// "array.runtime." in the array's registry; keep the runtime alive for as
/// long as that registry is read.
class NdpRuntime {
 public:
  using JobId = uint64_t;
  using JobCallback = std::function<void(const JobResult&)>;

  NdpRuntime(DimmArray* array, RuntimeConfig config = RuntimeConfig{});
  ~NdpRuntime();
  NDP_DISALLOW_COPY_AND_ASSIGN(NdpRuntime);

  /// Enqueues an asynchronous range select over a placed column. `on_done`
  /// (optional) fires from the event loop at completion; the result is also
  /// retrievable via result() after Drain()/WaitFor().
  Result<JobId> SubmitSelect(const PlacedColumn& col, int64_t lo, int64_t hi,
                             JobPriority priority = JobPriority::kBatch,
                             JobCallback on_done = {});
  /// Enqueues an asynchronous full-column aggregate (kSum/kMin/kMax/kCount).
  Result<JobId> SubmitAggregate(const PlacedColumn& col, jafar::AggKind kind,
                                JobPriority priority = JobPriority::kBatch,
                                JobCallback on_done = {});

  /// Enqueues a semijoin candidate probe of a placed join-key column against
  /// a Bloom `filter_image` (`filter_words` = image size, a power of two;
  /// built with jafar::BloomBitIndex over the build keys). The result bitmap
  /// marks candidate rows — a superset with no false negatives; callers
  /// refine against the exact build-key set (MakeSemiJoinHook does both).
  /// The image is laid into every probing device's rank on first dispatch
  /// there and re-read by the device's timed filter-load at each lease.
  Result<JobId> SubmitProbe(const PlacedColumn& col,
                            std::vector<uint64_t> filter_image,
                            JobPriority priority = JobPriority::kBatch,
                            JobCallback on_done = {});

  /// Enqueues a grouped aggregation of vals[i] by keys[i]. Both columns must
  /// be placed with identical splits (EnsurePlaced's uniform split qualifies
  /// when both have the same row count). Covers arbitrary int64 key domains
  /// by shaping each lease to one device bucket window (see DESIGN.md §12);
  /// clustered keys give full-lease windows, adversarial keys stay exact.
  Result<JobId> SubmitGroupBy(const PlacedColumn& keys,
                              const PlacedColumn& vals, jafar::AggKind kind,
                              JobPriority priority = JobPriority::kBatch,
                              JobCallback on_done = {});

  /// One select of a batch-admission burst, the serving ingress's entry: it
  /// carries a deadline, and the ingress drains its rings in bursts and
  /// admits the whole burst before any lane wakes, so one poke pass (not one
  /// per request) amortizes queue/lease overhead. A retry is a burst of one.
  /// A burst select's JobResult goes to its `opts.on_done` and nowhere else:
  /// result() is always null for it, and the runtime keeps nothing of the
  /// job once the callback has run.
  struct BurstSelect {
    const PlacedColumn* col = nullptr;
    int64_t lo = 0, hi = 0;
    SubmitOptions opts;
  };
  /// Admits every select in `burst`, then wakes the lanes once. Entry i of
  /// the result corresponds to burst[i].
  Result<std::vector<JobId>> SubmitSelectBurst(std::vector<BurstSelect> burst);

  /// Pumps the array's event queue until every submitted job completed.
  Status Drain();
  /// Pumps until one specific job completed (other jobs keep progressing).
  /// OK at once for a job that already finished; NotFound for an id this
  /// runtime never issued.
  Status WaitFor(JobId id);

  /// Completed result of a public Submit* job (SubmitSelect, SubmitAggregate,
  /// SubmitProbe, SubmitGroupBy), kept until the runtime is destroyed; null
  /// while in flight, for an unknown id, for a burst select (its result goes
  /// only to its callback) and for a hook's job (the hook takes it).
  const JobResult* result(JobId id) const;

  /// Places `col` on first use (cached per column identity) and runs the
  /// predicate through the runtime as an interactive job — the db-layer
  /// pushdown entry (QueryContext::ndp_select). A one-conjunct batch hook.
  db::NdpSelectHook MakePushdownHook();
  /// Batch form: submits every conjunct concurrently, waits for all, and
  /// returns one position list per conjunct (QueryContext::ndp_select_batch).
  db::NdpSelectBatchHook MakePushdownBatchHook();
  /// Semijoin pushdown (QueryContext::ndp_semi_join): builds the Bloom image
  /// and exact key set from the build side host-side, probes the key column
  /// on-device, and refines candidates to a bit-identical semijoin result.
  db::NdpSemiJoinHook MakeSemiJoinHook();
  /// Group-by pushdown (QueryContext::ndp_group_by): places both columns and
  /// runs a device-partial SUM aggregation, returning key -> {sum, count}.
  db::NdpGroupByHook MakeGroupByHook();

  LeaseController& controller(uint32_t channel);
  const RuntimeConfig& config() const { return config_; }
  uint32_t lanes_alive() const;

 private:
  struct Chunk;
  struct Job;
  struct Lane;

  /// `burst`: a SubmitSelectBurst entry — lanes are not poked (the burst
  /// pokes once at its end) and the result goes to on_done only.
  Result<JobId> Submit(const PlacedColumn& col, JobKind kind, int64_t lo,
                       int64_t hi, jafar::AggKind agg, SubmitOptions opts,
                       bool burst, const PlacedColumn* vals = nullptr,
                       std::vector<uint64_t> filter_image = {});
  /// A hook's wait-and-consume: waits for `id`, moves its JobResult out of
  /// results_ (erasing the entry), and returns the job's status if it failed.
  Result<JobResult> TakeResult(JobId id);
  /// True (and fails + counts the job) when its deadline has already passed.
  bool CancelIfExpired(Job& job);
  Result<PlacedColumn*> EnsurePlaced(const db::Column& col);

  /// Inserts into the lane's (priority, seq)-ordered queue without waking
  /// anyone; Submit uses it to place a whole multi-part job before any poke.
  void InsertChunk(Lane& lane, std::unique_ptr<Chunk> chunk);
  void EnqueueChunk(Lane& lane, std::unique_ptr<Chunk> chunk);
  void Poke(Lane& lane);
  void MaybeDispatch(Lane& lane);
  /// MaybeDispatch's tail, after any utilization refresh: admission control
  /// and lease start.
  void DispatchNow(Lane& lane);
  void StartLease(Lane& lane);
  void OnOwnershipAcquired(Lane& lane);
  void OnLeaseDone(Lane& lane, const Status& status, uint64_t lease_matches);
  void OnOwnershipReleased(Lane& lane);
  void OnWindowEnd(Lane& lane);
  void BeginWindow(Lane& lane);
  /// Samples the lane's channel counters *on the channel's partition* (a
  /// port round-trip in partitioned mode; synchronous in single-wheel mode)
  /// and hands the cumulative (busy_cycles, requests) to `k` back on the
  /// host partition. The §3.3 estimator thus never reads another wheel's
  /// state mid-epoch.
  void SampleChannel(Lane& lane, std::function<void(double, double)> k);
  /// Feeds the elapsed host window to the lane's LeaseController (through
  /// SampleChannel), then runs `k`. Skips the observation (still running
  /// `k`) when a sample for this lane is already in flight.
  void ObserveWindowThen(Lane& lane, std::function<void()> k);
  /// The only way a chunk comes to life: a fresh (priority, seq) queue key
  /// and one more live chunk on `job`.
  std::unique_ptr<Chunk> NewChunk(Job& job, JobPriority priority,
                                  uint64_t col_base, uint64_t out_base,
                                  uint64_t val_base, uint64_t first_row,
                                  uint64_t rows);
  /// The only way a chunk ends (finished, purged, stolen empty, or re-homed
  /// off a dead lane): completes a live job when this was its last chunk.
  /// The caller still owns (and disposes of) the chunk object itself.
  void EndChunk(Job& job);
  /// The only way a job ends: records its JobResult (burst selects hand it
  /// to the callback only), counts it completed or failed, fires its
  /// callback, and retires the job unless a failed job's lease is still in
  /// flight (that lease's EndChunk retires it).
  void FinishJob(Job& job, const Status& status);
  /// Marks the job failed, purges its queued chunks, and finishes it. No-op
  /// on an already failed job; in-flight sibling leases end their chunks
  /// when they come back.
  void FailJob(Job& job, const Status& status);
  void TrySteal(Lane& thief);
  void HandleLaneFailure(Lane& lane, const Status& status);
  /// Moves `rows` starting at `src_addr`/`first_row` to `target` through a
  /// host-mediated copy with modeled latency. False when the target rank has
  /// no room (the caller must not shrink the source in that case).
  bool TransplantRows(Lane& target, Job& job, JobPriority priority,
                      uint64_t src_addr, uint64_t val_src_addr,
                      uint64_t first_row, uint64_t rows);
  /// Re-homes rows whose lane cannot run them (a dead placement home or a
  /// failed lane) onto the least loaded live lane. Fails the job with
  /// `no_lane_status` when every lane is dead, or when the target rank has
  /// no room for the copy.
  void Reassign(Job& job, JobPriority priority, uint64_t src_addr,
                uint64_t val_src_addr, uint64_t first_row, uint64_t rows,
                const Status& no_lane_status);
  uint64_t StealableRows(const Lane& lane) const;
  /// The live lane with the fewest stealable rows (ties go to the lowest
  /// index), or null when every lane is dead. Rerouting and failure
  /// reassignment both pick their target this way.
  Lane* LeastLoadedLiveLane() const;
  /// Lazily allocates + lays the job's Bloom image into the lane's rank
  /// (functional write; the modeled cost is the device's timed filter-load
  /// reads at every probe lease) and returns its base address there.
  Result<uint64_t> EnsureProbeFilter(Lane& lane, Job& job);
  /// Folds one device bucket window (or host-seam row) into job.groups.
  static void MergeGroup(Job& job, int64_t key, int64_t agg, int64_t count);
  /// Estimated time to drain the lane's backlog: stealable rows x the lane's
  /// trusted ps/row EWMA (untrusted lanes borrow the trusted-lane mean).
  double EtaScore(const Lane& lane) const;
  /// Re-evaluates heavy-hitter flags after a lease; pokes idle lanes when a
  /// lane is newly flagged so they volunteer as steal targets immediately.
  void UpdateHeavyHitters();
  double ReadChannelBusyCycles(uint32_t channel) const;
  double ReadChannelRequests(uint32_t channel) const;
  sim::Tick BusCyclesToPs(uint64_t cycles) const;

  DimmArray* array_;
  RuntimeConfig config_;
  sim::EventQueue& eq_;
  // ndp-lint: bounded-queue-ok one lane per array device, built in the constructor
  std::vector<std::unique_ptr<Lane>> lanes_;
  // ndp-lint: bounded-queue-ok one controller per memory channel, built in the constructor
  std::vector<std::unique_ptr<LeaseController>> controllers_;
  /// A job is erased once its result is recorded and its last chunk has
  /// ended; a failed job whose lease is still out waits for that lease.
  // ndp-lint: bounded-queue-ok in-flight jobs only, retired at completion; the serving door caps them at IngressConfig::slots
  std::map<JobId, std::unique_ptr<Job>> jobs_;
  /// Results of public Submit* jobs, for result(id). Burst selects never
  /// land here and hooks take theirs out (TakeResult).
  // ndp-lint: bounded-queue-ok grows only with public Submit* calls, whose caller reads result(id); the serving ingress and the db hooks keep nothing here
  std::map<JobId, JobResult> results_;
  /// A hook's placement of one column, with the values buffer it placed.
  struct ColumnPlacement {
    std::shared_ptr<const db::Column::Buffer> buffer;
    PlacedColumn placed;
  };
  // ndp-lint: bounded-queue-ok one placement per distinct column a hook pushed down, not per request
  std::map<const db::Column*, ColumnPlacement> placed_;
  JobId next_job_id_ = 1;
  uint64_t next_chunk_seq_ = 1;
  uint32_t active_jobs_ = 0;

  /// Registered under "array.runtime.".
  struct RuntimeCounters {
    uint64_t jobs_submitted = 0;
    uint64_t jobs_completed = 0;
    uint64_t jobs_failed = 0;
    uint64_t leases = 0;
    uint64_t admission_defers = 0;
    uint64_t steals = 0;
    uint64_t stolen_pages = 0;
    uint64_t lane_failures = 0;
    uint64_t chunks_reassigned = 0;
    uint64_t deadline_cancellations = 0;
    uint64_t hh_flags = 0;   ///< lanes newly flagged as heavy hitters
    uint64_t eta_steals = 0; ///< steals where ETA picked a different victim
  } counters_;

  // ndp-lint: bounded-queue-ok one registry path per memory channel, built in the constructor
  std::vector<std::string> busy_paths_rc_, busy_paths_wc_;
  // ndp-lint: bounded-queue-ok one registry path per memory channel, built in the constructor
  std::vector<std::string> req_paths_rd_, req_paths_wr_;
};

}  // namespace ndp::core
