// Host-side driver for a JAFAR unit. Implements the paper's invocation model:
//  * rank ownership hand-off through the memory controller's MR3/MPR write
//    (§2.2, "Coordinating DRAM Access");
//  * one submit path for every job kind: the descriptor goes to the device,
//    and the job ends in exactly one Completion (OK or the failure cause);
//  * the Figure 2 API, `select_jafar(col_data, range_low, range_high,
//    out_buf, num_input_rows, &num_output_rows)`, called once per (pinned)
//    virtual-memory page because JAFAR relies on the CPU for translation:
//    Submit splits a select into pages itself;
//  * completion signalling through a polled flag word in shared memory;
//  * recovery: a watchdog timer armed for every dispatched attempt,
//    writeback checksum verification of result bitmaps, and
//    capped-exponential-backoff retries, so a hung/faulted device job
//    surfaces as a retried attempt rather than a wedged query.
#pragma once

#include <cstdint>
#include <functional>

#include "fault/retry.h"
#include "jafar/device.h"

namespace ndp::jafar {

/// Completion flag value written to SelectJob::flag_addr when done.
inline constexpr uint64_t kDoneFlagValue = 1;
/// Per-row term of the watchdog deadline (DriverConfig::watchdog_base_ps +
/// this x job rows).
inline constexpr sim::Tick kWatchdogPerRowPs = 10'000;

struct DriverConfig {
  /// Invocation granularity: Figure 2's API is per virtual-memory page.
  // ndp-lint: never-set-ok driver_test sweeps it (4 KB vs 32 KB pages)
  uint64_t page_bytes = 4096;

  // -- Recovery -------------------------------------------------------------
  /// Retry budget for retryable job failures (timeouts, ECC machine checks,
  /// checksum mismatches). Validation errors are never retried.
  fault::RetryPolicy retry;
  /// Watchdog deadline = base + kWatchdogPerRowPs x job rows, armed at every
  /// dispatch. Exclusive-ownership page jobs complete in a few microseconds,
  /// so 50 µs of base slack only fires on a genuinely wedged device.
  sim::Tick watchdog_base_ps = 50'000'000;
};

/// Recovery counters of one driver (registered under its stats scope).
struct DriverStats {
  uint64_t watchdog_fires = 0;     ///< jobs reclaimed by timeout
  uint64_t retries = 0;            ///< re-dispatched job attempts
  uint64_t checksum_errors = 0;    ///< writeback verification mismatches
  uint64_t device_errors = 0;      ///< jobs that failed asynchronously
  uint64_t permanent_failures = 0; ///< retry budget exhausted / non-retryable
};

/// \brief The driver: ownership hand-off, page chunking, recovery.
class Driver {
 public:
  Driver(Device* device, dram::MemoryController* controller,
         DriverConfig config = DriverConfig{}, const StatsScope& stats = {});
  NDP_DISALLOW_COPY_AND_ASSIGN(Driver);

  /// Programs MR3 to grant the device's rank to the accelerator; `done` fires
  /// when the MRS has taken effect.
  void AcquireOwnership(std::function<void(sim::Tick)> done);
  /// Returns the rank to the host memory controller.
  void ReleaseOwnership(std::function<void(sim::Tick)> done);

  /// Runs one job of any kind. A select is split into Figure-2 pages (a
  /// select's col_base must be page aligned); every other kind is one
  /// device invocation. Each attempt is watched by the watchdog, bitmap
  /// results are checksum-verified, and retryable failures are re-dispatched
  /// under the RetryPolicy.
  ///
  /// Contract, the same for every kind: a non-OK return means the driver
  /// itself refused the call (another Submit in flight, zero rows, an
  /// unaligned select) — nothing was dispatched and `on_done` never fires.
  /// After an OK return `on_done` fires exactly once, possibly before
  /// Submit returns; everything the device reports, including a rejected
  /// dispatch, arrives there as Completion::status. kStatus reads kBusy
  /// while the job runs, then kDone or kError.
  Status Submit(const JobDescriptor& job,
                std::function<void(const Completion&)> on_done);

  /// §4's hierarchical aggregation: covers a key domain of `num_groups`
  /// (starting at key 0) that may exceed the device's bucket SRAM by running
  /// one GroupBy pass per bucket window over the same data. The merged
  /// results land contiguously at job.out_base (num_groups x 16 bytes).
  /// `job.key_offset` is managed internally. Same contract as Submit; the
  /// Completion sums the passes and stops at the first failed one.
  Status HierarchicalGroupBy(GroupByJob job, uint32_t num_groups,
                             std::function<void(const Completion&)> on_done);

  const DriverStats& stats() const { return stats_; }

  Device* device() { return device_; }

 private:
  /// Watchdog deadline event; one is enough because the device runs one job
  /// at a time.
  struct WatchdogNode : sim::EventNode {
    Driver* driver = nullptr;

   protected:
    void Fire() override { driver->OnWatchdogFire(); }
  };

  void ArmWatchdog(uint64_t rows);
  void DisarmWatchdog();
  void OnWatchdogFire();

  // -- The attempt loop: start -> verify -> next page, retry, or finish. ----
  /// The device job of the next attempt: the next page of a select, the
  /// whole job otherwise.
  JobDescriptor NextPage() const;
  void StartAttempt(uint32_t attempt);
  void OnAttemptDone(const Completion& done);
  void HandleFailure(Status st);
  void Finish(Status st);
  /// True when the attempt's result bitmap in DRAM matches the checksum the
  /// device folded while writing it (or the kind writes no bitmap).
  bool VerifyWriteback() const;
  /// Submits bucket window `pass` of a HierarchicalGroupBy; its completion
  /// folds into `total` and submits the next window.
  Status SubmitGroupByPass(const GroupByJob& job, uint32_t pass,
                           uint32_t passes, Completion total,
                           std::function<void(const Completion&)> on_done);

  Device* device_;
  dram::MemoryController* controller_;
  DriverConfig config_;
  sim::EventQueue* eq_;
  DriverStats stats_;
  /// Dispatch-to-success latency of recovered (attempt > 1) jobs, in ps.
  ndp::Histogram recovery_latency_{0.0, 5.0e8, 50};

  WatchdogNode watchdog_;

  // The in-flight Submit.
  bool active_ = false;
  JobDescriptor job_;   ///< work not yet done (a select shrinks per page)
  JobDescriptor page_;  ///< the device job of the current attempt
  uint32_t attempt_ = 0;               ///< 1-based, current page
  sim::Tick first_dispatch_ps_ = 0;    ///< attempt 1 dispatch time
  Completion result_;
  std::function<void(const Completion&)> on_done_;
};

}  // namespace ndp::jafar
