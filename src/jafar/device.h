// The JAFAR device model: an integrated circuit mounted on the DIMM (§2.2,
// "Physical Implementation") that issues its own ACT/RD/WR/PRE commands to
// its rank through the shared channel — obeying exactly the same DDR3 timing
// rules as the host memory controller — consumes words from the IO buffer at
// the rate the accel schedule derived, and writes its output bitmap back to a
// pre-programmed DRAM location every time the n-bit output buffer fills.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>

#include "dram/dram_system.h"
#include "jafar/config.h"
#include "jafar/jobs.h"
#include "sim/event_queue.h"
#include "util/bitvector.h"
#include "util/stats_registry.h"
#include "util/status.h"

namespace ndp::fault {
class FaultInjector;
}  // namespace ndp::fault

namespace ndp::jafar {

/// Per-job and lifetime counters of one device.
struct DeviceStats {
  uint64_t jobs_completed = 0;
  uint64_t jobs_failed = 0;  ///< aborted by watchdog or failed (ECC UE, ...)
  uint64_t rows_processed = 0;
  uint64_t matches = 0;
  uint64_t bursts_read = 0;
  uint64_t bursts_written = 0;
  uint64_t activates = 0;
  sim::Tick data_wait_ps = 0;    ///< CAS-latency time spent waiting for data
  sim::Tick engine_busy_ps = 0;  ///< time the filter datapath was computing
  sim::Tick total_busy_ps = 0;   ///< wall time from job start to completion
  double energy_fj = 0.0;
  uint64_t polite_backoffs = 0;  ///< deferrals to host traffic (polite mode)
  uint64_t refresh_backoffs = 0;  ///< deferrals to a host refresh steal-back

  /// The §2.2 observation: fraction of each access latency spent waiting for
  /// DRAM rather than computing.
  double WaitFraction() const {
    sim::Tick denom = data_wait_ps + engine_busy_ps;
    return denom ? static_cast<double>(data_wait_ps) / static_cast<double>(denom)
                 : 0.0;
  }

  /// Per-run stats as the difference against a snapshot taken before the run.
  /// All fields are monotonic accumulators, so plain subtraction is exact.
  DeviceStats DeltaSince(const DeviceStats& before) const {
    DeviceStats d;
    d.jobs_completed = jobs_completed - before.jobs_completed;
    d.jobs_failed = jobs_failed - before.jobs_failed;
    d.rows_processed = rows_processed - before.rows_processed;
    d.matches = matches - before.matches;
    d.bursts_read = bursts_read - before.bursts_read;
    d.bursts_written = bursts_written - before.bursts_written;
    d.activates = activates - before.activates;
    d.data_wait_ps = data_wait_ps - before.data_wait_ps;
    d.engine_busy_ps = engine_busy_ps - before.engine_busy_ps;
    d.total_busy_ps = total_busy_ps - before.total_busy_ps;
    d.energy_fj = energy_fj - before.energy_fj;
    d.polite_backoffs = polite_backoffs - before.polite_backoffs;
    d.refresh_backoffs = refresh_backoffs - before.refresh_backoffs;
    return d;
  }
};

/// \brief One JAFAR unit, bound to one rank of one channel.
class Device {
 public:
  /// `dram` supplies both timing (channel) and functional contents (backing
  /// store). `channel_index`/`rank_index` locate the DIMM this unit sits on.
  /// `stats` (optional) mounts the device's counters into a registry under
  /// the scope's prefix.
  Device(dram::DramSystem* dram, uint32_t channel_index, uint32_t rank_index,
         DeviceConfig config, const StatsScope& stats = {});
  ~Device();  // out of line: BankScan is incomplete here
  NDP_DISALLOW_COPY_AND_ASSIGN(Device);

  /// Starts one job of any kind; one job at a time. `on_done` receives the
  /// job's Completion (OK, or the cause of an asynchronous failure such as
  /// an uncorrectable ECC error) unless AbortJob reclaims the device first.
  /// Fails with DeviceBusy if a job is running, FailedPrecondition if
  /// ownership is required but not held, and InvalidArgument/Unimplemented
  /// if the job does not fit this device (addresses outside its rank,
  /// misalignment or a byte length that overflows, a datapath without the
  /// kind's engine).
  Status Start(const JobDescriptor& job,
               std::function<void(const Completion&)> on_done);

  bool busy() const { return busy_; }
  const DeviceStats& stats() const { return stats_; }
  const DeviceConfig& config() const { return config_; }
  uint32_t channel_index() const { return channel_index_; }
  uint32_t rank_index() const { return rank_index_; }
  dram::DramSystem* dram() { return dram_; }
  /// The wheel this unit schedules on: its channel's partition queue in
  /// partitioned mode, the system's shared queue otherwise.
  sim::EventQueue* event_queue() const { return eq_; }

  // -- Fault injection & recovery (src/fault) -------------------------------

  /// Attaches a seeded fault source. Null (the default) means no faults and
  /// no draws.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// FNV-1a checksum over every output-bitmap word the most recent
  /// select/row-store/probe job wrote back, in flush order. The driver
  /// recomputes it from DRAM to detect result corruption (writeback
  /// verification).
  uint64_t last_result_checksum() const { return last_result_checksum_; }

  /// Hard-resets a hung or runaway job: strands all in-flight sequencer
  /// events (epoch guard), settles timing stats, marks the job failed and
  /// frees the device WITHOUT invoking the completion callback. No-op when
  /// idle, so a watchdog may race a completion harmlessly. This is the
  /// recovery path a real driver reaches through the device reset register.
  void AbortJob();

 private:
  /// The v2 (bank-level) scan sequencer (jafar/bank_scan.h). A nested class,
  /// so it drives the shell's private sequencer and job state directly.
  class BankScan;

  /// What one job kind streams through the loop (Step): plain data, filled
  /// in by the kind's Validate.
  struct StreamSpec {
    uint64_t rows = 0;                    ///< rows (row-store: tuples)
    uint64_t cols[2] = {0, 0};            ///< column bases, fetched in order
    uint32_t num_cols = 1;
    uint32_t stride = 8;                  ///< bytes per row in every column
    std::optional<uint64_t> bitmap = {};  ///< pre-filter, 512 rows per burst
    uint64_t step_bursts = 1;             ///< bursts per column per step
    /// A bitmap-producing scan (select, row-store, probe): draws a stall per
    /// burst, runs on v2's BankScan when the device has one, and writes its
    /// output buffer to `out`, merged under `out_mask`.
    bool scan = false;
    uint64_t out = 0;
    uint64_t out_mask = ~uint64_t{0};
    /// Continue through ContinueWhenEngineReady's input-FIFO throttle.
    bool throttle = true;
    /// The per-step write-back waits until the engine has finished (sort).
    bool writeback_after_engine = false;
  };
  struct EngineCost {  ///< engine time and dynamic energy of one step
    sim::Tick ps = 0;
    double fj = 0.0;
  };
  struct BurstRun {  ///< `bursts` consecutive bursts from `addr`
    uint64_t addr = 0;
    uint64_t bursts = 0;
  };
  struct Region {  ///< `count` elements of `elem_bytes` at `base`
    const char* name;
    uint64_t base;
    uint64_t count;
    uint64_t elem_bytes;
    bool aligned = true;  ///< must start on a burst
  };

  /// Validates that every region lies within this device's rank (a byte
  /// length that overflows 64 bits or runs past the installed capacity is
  /// InvalidArgument), then that the aligned ones start on a burst.
  Status CheckRegions(std::initializer_list<Region> regions) const;
  /// CheckRegions on what a StreamSpec names: its columns, its pre-filter
  /// bitmap and a scan's bitmap output. Validate checks any other region.
  Status CheckStreams(const StreamSpec& spec) const;

  // -- What each kind supplies, dispatched with std::visit on the job.
  //    Validate: admission checks, and the kind's StreamSpec. Begin: latch
  //    the kind's state once the invocation overhead has elapsed, then Step
  //    (default: nothing to latch).
  //    Fold: the functional work on rows [cursor_rows_, last) of a fetched
  //    step; returns the rows consumed (a scan stops early once its output
  //    buffer is full). Cost: the engine time of a step that folded `rows`
  //    rows (default: one burst of words at the select comparator's rate).
  //    WriteBack: the functional write of buffered output, returning the
  //    bursts to time; mid-job (final = false) only a full buffer, or sort's
  //    block (default: a scan's bitmap). --------------------------------------
  Status Validate(const SelectJob& job, StreamSpec* spec) const;
  Status Validate(const AggregateJob& job, StreamSpec* spec) const;
  Status Validate(const ProjectJob& job, StreamSpec* spec) const;
  Status Validate(const RowStoreJob& job, StreamSpec* spec) const;
  Status Validate(const SortJob& job, StreamSpec* spec) const;
  Status Validate(const GroupByJob& job, StreamSpec* spec) const;
  Status Validate(const ProbeJob& job, StreamSpec* spec) const;
  template <typename J>
  void Begin(const J&) {
    Step();
  }
  void Begin(const AggregateJob& job);
  void Begin(const GroupByJob& job);
  void Begin(const ProbeJob& job);
  uint64_t Fold(const SelectJob& job, uint64_t last);
  uint64_t Fold(const AggregateJob& job, uint64_t last);
  uint64_t Fold(const ProjectJob& job, uint64_t last);
  uint64_t Fold(const RowStoreJob& job, uint64_t last);
  uint64_t Fold(const SortJob& job, uint64_t last);
  uint64_t Fold(const GroupByJob& job, uint64_t last);
  uint64_t Fold(const ProbeJob& job, uint64_t last);
  template <typename J>
  EngineCost Cost(const J& job, uint64_t rows) const;
  EngineCost Cost(const SortJob& job, uint64_t rows) const;
  EngineCost Cost(const GroupByJob& job, uint64_t rows) const;
  EngineCost Cost(const ProbeJob& job, uint64_t rows) const;
  template <typename J>
  BurstRun WriteBack(const J& job, bool final);
  BurstRun WriteBack(const AggregateJob& job, bool final);
  BurstRun WriteBack(const ProjectJob& job, bool final);
  BurstRun WriteBack(const SortJob& job, bool final);
  BurstRun WriteBack(const GroupByJob& job, bool final);
  /// Buffers one bit per row from the cursor up to `last` (`pass(r)`),
  /// stopping once the output buffer is full; returns the rows buffered.
  template <typename Pass>
  uint64_t FillBitmap(uint64_t last, Pass pass);
  /// Reads the column at `base` (elements of type T) for the rows
  /// FillBitmap(last) will take into `buf`, with one store read; element i
  /// of the result is row cursor_rows_ + i.
  template <typename T>
  const T* FetchRows(uint64_t base, uint64_t last, std::vector<T>* buf);
  /// Calls `fold(r)` for every row up to `last` whose `bitmap` bit is set
  /// (every row without a bitmap); returns the rows streamed.
  template <typename F>
  uint64_t ForSelected(std::optional<uint64_t> bitmap, uint64_t last, F fold);

  dram::Channel& channel() { return dram_->channel(channel_index_); }
  const dram::DramTiming& timing() const { return dram_->timing(); }
  sim::Tick BusCycles(uint32_t n) const {
    return n * dram_->timing().tck_ps;
  }

  // -- Sequencer: issues one command chain; all jobs are built on these. ----

  /// Issues `cmd` as soon as legal (and, in polite mode, as soon as the host
  /// controller is idle), then calls `next(done_tick)`. For column commands,
  /// if a third party (host refresh in polite mode) closed the target row
  /// between scheduling and issue, `on_stale` is invoked instead so the
  /// caller can re-open the row. `defer_to_refresh` controls the §3.3
  /// refresh steal-back backoff: generations whose command chains must not
  /// yield mid-flight (v2 holds armed banks the controller refuses to
  /// refresh) pass false and yield at their own barriers instead.
  void IssueWhenReady(dram::Command cmd, std::function<void(sim::Tick)> next,
                      std::function<void()> on_stale = nullptr,
                      bool defer_to_refresh = true);

  /// Reads or writes (`type`) the bursts of `run` one after another, each
  /// once its row is open (PRE/ACT as needed), then calls `next` with the
  /// last one's data tick (at once, with Now(), when there are none). A
  /// write's functional bytes must already be in the backing store; each
  /// read takes its ECC fault draw as its data arrives.
  void BurstChain(dram::CommandType type, BurstRun run,
                  std::function<void(sim::Tick)> next);

  // -- The stream loop: fetch -> fold -> charge -> flush -> continue. ------

  /// One step: fetches the pre-filter bursts not fetched yet, then each
  /// column's bursts of the step (FetchColumn), folds the rows, charges the
  /// engine, flushes a full buffer and continues (EndStep). Past the last
  /// row, EndStream. v2's BankScan takes over a scan kind's whole stream.
  void Step();
  void FetchColumn(uint32_t c);
  void EndStep(sim::Tick data_done);
  /// Folds rows up to `last` with the kind's Fold and advances the cursor.
  void FoldRows(uint64_t last);
  /// Charges `proc` of engine time starting once both the data
  /// (`data_done`) and the engine are ready, plus `energy_fj`.
  void ChargeEngine(sim::Tick data_done, sim::Tick proc, double energy_fj);
  void ContinueWhenEngineReady();
  /// Runs the kind's WriteBack and times its bursts, then `next`.
  void Flush(bool final, std::function<void(sim::Tick)> next);
  /// The final write-back, then FinishJob.
  void EndStream();
  void FinishJob();

  /// Fails the running job with `st`: strands in-flight events, settles
  /// stats and reports `st` through the completion callback.
  void FailJob(Status st);

  /// The teardown every job end shares (finish, failure, abort): releases
  /// v2's armed bank filters, closes a probe's filter-load window,
  /// strands in-flight events, settles the busy-time stamp, frees the unit.
  void EndJob();

  /// Counts `n` result rows of the running job (Completion::matches) and in
  /// the lifetime stats.
  void CountMatches(uint64_t n) {
    job_matches_ += n;
    stats_.matches += n;
  }

  /// Epoch-guarded scheduling: the closure is dropped (not run) if the job
  /// it belongs to was aborted or finished before the event fires. Every
  /// sequencer continuation goes through these so AbortJob can cancel a job
  /// without walking the event queue.
  void ScheduleAtGuarded(sim::Tick t, std::function<void()> fn);

  /// Applies one drawn read-path fault to the burst at `burst_addr` through
  /// the SECDED model. Correctable: corrected in-flight, scrub counter bumps,
  /// returns true (job continues). Uncorrectable: fails the job, returns
  /// false. No-op (true) without an injector.
  bool HandleReadFault(uint64_t burst_addr);

  dram::DramSystem* dram_;
  uint32_t channel_index_;
  uint32_t rank_index_;
  DeviceConfig config_;
  sim::EventQueue* eq_;
  std::unique_ptr<BankScan> bank_scan_;  ///< set iff generation is v2

  bool busy_ = false;
  std::function<void(const Completion&)> on_done_;
  DeviceStats stats_;
  uint64_t job_matches_ = 0;  ///< result rows of the running job

  fault::FaultInjector* injector_ = nullptr;  ///< not owned; may be null
  uint64_t job_epoch_ = 0;       ///< bumped on job end/abort to strand events
  uint64_t last_result_checksum_ = 0;  ///< FNV-1a over flushed bitmap words

  // Job state (one job at a time).
  std::optional<JobDescriptor> job_;
  StreamSpec stream_;
  std::vector<int64_t> groupby_sram_;  ///< per bucket {aggregate, count}
  std::vector<uint64_t> probe_sram_;  ///< Bloom image latched by Begin(ProbeJob)
  std::vector<int64_t> fold_words_;   ///< a scan step's rows (FetchRows)
  std::vector<int32_t> fold_halves_;  ///< the same, packed 32-bit elements

  uint64_t cursor_rows_ = 0;       ///< rows processed so far
  uint64_t bitmap_rows_ = 0;       ///< rows whose pre-filter bits are fetched
  uint64_t step_offset_ = 0;       ///< the step's first burst, from each base
  uint64_t step_last_ = 0;         ///< one past the step's last row
  uint64_t step_bursts_ = 0;       ///< bursts per column in the step
  sim::Tick engine_ready_at_ = 0;  ///< datapath pipeline availability
  BitVector pending_bits_;         ///< output buffer (n bits)
  uint64_t pending_bit_count_ = 0;
  uint64_t bitmap_write_cursor_ = 0;  ///< bytes of bitmap already written
  int64_t agg_acc_ = 0;
  std::vector<int64_t> project_out_buffer_;
  uint64_t project_emitted_ = 0;
};

}  // namespace ndp::jafar
