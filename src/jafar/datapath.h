// The generation-specific half of the JAFAR device. Device (device.h) is the
// generation-neutral shell — job admission, the driver protocol, watchdog /
// retry / checksum recovery, runtime-lane integration — and DatapathModel
// owns everything that differs between device generations: how a scan job is
// sequenced into DRAM commands and how the comparators are timed.
//
// DatapathModel is the ONLY friend of Device. Concrete generations never
// touch Device internals directly; they reach the shell exclusively through
// the protected forwarders below, which keeps the shell/datapath seam
// explicit and auditable. Generation dispatch happens in exactly one place:
// MakeDatapathModel (the factory in datapath.cc). Everywhere else must go
// through this interface (enforced by the ndp-lint `generation-dispatch`
// rule).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "dram/command.h"
#include "dram/dram_system.h"
#include "jafar/config.h"
#include "jafar/generation.h"
#include "jafar/jobs.h"
#include "sim/time.h"
#include "util/stats_registry.h"

namespace ndp::jafar {

class Device;
struct DeviceStats;

/// \brief One device generation's scan datapath: sequencer + comparator
/// timing. Constructed once per Device by MakeDatapathModel.
class DatapathModel {
 public:
  explicit DatapathModel(Device* dev) : dev_(dev) {}
  virtual ~DatapathModel() = default;
  DatapathModel(const DatapathModel&) = delete;
  DatapathModel& operator=(const DatapathModel&) = delete;

  virtual DeviceGeneration generation() const = 0;

  /// One-time DRAM-side setup at device construction (v2 installs the bank
  /// filter timing on its rank) and registration of generation-specific
  /// counters under the device's stats scope.
  virtual void Attach(const StatsScope& stats) { (void)stats; }

  /// Entry point for scan jobs (select, row-store and probe): called once,
  /// after the invocation overhead has elapsed, with the job state already
  /// staged in the shell. Drives the entire scan and ends it with FinishJob()
  /// (or FailJob() via the shell's fault paths).
  virtual void BeginScan() = 0;

  /// Entry point for semijoin probe jobs. Non-virtual and shared by every
  /// generation: brackets the filter-image preload (DRAM reads latched into
  /// the probe SRAM, with the shadow checker's load window held open) and
  /// then hands over to the generation's BeginScan sequencer.
  void BeginProbe();

  /// Job-teardown hook, called on every job end — clean finish, failure and
  /// driver abort alike. Generations holding DRAM-side state (v2's armed
  /// bank filters) force-release it here; must be idempotent and must not
  /// schedule events.
  virtual void OnJobTeardown() {}

 protected:
  // -- Forwarders into the device shell. DatapathModel is Device's single
  // friend; concrete generations access the shell solely through these. ----

  const DeviceConfig& config() const;
  DeviceStats& stats();
  sim::EventQueue* eq() const;
  uint32_t rank_index() const;
  uint32_t channel_index() const;
  dram::DramSystem& dram();
  dram::Channel& channel();
  const dram::DramTiming& timing() const;
  sim::Tick BusCycles(uint32_t n) const;

  // Job state staged by the shell's Start entry point.
  bool is_rowstore() const;
  bool is_probe() const;
  const SelectJob& select_job() const;
  const RowStoreJob& rowstore_job() const;
  const ProbeJob& probe_job() const;
  /// Bloom membership of `key` against the preloaded probe SRAM.
  bool EvalProbeKey(int64_t key) const;
  uint64_t cursor_rows() const;
  void set_cursor_rows(uint64_t rows);
  sim::Tick engine_ready_at() const;
  void set_engine_ready_at(sim::Tick t);
  void add_matches(uint64_t n);

  // Output-bitmap buffer (n bits, flushed by the shell's writeback path).
  void AppendBit(bool set);
  uint64_t pending_bit_count() const;

  // Shell sequencer primitives (epoch-guarded; see device.h).
  void IssueWhenReady(dram::Command cmd, std::function<void(sim::Tick)> next,
                      std::function<void()> on_stale = nullptr,
                      bool defer_to_refresh = true);
  void OpenRow(const dram::DramLocation& loc, std::function<void()> next);
  void ReadBurst(uint64_t addr, std::function<void(sim::Tick)> next);
  void ReadBurstChain(uint64_t addr, uint64_t bursts,
                      std::function<void(sim::Tick)> on_last_data);
  void FlushBitmap(std::function<void()> next);
  void FinishJob();
  void FailJob(Status st);
  void ScheduleAtGuarded(sim::Tick t, std::function<void()> fn);
  void ScheduleAfterGuarded(sim::Tick delta, std::function<void()> fn);

  // Functional reads against the backing store.
  int64_t ReadValue(uint64_t addr) const;
  uint64_t Read64(uint64_t addr) const;

  // Fault-injection draws (no-ops when faults are compiled out or no
  // injector is attached).
  bool DrawStallAtBurst();
  bool HandleReadFault(uint64_t burst_addr);

  // Host-controller interaction (refresh steal-back, §3.3).
  bool RefreshClaims() const;

 private:
  Device* dev_;
};

/// The single place that branches on the generation. Everything downstream
/// of Device's constructor sees only the interface.
std::unique_ptr<DatapathModel> MakeDatapathModel(DeviceGeneration gen,
                                                 Device* dev);

}  // namespace ndp::jafar
