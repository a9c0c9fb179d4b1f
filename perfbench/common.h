// Shared plumbing of the end-to-end benchmark: options, metric collection,
// exact percentiles, wall-clock spans, and the workload interface main.cc
// runs.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/column.h"
#include "jafar/config.h"
#include "sim/time.h"
#include "util/stats_registry.h"

namespace perfbench {

namespace sim = ndp::sim;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span dump path (traced runs); empty = none
};

/// Wall-clock seconds from a monotonic clock.
inline double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds this process has run. Unlike wall time it leaves out time the
/// process waited for a CPU, in the guest's run queue or stolen by the host,
/// so on a shared machine it is the steady measure of single-threaded work.
inline double CpuNow() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Metric values by name, each with its unit.
class Metrics {
 public:
  struct Entry {
    double value = 0;
    std::string unit;
  };

  void Set(const std::string& name, double value, const std::string& unit) {
    entries_[name] = Entry{value, unit};
  }
  double Value(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.value;
  }
  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, Entry> entries_;
};

/// Exact quantile over raw samples (nearest rank: the smallest sample with at
/// least q of the samples at or below it). Empty input returns 0.
double ExactQuantile(std::vector<double> samples, double q);

/// Wall-clock spans recorded from outside the simulator, around calls into
/// its public functions. Each span names the layer call, its parent span, and
/// optionally the simulated interval it covered. Null-safe: a null Tracer
/// records nothing, which is the untraced configuration.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t parent = -1;
    double wall_start = 0, wall_end = 0;
    sim::Tick sim_start = 0, sim_end = 0;
  };

  int64_t Begin(const std::string& name, sim::Tick sim_now = 0);
  void End(int64_t id, sim::Tick sim_now = 0);

  /// Total wall seconds of every span named `name`.
  double WallSeconds(const std::string& name) const;

  /// Writes the spans as a JSON array to `path`. False on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  ///< stack of open span ids (the parents)
};

/// RAII span; a null tracer makes it a no-op.
class Scoped {
 public:
  Scoped(Tracer* t, const std::string& name, sim::Tick sim_now = 0)
      : t_(t), id_(t ? t->Begin(name, sim_now) : -1) {}
  ~Scoped() {
    if (t_) t_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  int64_t id_;
};

/// Outcome accounting of one measured pass.
struct Outcome {
  uint64_t attempted = 0;  ///< operations issued
  uint64_t failed = 0;     ///< wrong answers, errors, or lost operations
  std::vector<std::string> errors;  ///< failed checks, human-readable

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  bool correct() const { return errors.empty() && failed == 0; }
};

/// One benchmark workload. main.cc calls Setup then Run for every
/// measured iteration on a fresh instance; Verify and the metric getters are
/// called on the first iteration's instance.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and the simulated system; timed as set-up.
  virtual void Setup(const Options& opts, Tracer* tracer) = 0;
  /// The measured phase; `tracer` is null in untraced iterations.
  virtual void Run(Tracer* tracer) = 0;
  /// Checks outputs against oracles and closes the accounting.
  virtual Outcome Verify() = 0;
  /// Canonical text of every simulated result; equal across iterations and
  /// sim thread counts, or the run is not deterministic.
  virtual std::string Digest() const = 0;
  /// Simulated end-to-end metrics (p50_us, p99_us, goodput_per_s, ok_frac).
  virtual void EndToEnd(Metrics* m) const = 0;
  /// Per-layer metrics of the traced iteration.
  virtual void PerLayer(const Tracer& tracer, Metrics* m) const = 0;
  /// Extra traced-run work with its own checks (the contend PDES repeat).
  virtual void TracedExtras(const Options& /*opts*/, Metrics* /*m*/,
                            Outcome* /*out*/) {}
};

// -- Shared helpers -----------------------------------------------------------

/// Peak resident set size of this process, MB.
double PeakRssMb();

/// `rows` values uniform in [0, 1M) drawn from `seed` (the Figure 3 dataset).
ndp::db::Column UniformColumn(uint64_t rows, uint64_t seed);

/// The v1 (rank-IO) DeviceConfig of DDR3-1600, derived from the accelerator
/// schedule under an "accel.derive" span.
ndp::jafar::DeviceConfig DeriveDeviceConfig(Tracer* tracer);

/// Aborts with a message when any NDP_* variable is set in the environment:
/// the simulator reads NDP_* knobs at construction, so an ambient one would
/// silently change the measured system.
void FailOnAmbientNdpEnv();

/// Sets the simulator's partition worker-thread count (read by PartitionSet
/// at construction).
void SetSimThreads(unsigned threads);

/// Adds every entry of `delta` into `acc` (sums counters across systems or
/// rungs; gauges are summed too, so only counters should be read back).
void Accumulate(ndp::StatsSnapshot* acc, const ndp::StatsSnapshot& delta);

// Per-layer metric families computed from registry deltas over the measured
// phase. `elapsed_ps` is the simulated time the delta spans, summed over
// every system it covers.

/// dram.*: controller counters under "<prefix>.ctrl<c>." for c < channels,
/// including the §3.3 idle-period estimator (bus cycles of `tck_ps`).
void DramLayerMetrics(const ndp::StatsSnapshot& d, const std::string& prefix,
                      uint32_t channels, sim::Tick elapsed_ps, double tck_ps,
                      Metrics* m);
/// jafar.*: device counters under "array.dev<i>." for i < devices.
void JafarLayerMetrics(const ndp::StatsSnapshot& d, uint32_t devices,
                       sim::Tick elapsed_ps, Metrics* m);
/// runtime.* counters under "array.runtime." (job_p99_us is set by the
/// workload, which sees the job completions).
void RuntimeLayerMetrics(const ndp::StatsSnapshot& d, uint32_t channels,
                         Metrics* m);

/// FNV-1a over a byte string.
uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ULL);

}  // namespace perfbench
