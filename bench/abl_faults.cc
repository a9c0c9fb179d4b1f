// Ablation — fault rate vs. select throughput: sweeps a composite fault
// intensity through the seeded injection campaign (hangs, mid-job stalls,
// result-bitmap corruption, dropped completions, ECC flips) and measures the
// end-to-end select latency including every watchdog fire, backoff retry, and
// — past the retry budget — the CPU re-execution. The claim under test:
// recovery degrades throughput smoothly (monotone, cliff-free) and never the
// answer. Writes BENCH_abl_faults.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/parallel_sweep.h"
#include "bench/reporter.h"
#include "core/api.h"

using namespace ndp;

namespace {

/// One knob scales every layer; the mix keeps the per-event frequencies in a
/// plausible ratio (hangs and corruptions per job/flush, stalls per burst,
/// ECC per burst far rarer, UEs rarest).
fault::FaultPlan PlanAtIntensity(double r) {
  fault::FaultPlan plan;
  plan.seed = 20150601;
  plan.hang_per_job = r;
  plan.stall_per_burst = r / 100.0;
  plan.corrupt_per_flush = r;
  plan.drop_per_completion = r / 2.0;
  plan.ecc_ce_per_burst = r / 10.0;
  plan.ecc_ue_per_burst = r / 1000.0;
  return plan;
}

}  // namespace

int main() {
  const uint64_t rows = bench::EnvU64("ABL_ROWS", 256u * 1024);
  bench::PrintHeader("Ablation — fault rate vs. select throughput (" +
                     std::to_string(rows) + " rows)");
  db::Column col = bench::UniformColumn(rows);
  uint64_t oracle = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    oracle += col[i] >= 0 && col[i] <= 499999;
  }

  const std::vector<double> rates = {0.0,  1e-4, 1e-3, 1e-2,
                                     0.05, 0.1,  0.2};
  struct PointResult {
    double rate = 0;
    double ms = 0;
    bool match = false;
    bool fell_back = false;
    jafar::DriverStats driver;
    uint64_t injected = 0;
    StatsSnapshot counters;
  };
  std::vector<PointResult> results = bench::ParallelSweep<PointResult>(
      rates.size(), [&](size_t i) {
        PointResult r;
        r.rate = rates[i];
        core::PlatformConfig config = core::PlatformConfig::Gem5();
        config.fault_plan = PlanAtIntensity(rates[i]);
        // A generous budget: the sweep studies degradation, not failure, so
        // only a pathological page should exhaust it and fall back.
        config.driver.retry.max_attempts = 10;
        core::SystemModel sys(config);
        StatsSnapshot before = sys.stats().Snapshot();
        sim::Tick start = sys.eq().Now();
        uint64_t matches = 0;
        auto run = sys.RunJafarSelect(col, 0, 499999);
        if (run.ok()) {
          matches = run.ValueOrDie().matches;
        } else {
          // Past the retry budget: graceful degradation — the query re-runs
          // on the CPU scalar path, and its simulated time counts too.
          r.fell_back = true;
          matches = sys.RunCpuSelect(col, 0, 499999,
                                     db::SelectMode::kBranching)
                        .ValueOrDie()
                        .matches;
        }
        r.ms = bench::Ms(sys.eq().Now() - start);
        r.match = matches == oracle;
        r.driver = sys.driver().stats();
        if (sys.fault_injector() != nullptr) {
          const auto& c = sys.fault_injector()->counters();
          r.injected = c.ecc_ce_injected + c.ecc_ue_injected +
                       c.hangs_injected + c.stalls_injected +
                       c.corruptions_injected + c.drops_injected;
        }
        r.counters = sys.stats().Snapshot().DeltaSince(before);
        return r;
      });

  bench::Reporter report("abl_faults");
  report.Config("rows", static_cast<double>(rows));

  std::printf("\n%-10s %-10s %-14s %-10s %-10s %-10s %-10s %-10s\n",
              "rate", "time_ms", "mrows_per_s", "injected", "watchdog",
              "retries", "cksum_err", "match");
  double base_ms = results.front().ms;
  bool monotone = true;
  bool all_match = true;
  for (size_t i = 0; i < results.size(); ++i) {
    const PointResult& r = results[i];
    double mrows_s = static_cast<double>(rows) / (r.ms * 1e3);
    std::printf("%-10g %-10.3f %-14.2f %-10llu %-10llu %-10llu %-10llu %s\n",
                r.rate, r.ms, mrows_s,
                static_cast<unsigned long long>(r.injected),
                static_cast<unsigned long long>(r.driver.watchdog_fires),
                static_cast<unsigned long long>(r.driver.retries),
                static_cast<unsigned long long>(r.driver.checksum_errors),
                r.match ? "MATCH" : "MISMATCH");
    all_match &= r.match;
    // Monotone: more faults cost time, never save it (tiny tolerance for the
    // printf-rounding of ms).
    if (i > 0) monotone &= r.ms >= results[i - 1].ms - 1e-9;
    report.AddPoint("rate_" + std::to_string(r.rate))
        .Metric("fault_rate", r.rate)
        .Metric("time_ms", r.ms)
        .Metric("mrows_per_s", mrows_s)
        .Metric("slowdown", r.ms / base_ms)
        .Metric("injected_faults", static_cast<double>(r.injected))
        .Metric("watchdog_fires",
                static_cast<double>(r.driver.watchdog_fires))
        .Metric("retries", static_cast<double>(r.driver.retries))
        .Metric("checksum_errors",
                static_cast<double>(r.driver.checksum_errors))
        .Metric("device_errors", static_cast<double>(r.driver.device_errors))
        .Metric("permanent_failures",
                static_cast<double>(r.driver.permanent_failures))
        .Metric("cpu_fallback", r.fell_back ? 1.0 : 0.0)
        .Metric("match", r.match ? 1.0 : 0.0)
        .Counters("", r.counters);
  }
  std::printf(
      "\nDegradation at max rate: %.2fx the fault-free time; every point "
      "%s.\n",
      results.back().ms / base_ms,
      all_match ? "MATCHes the CPU oracle" : "MISMATCHED");
  NDP_CHECK_MSG(all_match,
                "a faulted select returned a wrong answer — recovery bug");
  NDP_CHECK_MSG(monotone,
                "throughput not monotone in fault rate — timing anomaly");
  // Cliff-free: each fault costs at most one watchdog deadline (~55us at
  // 512-row pages) plus the capped backoff (12.8us) plus the page re-run, so
  // total time must stay within a per-fault budget of the fault-free time.
  // A retry storm or a wedged watchdog would blow through this linear bound.
  constexpr double kMaxRecoveryMsPerFault = 0.15;
  for (const PointResult& r : results) {
    NDP_CHECK_MSG(
        r.ms <= base_ms + static_cast<double>(r.injected) *
                              kMaxRecoveryMsPerFault,
        "degradation cliff: recovery cost exceeds the per-fault budget");
  }
  return report.WriteJson() ? 0 : 1;
}
