// Ablation — overload-robust serving: offered load x overload governor x
// fault injection. Each grid point stands up the full serving path (client
// fleet -> bounded ingress rings -> burst admission into the NdpRuntime over
// a 4-device DIMM array) and drives a two-tenant mix — an interactive tenant
// with a tight per-request deadline and a batch tenant with a loose one —
// open-loop, so offered load does NOT slow down when the system sheds. That
// is what makes true overload reachable: the ladder spans well past
// saturation.
//
// Claims under test (enforced at full size):
//   * No cliff: with the governor on, goodput past saturation stays >= 0.8x
//     the peak observed anywhere on the ladder — brownout sheds batch at the
//     door, bounds the NDP backlog, and routes interactive overflow to the
//     bit-identical CPU fallback.
//   * The governor-off control DOES cliff (goodput < 0.8x peak at the top of
//     the ladder): unbounded admitted backlog expires mid-job and the wasted
//     partial leases eat the machine.
//   * Deadlines are honored end to end: p99 goodput latency of the
//     interactive tenant stays within its SLO at 2x saturation — late work
//     is cancelled at chunk boundaries, never silently completed.
//   * Every completed request (NDP or CPU fallback, faulted lane or not)
//     matches the sorted-scan oracle. Always enforced, any size.
// Writes BENCH_serving.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/parallel_sweep.h"
#include "bench/reporter.h"
#include "core/host_traffic.h"
#include "core/ingress.h"
#include "core/runtime.h"
#include "fault/injector.h"

using namespace ndp;

namespace {

constexpr sim::Tick kInteractiveDeadlinePs = 500'000'000;  // 500 us SLO
constexpr sim::Tick kBatchDeadlinePs = 3'000'000'000;      // 3 ms

jafar::DeviceConfig DeviceConfig() {
  return jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                     accel::DatapathResources{})
      .ValueOrDie();
}

/// Bench-tuned ingress policy. Governor on: a small slot pool so the
/// occupancy signal (and therefore the governor) reacts within a fraction of
/// the measurement window, and a brownout NDP bound sized so
/// admitted-request sojourn stays well inside the interactive SLO. Governor
/// off is the pre-ingress control: a generously over-provisioned pool (the
/// classic "just make the queue bigger" deployment) with no governor — and
/// RunPoint additionally turns off deadline propagation, so admitted work is
/// never cancelled and completes silently late.
core::IngressConfig ServingConfig(bool governor_on) {
  core::IngressConfig cfg;
  cfg.rings = 2;
  cfg.ring_capacity = 256;
  cfg.slots = governor_on ? 128 : 2048;
  cfg.burst = 16;
  cfg.poll_bus_cycles = 800;
  cfg.governor_enabled = governor_on;
  cfg.governor_poll_bus_cycles = 2'000;
  cfg.brownout_ndp_inflight = 8;
  cfg.cpu_scan_bus_cycles_per_row = 1;
  NDP_CHECK(cfg.Validate().ok());
  return cfg;
}

std::vector<core::TenantSpec> Tenants() {
  core::TenantSpec interactive;
  interactive.name = "interactive";
  interactive.priority = core::JobPriority::kInteractive;
  interactive.weight = 0.6;
  interactive.deadline_ps = kInteractiveDeadlinePs;
  core::TenantSpec batch;
  batch.name = "batch";
  batch.priority = core::JobPriority::kBatch;
  batch.weight = 0.4;
  batch.deadline_ps = kBatchDeadlinePs;
  return {interactive, batch};
}

struct PointResult {
  double load_reqs_per_us = 0;
  bool governor_on = true;
  bool faulted = false;
  double offered_qps = 0;
  double goodput_qps = 0;
  double goodput_cpu_qps = 0;  ///< CPU-fallback share of goodput
  double shed_frac = 0;        ///< shed / issued (door + retry budget)
  double late_frac = 0;        ///< expired or cancelled / issued
  double p50_us = 0, p99_us = 0, p999_us = 0;  ///< interactive goodput latency
  int final_state = 0;
  bool match = true;
  StatsSnapshot counters;
};

PointResult RunPoint(const db::Column& col,
                     const std::vector<int64_t>& sorted, double load,
                     bool governor_on, bool faulted, sim::Tick window_ps) {
  PointResult r;
  r.load_reqs_per_us = load;
  r.governor_on = governor_on;
  r.faulted = faulted;

  core::DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, DeviceConfig());
  core::RuntimeConfig rcfg;
  fault::FaultPlan plan;
  plan.hang_per_job = faulted ? 1.0 : 0.0;
  StatsScope fault_scope(array.mutable_stats(), "fault");
  fault::FaultInjector injector(plan, fault_scope);
  if (faulted) {
    // Doom device 0: single-attempt driver retry plus a short watchdog turns
    // every lease on that lane into a fast permanent failure, so the point
    // measures the ingress retry budget, not the watchdog.
    rcfg.driver.retry.max_attempts = 1;
    rcfg.driver.watchdog_base_ps = 5'000'000;
    array.device(0).set_fault_injector(&injector);
  }
  core::NdpRuntime runtime(&array, rcfg);
  core::PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();

  core::ServingIngress ingress(&runtime, &array, ServingConfig(governor_on),
                               Tenants());
  uint32_t table = ingress.AddTable(&col, &placed);
  NDP_CHECK(table == 0);

  core::FleetConfig fcfg;
  fcfg.reqs_per_us = load;
  fcfg.seed = 20150601;
  fcfg.propagate_deadlines = governor_on;
  core::ClientFleet fleet(&array.eq(), &ingress, fcfg);
  fleet.set_oracle([&sorted](const core::ServingRequest& req) {
    return static_cast<uint64_t>(
        std::upper_bound(sorted.begin(), sorted.end(), req.hi) -
        std::lower_bound(sorted.begin(), sorted.end(), req.lo));
  });

  // A short observable stretch of channel silence warms the lease
  // controller's idle estimator before the first admission.
  array.eq().RunUntil(array.eq().Now() + 20'000'000);

  StatsSnapshot before = array.stats().Snapshot();
  ingress.Start();
  fleet.Start();
  array.eq().RunUntil(array.eq().Now() + window_ps);
  fleet.Stop();
  ingress.Stop();
  NDP_CHECK(ingress.Drain().ok());
  NDP_CHECK(runtime.Drain().ok());
  r.counters = array.stats().Snapshot().DeltaSince(before);

  double window_s = static_cast<double>(window_ps) / 1e12;
  r.offered_qps = static_cast<double>(fleet.issued()) / window_s;
  r.goodput_qps = static_cast<double>(fleet.goodput()) / window_s;
  r.goodput_cpu_qps =
      r.counters.Value("array.ingress.completed_cpu") / window_s;
  double issued = std::max<double>(1.0, static_cast<double>(fleet.issued()));
  uint64_t late = 0, failed = 0;
  for (uint32_t t = 0; t < 2; ++t) {
    late += fleet.tenant_stats(t).late;
    failed += fleet.tenant_stats(t).failed;
  }
  r.shed_frac = static_cast<double>(fleet.shed()) / issued;
  r.late_frac = static_cast<double>(late) / issued;
  const Histogram& lat = fleet.tenant_stats(0).latency;
  r.p50_us = lat.Quantile(0.5) / 1e6;
  r.p99_us = lat.Quantile(0.99) / 1e6;
  r.p999_us = lat.Quantile(0.999) / 1e6;
  r.final_state = static_cast<int>(ingress.state());
  r.match = fleet.mismatches() == 0;
  // A faulted lane may leave terminal failures (that is the shed-not-spin
  // contract); a healthy ladder point must not.
  if (!faulted) r.match &= failed == 0;
  return r;
}

}  // namespace

int main() {
  const uint64_t rows = bench::EnvU64("SERVING_ROWS", 32u * 1024);
  const uint64_t window_us = bench::EnvU64("SERVING_WINDOW_US", 4000);
  const sim::Tick window_ps = static_cast<sim::Tick>(window_us) * 1'000'000;
  // The overload claims need the governor to see several reaction times
  // inside the window and enough per-request work for deadlines to bind.
  const bool full_size = rows >= 32u * 1024 && window_us >= 4000;
  bench::PrintHeader("Ablation — serving ingress: load x governor x fault (" +
                     std::to_string(rows) + " rows, " +
                     std::to_string(window_us) + " us window)");
  db::Column col = bench::UniformColumn(rows);
  std::vector<int64_t> sorted(col.values().begin(), col.values().end());
  std::sort(sorted.begin(), sorted.end());

  // Requests per microsecond, open-loop across both tenants. The top of the
  // ladder offers several times what four lanes can stream.
  const std::vector<double> loads = {0.01, 0.02, 0.05, 0.1, 0.2, 0.4};

  struct GridPoint {
    double load;
    bool governor_on;
    bool faulted;
  };
  std::vector<GridPoint> grid;
  for (double load : loads) grid.push_back({load, true, false});
  for (double load : loads) grid.push_back({load, false, false});
  const size_t fault_idx = grid.size();
  grid.push_back({0.05, true, true});

  std::vector<PointResult> results = bench::ParallelSweep<PointResult>(
      grid.size(), [&](size_t i) {
        return RunPoint(col, sorted, grid[i].load, grid[i].governor_on,
                        grid[i].faulted, window_ps);
      });

  bench::Reporter report("serving");
  report.Config("rows", static_cast<double>(rows));
  report.Config("window_us", static_cast<double>(window_us));
  report.Config("interactive_slo_us",
                static_cast<double>(kInteractiveDeadlinePs) / 1e6);
  report.Config("tenants", 2.0);

  std::printf("\n%-8s %-4s %-6s %-12s %-12s %-10s %-7s %-7s %-8s %-8s %-8s %s\n",
              "load/us", "gov", "fault", "offered_qps", "goodput_qps",
              "cpu_qps", "shed", "late", "p50_us", "p99_us", "p999_us",
              "match");
  bool all_match = true;
  for (size_t i = 0; i < results.size(); ++i) {
    const PointResult& r = results[i];
    std::printf(
        "%-8g %-4s %-6s %-12.0f %-12.0f %-10.0f %-7.2f %-7.2f %-8.1f %-8.1f "
        "%-8.1f %s [%s]\n",
        r.load_reqs_per_us, r.governor_on ? "on" : "off",
        r.faulted ? "yes" : "no", r.offered_qps, r.goodput_qps,
        r.goodput_cpu_qps, r.shed_frac, r.late_frac, r.p50_us, r.p99_us,
        r.p999_us, r.match ? "MATCH" : "MISMATCH",
        core::OverloadStateToString(
            static_cast<core::OverloadState>(r.final_state)));
    all_match &= r.match;
    char label[64];
    std::snprintf(label, sizeof(label), "load%g_%s%s", r.load_reqs_per_us,
                  r.governor_on ? "on" : "off", r.faulted ? "_fault" : "");
    report.AddPoint(label)
        .Metric("load_reqs_per_us", r.load_reqs_per_us)
        .Metric("governor_on", r.governor_on ? 1.0 : 0.0)
        .Metric("faulted", r.faulted ? 1.0 : 0.0)
        .Metric("offered_qps", r.offered_qps)
        .Metric("goodput_qps", r.goodput_qps)
        .Metric("goodput_cpu_qps", r.goodput_cpu_qps)
        .Metric("shed_frac", r.shed_frac)
        .Metric("late_frac", r.late_frac)
        .Metric("p50_us", r.p50_us)
        .Metric("p99_us", r.p99_us)
        .Metric("p999_us", r.p999_us)
        .Metric("final_state", r.final_state)
        .Metric("match", r.match ? 1.0 : 0.0)
        .Counters("", r.counters);
  }

  // Saturation: the first ladder rung where the governor-on system can no
  // longer complete ~everything it is offered. Peak is the best goodput seen
  // anywhere on the governor-on ladder.
  double peak_on = 0;
  double sat_load = 0;
  for (size_t i = 0; i < loads.size(); ++i) {
    peak_on = std::max(peak_on, results[i].goodput_qps);
    if (sat_load == 0 && results[i].goodput_qps < 0.9 * results[i].offered_qps) {
      sat_load = loads[i];
    }
  }
  std::printf("\npeak goodput (governor on): %.0f qps, saturation at "
              "%g reqs/us\n",
              peak_on, sat_load);
  report.AddPoint("summary")
      .Metric("peak_goodput_qps", peak_on)
      .Metric("saturation_load_reqs_per_us", sat_load);

  NDP_CHECK_MSG(all_match, "a serving completion diverged from the oracle");
  if (full_size) {
    NDP_CHECK_MSG(sat_load > 0, "ladder never saturated: raise the top load");
    bool off_cliffs = false;
    for (size_t i = 0; i < loads.size(); ++i) {
      const PointResult& on = results[i];
      const PointResult& off = results[loads.size() + i];
      if (loads[i] >= 2.0 * sat_load) {
        // No cliff with the governor: past saturation, goodput holds.
        NDP_CHECK_MSG(on.goodput_qps >= 0.8 * peak_on,
                      "governor-on goodput cliffed past saturation");
        // Deadlines bind end to end: what completes, completes on time.
        NDP_CHECK_MSG(on.p99_us * 1e6 <= kInteractiveDeadlinePs,
                      "interactive p99 exceeded the SLO past saturation");
        off_cliffs |= off.goodput_qps < 0.8 * peak_on;
      }
    }
    NDP_CHECK_MSG(off_cliffs,
                  "governor-off control failed to cliff past saturation — "
                  "the contrast claim is vacuous");
    const PointResult& f = results[fault_idx];
    NDP_CHECK_MSG(f.goodput_qps > 0,
                  "faulted point served nothing: retry budget spun instead "
                  "of shedding");
  } else {
    std::printf("(small SERVING_ROWS/WINDOW: bounds reported, not enforced)\n");
  }

  report.WriteJson();
  return 0;
}
