// perfbench: one benchmark for the simulator and the system it models.
//
//   perfbench --workload serve|tpch|contend --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Untraced (--trace 0): repeats {set-up, measured phase} until S seconds have
// passed (at least kMinIterations times) and reports the median set-up CPU
// time, the peak RSS and the simulated end-to-end metrics, which must be
// identical in every iteration. Traced (--trace 1): alternates untraced
// iterations with iterations that record spans around every layer call, and
// reports the per-layer metrics: among them the untraced measured-phase CPU
// and wall time and the tracing overhead. The last line of stdout is the JSON
// result; any failed check makes it "correct": false and the exit code 1.
//
// Measured-phase time is per-layer, not end-to-end: on a shared host the speed
// of one core drifts by up to 2x for tens of seconds, so no run of a few
// seconds gives it to within the 25% an end-to-end bound allows.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},   {"peak_rss_mb", "MB"},     {"ok_frac", "ratio"},
    {"p50_us", "us"},   {"p99_us", "us"},          {"goodput_per_s", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"cpu_s", "s"},
    {"wall_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.epochs", "count"},
    {"sim.events_per_epoch", "count"},
    {"sim.pdes_speedup", "x"},
    {"dram.host_reads", "count"},
    {"dram.row_hit_rate", "ratio"},
    {"dram.busy_frac", "ratio"},
    {"dram.idle_mean_cycles", "cycles"},
    {"jafar.rows", "count"},
    {"jafar.engine_busy_frac", "ratio"},
    {"jafar.data_wait_frac", "ratio"},
    {"jafar.activates_per_krow", "count"},
    {"jafar.backoffs", "count"},
    {"jafar.energy_pj_per_row", "pJ"},
    {"runtime.leases", "count"},
    {"runtime.rows_per_lease", "count"},
    {"runtime.admission_defers", "count"},
    {"runtime.qos_shrinks", "count"},
    {"runtime.steals", "count"},
    {"runtime.stolen_pages", "count"},
    {"runtime.hh_flags", "count"},
    {"runtime.job_p99_us", "us"},
    {"runtime.deadline_cancellations", "count"},
    {"ingress.shed_frac", "ratio"},
    {"ingress.late_frac", "ratio"},
    {"ingress.cpu_fallback_frac", "ratio"},
    {"ingress.reqs_per_burst", "count"},
    {"ingress.governor_transitions", "count"},
    {"ingress.max_rate_in_slo", "1/us"},
    {"ingress.knee_p99_us", "us"},
    {"ingress.knee_samples", "count"},
    {"pushdown.q1.device_ms", "ms"},
    {"pushdown.q3.device_ms", "ms"},
    {"pushdown.q6.device_ms", "ms"},
    {"pushdown.q18.device_ms", "ms"},
    {"pushdown.q22.device_ms", "ms"},
    {"pushdown.fallbacks", "count"},
    {"pushdown.kernel_speedup_x", "x"},
    {"pushdown.query_speedup_x", "x"},
    {"pushdown.query_ms", "ms"},
    {"cpu.q1.host_ms", "ms"},
    {"cpu.q3.host_ms", "ms"},
    {"cpu.q6.host_ms", "ms"},
    {"cpu.q18.host_ms", "ms"},
    {"cpu.q22.host_ms", "ms"},
    {"cpu.q1.cpu_only_ms", "ms"},
    {"cpu.q3.cpu_only_ms", "ms"},
    {"cpu.q6.cpu_only_ms", "ms"},
    {"cpu.q18.cpu_only_ms", "ms"},
    {"cpu.q22.cpu_only_ms", "ms"},
    {"cpu.l2_miss_rate", "ratio"},
    {"cpu.replay_wall_s", "s"},
    {"db.generate_s", "s"},
    {"db.trace_events", "count"},
    {"db.rows_in_per_row_out", "ratio"},
    {"accel.derive_s", "s"},
    {"dimm.place_s", "s"},
    {"dimm.alloc_mb", "MB"},
    {"p50_us.samples", "count"},
    {"p99_us.samples", "count"},
    {"trace.overhead_pct", "%"},
};

namespace {

constexpr int kMinIterations = 3;
constexpr int kExtraSetups = 4;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve|tpch|contend "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return o;
}

std::function<std::unique_ptr<Workload>()> Factory(const std::string& name) {
  if (name == "serve") return MakeServe;
  if (name == "tpch") return MakeTpch;
  if (name == "contend") return MakeContend;
  Usage(("unknown workload " + name).c_str());
}

/// The repeated {set-up, measured phase} loop of one run.
class Runner {
 public:
  explicit Runner(Options opts)
      : opts_(std::move(opts)), make_(Factory(opts_.workload)) {}

  int Main() {
    struct utsname uts;
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%ld build_type=%s arch=%s\n",
                opts_.workload.c_str(),
                static_cast<unsigned long long>(opts_.seed), opts_.seconds,
                opts_.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
                PERFBENCH_BUILD_TYPE, uname(&uts) == 0 ? uts.machine : "?");
    if (!opts_.trace) {
      IterateFor(opts_.seconds, kMinIterations, /*traced=*/false);
      metrics_.Set("setup_s", Median(setup_s_), "s");
      metrics_.Set("peak_rss_mb", PeakRssMb(), "MB");
      Emit(kEndToEnd);
    } else {
      // Traced and untraced iterations in pairs of alternating order, so the
      // process's first, cold iteration does not bias the overhead.
      const double start = WallNow();
      for (int i = 0; i == 0 || WallNow() - start < opts_.seconds; ++i) {
        Iterate(/*traced=*/i % 2 == 0);
        Iterate(/*traced=*/i % 2 != 0);
      }
      metrics_.Set("cpu_s", Median(pass_s_), "s");
      metrics_.Set("wall_s", Median(pass_wall_s_), "s");
      metrics_.Set("trace.overhead_pct",
                   100.0 * (Median(traced_pass_s_) / Median(pass_s_) - 1.0),
                   "%");
      Emit(kPerLayer);
    }
    return out_.correct() ? 0 : 1;
  }

 private:
  /// Iterates until `seconds` of wall time have passed, at least `min` times.
  void IterateFor(double seconds, int min, bool traced) {
    const double start = WallNow();
    for (int i = 0; i < min || WallNow() - start < seconds; ++i) {
      Iterate(traced);
    }
  }

  /// One {set-up, measured phase} iteration on a fresh instance. The first
  /// instance whose metrics this run reports (untraced for --trace 0, traced
  /// for --trace 1) is verified and measured before it is released.
  void Iterate(bool traced) {
    if (!traced) {
      // Set-up is short next to the measured phase; extra set-ups per
      // iteration give its median enough samples to be steady.
      for (int i = 0; i < kExtraSetups; ++i) {
        auto scratch = make_();
        const double t = CpuNow();
        scratch->Setup(opts_, nullptr);
        setup_s_.push_back(CpuNow() - t);
      }
    }
    auto w = make_();
    auto tracer = traced ? std::make_unique<Tracer>() : nullptr;
    const double a = CpuNow();
    w->Setup(opts_, tracer.get());
    const double b = CpuNow();
    const double b_wall = WallNow();
    w->Run(tracer.get());
    const double c = CpuNow();
    const double c_wall = WallNow();
    (traced ? traced_pass_s_ : pass_s_).push_back(c - b);
    if (!traced) {
      pass_wall_s_.push_back(c_wall - b_wall);
      setup_s_.push_back(b - a);
    }

    std::string digest = w->Digest();
    if (digest_.empty()) {
      digest_ = std::move(digest);
    } else if (digest != digest_) {
      out_.errors.push_back("simulated results differ between iterations");
    }
    if (reported_ || traced != opts_.trace) return;
    reported_ = true;
    Merge(w->Verify());
    if (!traced) {
      w->EndToEnd(&metrics_);
      return;
    }
    w->PerLayer(*tracer, &metrics_);
    metrics_.Set("db.generate_s", tracer->WallSeconds("db.generate"), "s");
    metrics_.Set("accel.derive_s", tracer->WallSeconds("accel.derive"), "s");
    metrics_.Set("dimm.place_s", tracer->WallSeconds("dimm.place"), "s");
    metrics_.Set("sim.events_per_s", metrics_.Value("sim.events") / (c - b),
                 "1/s");
    if (!opts_.trace_out.empty() && !tracer->WriteJson(opts_.trace_out)) {
      out_.errors.push_back("cannot write " + opts_.trace_out);
    }
    w->TracedExtras(opts_, &metrics_, &out_);
  }

 private:
  void Merge(const Outcome& v) {
    out_.attempted += v.attempted;
    out_.failed += v.failed;
    out_.errors.insert(out_.errors.end(), v.errors.begin(), v.errors.end());
  }

  /// Prints every metric of `defs` (0 where the workload set none), the
  /// per-iteration times, any failed check, and the JSON result line.
  void Emit(const std::vector<MetricDef>& defs) {
    for (const auto& [name, entry] : metrics_.entries()) {
      auto def = std::find_if(defs.begin(), defs.end(), [&](const MetricDef& d) {
        return name == d.name;
      });
      if (def == defs.end()) {
        out_.errors.push_back("unlisted metric " + name);
      } else if (entry.unit != def->unit) {
        out_.errors.push_back("unit mismatch for " + name);
      }
    }
    std::vector<double> values;
    for (const MetricDef& d : defs) {
      double v = metrics_.Value(d.name);
      if (!std::isfinite(v)) {
        out_.errors.push_back(std::string(d.name) + " is not finite");
        v = -1;
      }
      values.push_back(v);
      std::printf("# %-32s %.6g %s\n", d.name, v, d.unit);
    }
    for (const auto* series :
         {&setup_s_, &pass_s_, &pass_wall_s_, &traced_pass_s_}) {
      if (series->empty()) continue;
      std::printf("# %s:", series == &setup_s_       ? "setup_cpu_s"
                           : series == &pass_s_      ? "pass_cpu_s"
                           : series == &pass_wall_s_ ? "pass_wall_s"
                                                     : "traced_pass_cpu_s");
      for (double s : *series) std::printf(" %.4f", s);
      std::printf("\n");
    }
    for (const std::string& e : out_.errors) {
      std::printf("# CHECK FAILED: %s\n", e.c_str());
    }
    std::string json = "{\"correct\": ";
    json += out_.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out_.attempted);
    json += ", \"failed\": " + std::to_string(out_.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < defs.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, values[i], defs[i].unit);
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

  Options opts_;
  std::function<std::unique_ptr<Workload>()> make_;
  // CPU seconds, except pass_wall_s_.
  std::vector<double> setup_s_, pass_s_, pass_wall_s_, traced_pass_s_;
  std::string digest_;
  bool reported_ = false;
  Metrics metrics_;
  Outcome out_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::FailOnAmbientNdpEnv();
  perfbench::Options opts = perfbench::ParseArgs(argc, argv);
  // Every partitioned array in this process runs its epochs on one worker
  // unless a workload says otherwise (the contend PDES repeat).
  perfbench::SetSimThreads(1);
  return perfbench::Runner(std::move(opts)).Main();
}
