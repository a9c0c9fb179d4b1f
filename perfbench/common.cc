#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/rng.h"

extern char** environ;

namespace perfbench {

double ExactQuantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

int64_t Tracer::Begin(const std::string& name, sim::Tick sim_now) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.sim_start = sim_now;
  s.wall_start = WallNow();
  spans_.push_back(std::move(s));
  int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int64_t id, sim::Tick sim_now) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.wall_end = WallNow();
  s.sim_end = std::max(sim_now, s.sim_start);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::WallSeconds(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.wall_end - s.wall_start;
  }
  return total;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().wall_start;
  f << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                  "\"wall_start_s\": %.9f, \"wall_end_s\": %.9f, "
                  "\"sim_start_ps\": %llu, \"sim_end_ps\": %llu}%s\n",
                  i, static_cast<long long>(s.parent), s.name.c_str(),
                  s.wall_start - origin, s.wall_end - origin,
                  static_cast<unsigned long long>(s.sim_start),
                  static_cast<unsigned long long>(s.sim_end),
                  i + 1 < spans_.size() ? "," : "");
    f << line;
  }
  f << "]\n";
  return static_cast<bool>(f);
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ndp::db::Column UniformColumn(uint64_t rows, uint64_t seed) {
  ndp::db::Column col = ndp::db::Column::Int64("values");
  col.Reserve(rows);
  ndp::Rng rng(seed, /*stream=*/1);
  for (uint64_t i = 0; i < rows; ++i) col.Append(rng.NextInRange(0, 999'999));
  return col;
}

ndp::jafar::DeviceConfig DeriveDeviceConfig(Tracer* tracer) {
  Scoped s(tracer, "accel.derive");
  return ndp::jafar::DeviceConfig::Derive(ndp::dram::DramTiming::DDR3_1600(),
                                          ndp::accel::DatapathResources{})
      .ValueOrDie();
}

void FailOnAmbientNdpEnv() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "NDP_", 4) == 0) {
      std::fprintf(stderr,
                   "perfbench: ambient simulator knob set (%s); the benchmark "
                   "configures the system explicitly — unset it\n",
                   *e);
      std::exit(2);
    }
  }
}

void SetSimThreads(unsigned threads) {
  setenv("NDP_SIM_THREADS", std::to_string(threads).c_str(), 1);
}

void Accumulate(ndp::StatsSnapshot* acc, const ndp::StatsSnapshot& delta) {
  for (const auto& [path, e] : delta.entries()) {
    ndp::StatsSnapshot::Entry& dst = acc->mutable_entries()[path];
    dst.value += e.value;
    dst.monotonic = e.monotonic;
  }
}

namespace {

double SumOver(const ndp::StatsSnapshot& d, const std::string& prefix,
               uint32_t n, const std::string& leaf) {
  double total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    total += d.Value(prefix + std::to_string(i) + "." + leaf);
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void DramLayerMetrics(const ndp::StatsSnapshot& d, const std::string& prefix,
                      uint32_t channels, sim::Tick elapsed_ps, double tck_ps,
                      Metrics* m) {
  const std::string ctrl = prefix + ".ctrl";
  double reads = SumOver(d, ctrl, channels, "reads_served");
  double writes = SumOver(d, ctrl, channels, "writes_served");
  double hits = SumOver(d, ctrl, channels, "row_hits");
  double misses = SumOver(d, ctrl, channels, "row_misses") +
                  SumOver(d, ctrl, channels, "row_conflicts");
  double busy = SumOver(d, ctrl, channels, "rc_busy_cycles") +
                SumOver(d, ctrl, channels, "wc_busy_cycles");
  // `elapsed_ps` already sums the simulated time of every system the delta
  // covers; each channel of each system contributes that span once.
  double total = static_cast<double>(elapsed_ps) / tck_ps * channels;
  m->Set("dram.host_reads", reads, "count");
  m->Set("dram.row_hit_rate", Ratio(hits, hits + misses), "ratio");
  m->Set("dram.busy_frac", Ratio(busy, total), "ratio");
  // The paper's pessimistic estimator: MC_empty / (#reads + #writes).
  m->Set("dram.idle_mean_cycles",
         Ratio(std::max(0.0, total - busy), reads + writes), "cycles");
}

void JafarLayerMetrics(const ndp::StatsSnapshot& d, uint32_t devices,
                       sim::Tick elapsed_ps, Metrics* m) {
  const std::string dev = "array.dev";
  double rows = SumOver(d, dev, devices, "rows_processed");
  double engine = SumOver(d, dev, devices, "engine_busy_ps");
  double wait = SumOver(d, dev, devices, "data_wait_ps");
  double acts = SumOver(d, dev, devices, "activates");
  double backoffs = SumOver(d, dev, devices, "polite_backoffs") +
                    SumOver(d, dev, devices, "refresh_backoffs");
  double energy_fj = SumOver(d, dev, devices, "energy_fj");
  m->Set("jafar.rows", rows, "count");
  m->Set("jafar.engine_busy_frac",
         Ratio(engine, static_cast<double>(elapsed_ps) * devices), "ratio");
  // Stalled share of the engine's active time (DeviceStats::WaitFraction).
  m->Set("jafar.data_wait_frac", Ratio(wait, wait + engine), "ratio");
  m->Set("jafar.activates_per_krow", Ratio(acts * 1000.0, rows), "count");
  m->Set("jafar.backoffs", backoffs, "count");
  m->Set("jafar.energy_pj_per_row", Ratio(energy_fj / 1000.0, rows), "pJ");
}

void RuntimeLayerMetrics(const ndp::StatsSnapshot& d, uint32_t channels,
                         Metrics* m) {
  const std::string rt = "array.runtime.";
  double leases = d.Value(rt + "leases");
  double rows = 0;
  for (const auto& [path, e] : d.entries()) {
    if (path.rfind("array.dev", 0) == 0 &&
        path.size() > 15 &&
        path.compare(path.size() - 15, 15, ".rows_processed") == 0) {
      rows += e.value;
    }
  }
  m->Set("runtime.leases", leases, "count");
  m->Set("runtime.rows_per_lease", Ratio(rows, leases), "count");
  m->Set("runtime.admission_defers", d.Value(rt + "admission_defers"),
         "count");
  m->Set("runtime.qos_shrinks", SumOver(d, rt + "ctrl", channels, "qos_shrinks"),
         "count");
  m->Set("runtime.steals", d.Value(rt + "steals"), "count");
  m->Set("runtime.stolen_pages", d.Value(rt + "stolen_pages"), "count");
  m->Set("runtime.hh_flags", d.Value(rt + "hh_flags"), "count");
  m->Set("runtime.deadline_cancellations",
         d.Value(rt + "deadline_cancellations"), "count");
}

uint64_t Fnv1a(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
