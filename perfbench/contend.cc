// `contend`: the paper's co-running case on a 4-channel partitioned DimmArray.
// A 1 Mi-row column is placed with Zipf(1) weights (1, 1/2, 1/3, 1/4) across
// the channels' devices. A closed-loop batch client keeps three jobs
// outstanding, cycling select, aggregate and probe, while open-loop host
// traffic (15 requests/us per channel, 30% writes) hits a 1 MiB region of
// each device's rank through MemoryController::Enqueue on that channel's own
// partition. The client submits for a fixed simulated window; the host
// traffic runs until the last job has finished, so every job runs contended.
// Under that load the lease QoS holds each job to about 14 ms, longer than
// the window, so the run is the first three jobs, one of each kind.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/runtime.h"
#include "jafar/jobs.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ndp;

constexpr uint32_t kChannels = 4;
constexpr uint64_t kRows = uint64_t{1} << 20;
constexpr int64_t kValueMax = 1'000'000;
constexpr int kOutstanding = 3;
constexpr size_t kSpecs = 12;  ///< job specs the client cycles through
constexpr double kHostReqsPerUs = 15.0;  ///< per channel
constexpr double kWriteFraction = 0.3;
constexpr uint64_t kHostRegionBytes = uint64_t{1} << 20;
constexpr sim::Tick kRetryBackoffPs = 10'000;
constexpr sim::Tick kWarmupPs = 20'000'000;
/// The client submits during this window; host traffic runs until the last
/// job it submitted has finished, checked every kStepPs.
constexpr sim::Tick kWindowPs = 1'000'000'000;  ///< 1 ms
constexpr sim::Tick kStepPs = 50'000'000;       ///< 50 us
/// Simulated span of the traced run's 1-vs-N-thread comparison.
constexpr sim::Tick kPdesHorizonPs = 500'000'000;  ///< 500 us
constexpr uint64_t kProbeKeys = 4096;

/// Open-loop host traffic into one channel. Lives entirely on that channel's
/// partition: its events, the controller it feeds, and its counters.
struct HostChannel {
  sim::EventQueue* eq = nullptr;
  dram::MemoryController* mc = nullptr;
  Rng rng;
  uint64_t base = 0;
  sim::Tick stop_ps = 0;
  uint64_t issued = 0, completed = 0, retries = 0;
  std::vector<sim::Tick> latency_ps;  ///< due time to last data beat

  void ArriveAt(sim::Tick due) {
    eq->ScheduleAt(due, [this, due] { Issue(due); });
  }

  void Issue(sim::Tick due) {
    if (due >= stop_ps) return;
    const uint64_t addr =
        base + uint64_t{rng.NextBounded(kHostRegionBytes / 64)} * 64;
    const bool is_write = rng.NextBool(kWriteFraction);
    ++issued;
    TryEnqueue(addr, is_write, due);
    ArriveAt(due + 1 +
             static_cast<sim::Tick>(-std::log(1.0 - rng.NextDouble()) *
                                    (1e6 / kHostReqsPerUs)));
  }

  void TryEnqueue(uint64_t addr, bool is_write, sim::Tick due) {
    dram::Request req;
    req.addr = addr;
    req.is_write = is_write;
    req.requester = dram::RequesterId::kCpu;
    req.on_complete = [this, due](sim::Tick done) {
      ++completed;
      latency_ps.push_back(done - due);
    };
    if (!mc->Enqueue(req).ok()) {
      // Queue full: the request waits in the core's miss buffer and retries;
      // its latency keeps counting from the due time.
      ++retries;
      eq->ScheduleAfter(kRetryBackoffPs, [this, addr, is_write, due] {
        TryEnqueue(addr, is_write, due);
      });
    }
  }
};

struct JobSpec {
  core::JobKind kind = core::JobKind::kSelect;
  int64_t lo = 0, hi = 0;            ///< select range
  std::vector<uint64_t> image;       ///< probe Bloom filter image
};

struct JobRecord {
  size_t spec = 0;
  core::NdpRuntime::JobId id = 0;
  sim::Tick submitted_ps = 0, completed_ps = 0;
  bool done = false;
};

class Contend : public Workload {
 public:
  void Setup(const Options& opts, Tracer* tracer) override;
  void Run(Tracer* tracer) override { Simulate(tracer, 0); }
  Outcome Verify() override;
  std::string Digest() const override;
  void EndToEnd(Metrics* m) const override;
  void PerLayer(const Tracer& tracer, Metrics* m) const override;
  void TracedExtras(const Options& opts, Metrics* m, Outcome* out) override;

 private:
  /// The measured phase. A nonzero `horizon_ps` stops it that long after the
  /// window opens, with jobs and host requests still in flight.
  void Simulate(Tracer* tracer, sim::Tick horizon_ps);
  static std::pair<std::string, double> PrefixRun(const Options& opts,
                                                  unsigned threads);
  void SubmitNext(Tracer* tracer);
  std::vector<double> HostLatenciesUs() const;
  /// Rows of completed jobs per simulated second, from the window's start to
  /// the last completion.
  double RowsPerSecond() const;

  db::Column col_ = db::Column::Int64("values");
  std::vector<JobSpec> specs_;
  std::unique_ptr<core::DimmArray> array_;
  std::unique_ptr<core::NdpRuntime> runtime_;
  core::PlacedColumn placed_;
  std::vector<std::unique_ptr<HostChannel>> host_;
  std::vector<uint64_t> alloc_end_;  ///< allocator cursor after set-up

  sim::Tick start_ps_ = 0, stop_ps_ = 0, end_ps_ = 0;
  std::vector<JobRecord> jobs_;
  StatsSnapshot delta_;
  double alloc_mb_ = 0;
};

void Contend::Setup(const Options& opts, Tracer* tracer) {
  {
    Scoped s(tracer, "db.generate");
    col_ = UniformColumn(kRows, opts.seed);
    // The client's job cycle: select, aggregate, probe, ...
    Rng jr(opts.seed, /*stream=*/2);
    const uint64_t filter_words = core::RuntimeConfig{}.join_filter_kb * 1024 / 8;
    for (size_t i = 0; i < kSpecs; ++i) {
      JobSpec spec;
      spec.kind = i % 3 == 0   ? core::JobKind::kSelect
                  : i % 3 == 1 ? core::JobKind::kAggregate
                               : core::JobKind::kProbe;
      if (spec.kind == core::JobKind::kSelect) {
        const int64_t span = jr.NextInRange(50'000, 500'000);
        spec.lo = jr.NextInRange(0, kValueMax - span);
        spec.hi = spec.lo + span - 1;
      } else if (spec.kind == core::JobKind::kProbe) {
        spec.image.assign(filter_words, 0);
        for (uint64_t k = 0; k < kProbeKeys; ++k) {
          const uint64_t key =
              static_cast<uint64_t>(jr.NextInRange(0, kValueMax - 1));
          for (uint32_t h = 0; h < core::RuntimeConfig{}.join_hashes; ++h) {
            const uint64_t bit = jafar::BloomBitIndex(key, h, filter_words);
            spec.image[bit / 64] |= uint64_t{1} << (bit % 64);
          }
        }
      }
      specs_.push_back(std::move(spec));
    }
  }
  array_ = std::make_unique<core::DimmArray>(
      dram::DramTiming::DDR3_1600(), kChannels, 1, DeriveDeviceConfig(tracer),
      /*rows_per_bank=*/8192, /*partitioned=*/true);
  runtime_ = std::make_unique<core::NdpRuntime>(array_.get(),
                                                core::RuntimeConfig{});
  {
    Scoped s(tracer, "dimm.place");
    placed_ = array_->PlaceColumn(col_, {1.0, 1.0 / 2, 1.0 / 3, 1.0 / 4})
                  .ValueOrDie();
  }
  for (uint32_t c = 0; c < kChannels; ++c) {
    auto h = std::make_unique<HostChannel>();
    h->eq = &array_->partitions()->queue(c);
    h->mc = &array_->dram().controller(c);
    h->rng = Rng(opts.seed, /*stream=*/10 + c);
    h->base = array_->AllocOnDevice(c, kHostRegionBytes).ValueOrDie();
    alloc_end_.push_back(h->base + kHostRegionBytes);
    host_.push_back(std::move(h));
  }
}

void Contend::SubmitNext(Tracer* tracer) {
  const size_t spec = jobs_.size() % specs_.size();
  const JobSpec& s = specs_[spec];
  const size_t slot = jobs_.size();
  jobs_.push_back(JobRecord{spec, 0, array_->eq().Now(), 0, false});
  auto done = [this, slot, tracer](const core::JobResult& r) {
    JobRecord& rec = jobs_[slot];
    rec.done = true;
    rec.submitted_ps = r.submitted_ps;
    rec.completed_ps = r.completed_ps;
    // Closed loop: the next job enters as this one leaves, until the window
    // closes.
    if (array_->eq().Now() < stop_ps_) SubmitNext(tracer);
  };
  Scoped span(tracer, "runtime.Submit", array_->eq().Now());
  Result<core::NdpRuntime::JobId> id =
      s.kind == core::JobKind::kSelect
          ? runtime_->SubmitSelect(placed_, s.lo, s.hi,
                                   core::JobPriority::kBatch, done)
      : s.kind == core::JobKind::kAggregate
          ? runtime_->SubmitAggregate(placed_, jafar::AggKind::kSum,
                                      core::JobPriority::kBatch, done)
          : runtime_->SubmitProbe(placed_, s.image, core::JobPriority::kBatch,
                                  done);
  NDP_CHECK_MSG(id.ok(), id.status().ToString().c_str());
  jobs_[slot].id = id.ValueOrDie();
}

void Contend::Simulate(Tracer* tracer, sim::Tick horizon_ps) {
  core::DimmArray& array = *array_;
  array.RunUntil(array.eq().Now() + kWarmupPs);
  StatsSnapshot before = array.stats().Snapshot();
  start_ps_ = array.eq().Now();
  stop_ps_ = start_ps_ + kWindowPs;
  for (auto& h : host_) {
    h->stop_ps = start_ps_ + 2 * kStepPs;
    h->ArriveAt(start_ps_ + 1);
  }
  for (int i = 0; i < kOutstanding; ++i) SubmitNext(tracer);
  {
    // Advance in steps; at each barrier the host traffic's horizon moves two
    // steps ahead, so the channels stay contended until the window has
    // closed and the last job has finished. Then the traffic stops.
    Scoped s(tracer, "sim.RunUntil", start_ps_);
    for (;;) {
      array.RunUntil(array.eq().Now() + kStepPs);
      const sim::Tick now = array.eq().Now();
      if (horizon_ps != 0 && now >= start_ps_ + horizon_ps) {
        end_ps_ = now;
        delta_ = array.stats().Snapshot().DeltaSince(before);
        return;
      }
      const bool jobs_done = std::all_of(
          jobs_.begin(), jobs_.end(), [](const JobRecord& j) { return j.done; });
      const bool finished = now >= stop_ps_ && jobs_done;
      for (auto& h : host_) h->stop_ps = finished ? now : now + 2 * kStepPs;
      if (finished) break;
    }
  }
  {
    Scoped s(tracer, "sim.RunUntilTrue", array.eq().Now());
    array.RunUntilTrue([this] {
      for (const auto& h : host_) {
        if (h->completed != h->issued) return false;
      }
      return true;
    });
  }
  end_ps_ = array.eq().Now();
  delta_ = array.stats().Snapshot().DeltaSince(before);
}

std::vector<double> Contend::HostLatenciesUs() const {
  std::vector<double> us;
  for (const auto& h : host_) {
    for (sim::Tick t : h->latency_ps) us.push_back(static_cast<double>(t) / 1e6);
  }
  return us;
}

double Contend::RowsPerSecond() const {
  double rows = 0;
  sim::Tick last = start_ps_;
  for (const JobRecord& j : jobs_) {
    if (j.done) {
      rows += static_cast<double>(kRows);
      last = std::max(last, j.completed_ps);
    }
  }
  return last > start_ps_ ? rows / (static_cast<double>(last - start_ps_) / 1e12)
                          : 0.0;
}

Outcome Contend::Verify() {
  Outcome out;
  // Scan oracles, one per job spec the client used.
  std::vector<BitVector> want(specs_.size());
  std::vector<uint64_t> want_matches(specs_.size(), 0);
  std::vector<bool> used(specs_.size(), false);
  for (const JobRecord& j : jobs_) used[j.spec] = true;
  int64_t sum = 0;
  for (size_t i = 0; i < col_.size(); ++i) sum += col_[i];
  for (size_t s = 0; s < specs_.size(); ++s) {
    const JobSpec& spec = specs_[s];
    if (!used[s] || spec.kind == core::JobKind::kAggregate) continue;
    want[s].Resize(col_.size());
    const uint64_t words = spec.image.size();
    for (size_t i = 0; i < col_.size(); ++i) {
      bool hit;
      if (spec.kind == core::JobKind::kSelect) {
        hit = col_[i] >= spec.lo && col_[i] <= spec.hi;
      } else {
        hit = true;
        for (uint32_t h = 0; h < core::RuntimeConfig{}.join_hashes && hit; ++h) {
          const uint64_t bit =
              jafar::BloomBitIndex(static_cast<uint64_t>(col_[i]), h, words);
          hit = (spec.image[bit / 64] >> (bit % 64)) & 1;
        }
      }
      if (hit) {
        want[s].Set(i);
        ++want_matches[s];
      }
    }
  }
  for (const JobRecord& j : jobs_) {
    ++out.attempted;
    const core::JobResult* r = runtime_->result(j.id);
    bool ok = j.done && r != nullptr && r->status.ok();
    if (ok) {
      const JobSpec& spec = specs_[j.spec];
      if (spec.kind == core::JobKind::kAggregate) {
        ok = r->agg_value == sum;
      } else {
        ok = r->matches == want_matches[j.spec] &&
             r->bitmap.num_words() == want[j.spec].num_words();
        for (size_t w = 0; ok && w < want[j.spec].num_words(); ++w) {
          ok = r->bitmap.Word(w) == want[j.spec].Word(w);
        }
      }
    }
    if (!ok) ++out.failed;
  }
  out.Check(out.failed == 0, "contend: a job failed or disagreed with its "
                             "scan oracle");
  uint64_t issued = 0, completed = 0;
  for (const auto& h : host_) {
    issued += h->issued;
    completed += h->completed;
    out.Check(h->latency_ps.size() == h->completed,
              "contend: host latency samples do not match completions");
  }
  out.attempted += issued;
  out.failed += issued - completed;
  out.Check(issued == completed, "contend: host requests never completed");
  // Device memory the window consumed (probe filters, steal transplants):
  // the bump allocator never frees, so this is what a longer window would
  // keep accumulating.
  double bytes = 0;
  for (uint32_t d = 0; d < kChannels; ++d) {
    Result<uint64_t> probe = array_->AllocOnDevice(d, 64, 64);
    out.Check(probe.ok(), "contend: device rank allocator exhausted");
    if (probe.ok()) bytes += static_cast<double>(probe.value() - alloc_end_[d]);
  }
  alloc_mb_ = bytes / (1024.0 * 1024.0);
  return out;
}

std::string Contend::Digest() const {
  std::string d;
  char buf[200];
  for (const JobRecord& j : jobs_) {
    const core::JobResult* r = runtime_->result(j.id);
    uint64_t bits = 1469598103934665603ULL;
    if (r != nullptr) {
      for (size_t w = 0; w < r->bitmap.num_words(); ++w) {
        uint64_t word = r->bitmap.Word(w);
        bits = Fnv1a(std::string(reinterpret_cast<const char*>(&word), 8), bits);
      }
    }
    std::snprintf(buf, sizeof(buf), "job %zu %d %llu %lld %llu %llu %016llx\n",
                  j.spec, r ? static_cast<int>(r->status.ok()) : -1,
                  static_cast<unsigned long long>(r ? r->matches : 0),
                  static_cast<long long>(r ? r->agg_value : 0),
                  static_cast<unsigned long long>(j.submitted_ps),
                  static_cast<unsigned long long>(j.completed_ps),
                  static_cast<unsigned long long>(bits));
    d += buf;
  }
  for (const auto& h : host_) {
    std::string raw(reinterpret_cast<const char*>(h->latency_ps.data()),
                    h->latency_ps.size() * sizeof(sim::Tick));
    std::snprintf(buf, sizeof(buf), "host %llu %llu %llu %016llx\n",
                  static_cast<unsigned long long>(h->issued),
                  static_cast<unsigned long long>(h->completed),
                  static_cast<unsigned long long>(h->retries),
                  static_cast<unsigned long long>(Fnv1a(raw)));
    d += buf;
  }
  std::snprintf(buf, sizeof(buf), "end %llu\n",
                static_cast<unsigned long long>(end_ps_));
  return d + buf + delta_.ToText();
}

void Contend::EndToEnd(Metrics* m) const {
  std::vector<double> us = HostLatenciesUs();
  uint64_t attempted = jobs_.size(), bad = 0;
  for (const JobRecord& j : jobs_) {
    const core::JobResult* r = runtime_->result(j.id);
    bad += !(j.done && r != nullptr && r->status.ok());
  }
  for (const auto& h : host_) {
    attempted += h->issued;
    bad += h->issued - h->completed;
  }
  m->Set("p50_us", ExactQuantile(us, 0.5), "us");
  m->Set("p99_us", ExactQuantile(us, 0.99), "us");
  m->Set("goodput_per_s", RowsPerSecond(), "1/s");
  m->Set("ok_frac",
         1.0 - static_cast<double>(bad) / static_cast<double>(attempted),
         "ratio");
}

void Contend::PerLayer(const Tracer& tracer, Metrics* m) const {
  (void)tracer;
  double events = 0;
  for (uint32_t p = 0; p <= kChannels; ++p) {
    events += delta_.Value("sim.part" + std::to_string(p) + ".events");
  }
  const double epochs = delta_.Value("sim.epochs");
  m->Set("sim.events", events, "count");
  m->Set("sim.epochs", epochs, "count");
  m->Set("sim.events_per_epoch", epochs > 0 ? events / epochs : 0, "count");
  const sim::Tick elapsed = end_ps_ - start_ps_;
  DramLayerMetrics(delta_, "array.dram", kChannels, elapsed,
                   static_cast<double>(dram::DramTiming::DDR3_1600().tck_ps), m);
  JafarLayerMetrics(delta_, kChannels, elapsed, m);
  RuntimeLayerMetrics(delta_, kChannels, m);
  std::vector<double> job_us;
  for (const JobRecord& j : jobs_) {
    if (j.done) {
      job_us.push_back(static_cast<double>(j.completed_ps - j.submitted_ps) /
                       1e6);
    }
  }
  m->Set("runtime.job_p99_us", ExactQuantile(job_us, 0.99), "us");
  m->Set("dimm.alloc_mb", alloc_mb_, "MB");
  const double samples = static_cast<double>(HostLatenciesUs().size());
  m->Set("p50_us.samples", samples, "count");
  m->Set("p99_us.samples", samples, "count");
}

/// Sets up on `threads` partition workers and runs the first kPdesHorizonPs
/// of the window; returns the results' digest and the run's wall seconds.
std::pair<std::string, double> Contend::PrefixRun(const Options& opts,
                                                  unsigned threads) {
  SetSimThreads(threads);  // read when the partitioned array is built
  Contend c;
  c.Setup(opts, nullptr);
  SetSimThreads(1);
  const double t0 = WallNow();
  c.Simulate(nullptr, kPdesHorizonPs);
  const double wall_s = WallNow() - t0;
  return {c.Digest(), wall_s};
}

void Contend::TracedExtras(const Options& opts, Metrics* m, Outcome* out) {
  // The same contend prefix on one and on min(4, nproc) partition workers:
  // results must be byte-identical, and the wall-time ratio is the PDES
  // speedup. A prefix, because the epoch barriers make four workers run an
  // order of magnitude slower than one here; the whole window would not fit
  // in a run.
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  auto [serial, serial_s] = PrefixRun(opts, 1);
  auto [parallel, parallel_s] = PrefixRun(opts, threads);
  out->Check(serial == parallel, "contend: results differ between 1 and " +
                                     std::to_string(threads) +
                                     " sim threads");
  m->Set("sim.pdes_speedup", serial_s / parallel_s, "x");
}

}  // namespace

std::unique_ptr<Workload> MakeContend() { return std::make_unique<Contend>(); }

}  // namespace perfbench
