// Host-side microbenchmarks (google-benchmark) of the library's hot
// primitives: these bound how fast the simulator itself runs, independent of
// simulated time.
//
// Besides the google-benchmark suite, main() runs a sim-kernel throughput
// comparison — the timing-wheel EventQueue vs. the seed heap kernel
// (sim/reference_queue.h) on identical ticker workloads — and writes the
// numbers to BENCH_sim.json in the working directory.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "accel/schedule.h"
#include "bench/bench_util.h"
#include "bench/reporter.h"
#include "cpu/kernels.h"
#include "db/operators.h"
#include "dram/dram_system.h"
#include "jafar/config.h"
#include "sim/event_queue.h"
#include "sim/reference_queue.h"
#include "sim/ticking.h"
#include "util/bitvector.h"
#include "util/rng.h"

namespace ndp {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue eq;
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      eq.ScheduleAt(static_cast<sim::Tick>(i * 7 % 997), [&sink] { ++sink; });
    }
    eq.RunUntilEmpty();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

// ---------------------------------------------------------------------------
// Sim-kernel throughput: identical ticker workloads on the timing-wheel
// kernel (intrusive nodes) and on the seed heap kernel (closure per edge).
// ---------------------------------------------------------------------------

/// A component that ticks forever; the workload of a streaming JAFAR engine.
class CountingTicker final : public sim::TickingComponent {
 public:
  CountingTicker(sim::EventQueue* eq, sim::ClockDomain clock, uint64_t* count)
      : sim::TickingComponent(eq, clock), count_(count) {}

 protected:
  bool Tick() override {
    ++*count_;
    return true;
  }

 private:
  uint64_t* count_;
};

/// Seed-style ticker: re-schedules a closure every edge. The context pointer
/// keeps the capture within std::function's small-buffer optimisation, as the
/// seed's TickingComponent lambda was.
struct HeapTickerCtx {
  sim::ReferenceEventQueue* eq;
  sim::Tick period;
  uint64_t* count;
  void Arm(sim::Tick at) {
    eq->ScheduleAt(at, [this] {
      ++*count;
      Arm(eq->Now() + period);
    });
  }
};

/// Periods for the multi-ticker scenario: the clock domains that coexist in a
/// full-system run (CPU 1 GHz, DRAM bus 800 MHz, JAFAR 1.6 GHz, ...).
const std::vector<sim::Tick> kMultiPeriods = {625,  800,  1000, 1250,
                                              1600, 2000, 2500, 3200};

uint64_t WheelTickerRun(size_t num_tickers, sim::Tick span) {
  sim::EventQueue eq;
  uint64_t count = 0;
  std::vector<std::unique_ptr<CountingTicker>> tickers;
  for (size_t i = 0; i < num_tickers; ++i) {
    tickers.push_back(std::make_unique<CountingTicker>(
        &eq, sim::ClockDomain(kMultiPeriods[i % kMultiPeriods.size()]),
        &count));
    tickers.back()->Wake();
  }
  eq.RunUntil(span);
  return count;
}

uint64_t HeapTickerRun(size_t num_tickers, sim::Tick span) {
  sim::ReferenceEventQueue eq;
  uint64_t count = 0;
  std::vector<std::unique_ptr<HeapTickerCtx>> tickers;
  for (size_t i = 0; i < num_tickers; ++i) {
    sim::Tick period = kMultiPeriods[i % kMultiPeriods.size()];
    tickers.push_back(
        std::make_unique<HeapTickerCtx>(HeapTickerCtx{&eq, period, &count}));
    tickers.back()->Arm(period);
  }
  eq.RunUntil(span);
  return count;
}

void BM_WheelTickers(benchmark::State& state) {
  const size_t tickers = static_cast<size_t>(state.range(0));
  const sim::Tick span = 1 << 20;
  uint64_t events = 0;
  for (auto _ : state) {
    events = WheelTickerRun(tickers, span);
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(events));
}
BENCHMARK(BM_WheelTickers)->Arg(1)->Arg(8);

void BM_HeapTickers(benchmark::State& state) {
  const size_t tickers = static_cast<size_t>(state.range(0));
  const sim::Tick span = 1 << 20;
  uint64_t events = 0;
  for (auto _ : state) {
    events = HeapTickerRun(tickers, span);
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(events));
}
BENCHMARK(BM_HeapTickers)->Arg(1)->Arg(8);

void BM_BitVectorSetCount(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<uint32_t> positions(n / 3);
  for (auto& p : positions) p = rng.NextBounded(static_cast<uint32_t>(n));
  for (auto _ : state) {
    BitVector bv(n);
    for (uint32_t p : positions) bv.Set(p);
    benchmark::DoNotOptimize(bv.CountOnes());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitVectorSetCount)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ScanSelectBranching(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  db::Column col = db::Column::Int64("c");
  Rng rng(2);
  for (size_t i = 0; i < n; ++i) col.Append(rng.NextInRange(0, 999999));
  db::QueryContext ctx;
  for (auto _ : state) {
    auto pos = db::ScanSelect(&ctx, col, db::Pred::Between(0, 499999));
    benchmark::DoNotOptimize(pos.data());
    ctx.stats.clear();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ScanSelectBranching)->Arg(1 << 16)->Arg(1 << 20);

void BM_SelectUopStreamGeneration(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> values(n);
  Rng rng(3);
  for (auto& v : values) v = rng.NextInRange(0, 999999);
  for (auto _ : state) {
    cpu::SelectScanStream s(values.data(), n, 0, 499999, 0, 1 << 28, false);
    cpu::Uop u;
    uint64_t count = 0;
    while (s.Next(&u)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SelectUopStreamGeneration)->Arg(1 << 16);

void BM_DddgScheduleSelectKernel(benchmark::State& state) {
  accel::LoopKernel kernel = accel::MakeSelectKernel();
  accel::DatapathResources res;
  for (auto _ : state) {
    auto r = accel::ScheduleKernel(kernel, res,
                                   static_cast<uint32_t>(state.range(0)));
    benchmark::DoNotOptimize(r.ValueOrDie().total_cycles);
  }
}
BENCHMARK(BM_DddgScheduleSelectKernel)->Arg(64)->Arg(512)->Arg(4096);

// The scheduling every SystemModel and DimmArray pays at set-up: Derive for a
// rank-level device (select + probe kernels), DeriveBank for a bank-level one
// (the same plus the per-bank slice).
void BM_DeviceConfigDerive(benchmark::State& state) {
  const dram::DramTiming timing = dram::DramTiming::DDR3_1600();
  const accel::DatapathResources res;
  for (auto _ : state) {
    auto cfg = jafar::DeviceConfig::Derive(timing, res);
    benchmark::DoNotOptimize(cfg.ValueOrDie().words_per_cycle);
  }
}
BENCHMARK(BM_DeviceConfigDerive);

void BM_DeviceConfigDeriveBank(benchmark::State& state) {
  const dram::DramTiming timing = dram::DramTiming::DDR3_1600();
  const dram::DramOrganization org;
  const accel::DatapathResources res;
  for (auto _ : state) {
    auto cfg = jafar::DeviceConfig::DeriveBank(timing, org, res);
    benchmark::DoNotOptimize(cfg.ValueOrDie().bank_words_per_cycle);
  }
}
BENCHMARK(BM_DeviceConfigDeriveBank);

void BM_DramRandomReads(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::EventQueue eq;
    dram::DramOrganization org;
    org.rows_per_bank = 4096;
    dram::ControllerConfig cc;
    cc.refresh_enabled = false;
    dram::DramSystem dram(&eq, dram::DramTiming::DDR3_1600(), org,
                          dram::InterleaveScheme::kContiguous, cc);
    Rng rng(4);
    state.ResumeTiming();
    int completed = 0;
    for (int i = 0; i < 512; ++i) {
      dram::Request req;
      req.addr = (rng.NextU64() % org.TotalBytes()) & ~uint64_t{63};
      req.on_complete = [&completed](sim::Tick) { ++completed; };
      while (!dram.EnqueueRequest(req).ok()) eq.Step();
    }
    eq.RunUntilTrue([&] { return completed == 512; });
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_DramRandomReads);

// ---------------------------------------------------------------------------
// BENCH_sim.json: machine-readable kernel throughput record.
// ---------------------------------------------------------------------------

struct KernelMeasurement {
  uint64_t events = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
  double sim_ticks_per_sec = 0;  ///< simulated picoseconds per wall second
};

/// Best-of-3 wall-clock measurement of `run(num_tickers, span)`.
template <typename RunFn>
KernelMeasurement Measure(RunFn&& run, size_t num_tickers, sim::Tick span) {
  KernelMeasurement best;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    uint64_t events = run(num_tickers, span);
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs <= 0) secs = 1e-9;
    if (best.wall_seconds == 0 || secs < best.wall_seconds) {
      best.events = events;
      best.wall_seconds = secs;
      best.events_per_sec = static_cast<double>(events) / secs;
      best.sim_ticks_per_sec = static_cast<double>(span) / secs;
    }
  }
  return best;
}

void AddScenario(bench::Reporter* report, const char* name, size_t num_tickers,
                 sim::Tick span) {
  KernelMeasurement wheel = Measure(WheelTickerRun, num_tickers, span);
  KernelMeasurement heap = Measure(HeapTickerRun, num_tickers, span);
  double speedup = wheel.events_per_sec / heap.events_per_sec;
  report->AddPoint(name)
      .Metric("tickers", static_cast<double>(num_tickers))
      .Metric("sim_span_ps", static_cast<double>(span))
      .Metric("wheel_events", static_cast<double>(wheel.events))
      .Metric("wheel_wall_seconds", wheel.wall_seconds)
      .Metric("wheel_events_per_sec", wheel.events_per_sec)
      .Metric("wheel_sim_ticks_per_sec", wheel.sim_ticks_per_sec)
      .Metric("heap_events", static_cast<double>(heap.events))
      .Metric("heap_wall_seconds", heap.wall_seconds)
      .Metric("heap_events_per_sec", heap.events_per_sec)
      .Metric("heap_sim_ticks_per_sec", heap.sim_ticks_per_sec)
      .Metric("events_per_sec_speedup", speedup);
  std::printf(
      "%-14s %zu tickers: wheel %.1fM events/s, heap %.1fM events/s "
      "(%.2fx)\n",
      name, num_tickers, wheel.events_per_sec / 1e6, heap.events_per_sec / 1e6,
      speedup);
}

bool WriteBenchSimJson() {
  std::printf(
      "\nSim-kernel throughput (timing wheel vs. seed heap kernel)\n"
      "---------------------------------------------------------\n");
  // Solo: one armed component — the queue's single-event fast path (a JAFAR
  // engine streaming while the CPU spin-waits). Multi: every clock domain of
  // a full-system run ticking concurrently. BENCH_SIM_SPAN shrinks the
  // simulated span for smoke runs.
  const sim::Tick span =
      bench::EnvU64("BENCH_SIM_SPAN", 1u << 28);  // ~268 us sim, ~1M events
  bench::Reporter report("sim");
  report.Config("sim_span_ps", static_cast<double>(span));
  AddScenario(&report, "solo_ticker", 1, span);
  AddScenario(&report, "multi_ticker", 8, span / 4);
  return report.WriteJson();
}

}  // namespace
}  // namespace ndp

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return ndp::WriteBenchSimJson() ? 0 : 1;
}
