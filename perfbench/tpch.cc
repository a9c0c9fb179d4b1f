// `tpch`: one closed-loop analyst runs Q1, Q3, Q6, Q18 and Q22 back to back
// at scale 0.01 with Zipf(1) lines per order. Each query runs twice:
//   (a) the CPU-only plan, recorded with db::TraceRecorder and replayed
//       through SystemModel::ReplayTrace on the gem5-like platform;
//   (b) the NDP plan, with all four QueryContext hooks on a 4-device
//       NdpRuntime; its host remainder is traced and replayed on the same
//       platform.
// NDP query time = replayed host remainder + simulated time inside the hooks.
// The hooks are synchronous, so that sum is the blocking path.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/runtime.h"
#include "core/system.h"
#include "db/tpch.h"
#include "db/tpch_queries.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ndp;

constexpr int kQueries[] = {1, 3, 6, 18, 22};
constexpr size_t kNumQueries = std::size(kQueries);
constexpr double kScale = 0.01;
constexpr double kSkewTheta = 1.0;
constexpr sim::Tick kWarmupPs = 20'000'000;

struct QueryResult {
  int64_t cpu_checksum = 0, ndp_checksum = 0;
  sim::Tick cpu_only_ps = 0;  ///< CPU-only plan, replayed
  sim::Tick host_ps = 0;      ///< NDP plan's host remainder, replayed
  sim::Tick device_ps = 0;    ///< simulated time the NDP plan advanced
  sim::Tick hook_ps = 0;      ///< sum of hook spans (traced runs only)
  uint64_t fallbacks = 0;     ///< hook errors + CPU-fallback operator records
  sim::Tick ndp_ps() const { return host_ps + device_ps; }
};

class Tpch : public Workload {
 public:
  void Setup(const Options& opts, Tracer* tracer) override;
  void Run(Tracer* tracer) override;
  Outcome Verify() override;
  std::string Digest() const override;
  void EndToEnd(Metrics* m) const override;
  void PerLayer(const Tracer& tracer, Metrics* m) const override;

 private:
  /// Replays `events` on a fresh gem5-like system; accumulates its counters.
  sim::Tick Replay(const std::vector<cpu::TraceEvent>& events, Tracer* tracer);
  /// Installs the four hooks on `ctx`; with a tracer, each call is wrapped in
  /// a span carrying the simulated interval it covered.
  void InstallHooks(db::QueryContext* ctx, size_t qi, Tracer* tracer);

  db::Catalog catalog_;
  std::unique_ptr<core::DimmArray> array_;
  std::unique_ptr<core::NdpRuntime> runtime_;

  QueryResult results_[kNumQueries];
  bool traced_ = false;
  sim::Tick array_elapsed_ps_ = 0;
  sim::Tick replay_elapsed_ps_ = 0;
  uint64_t events_ = 0;
  uint64_t trace_events_ = 0;
  uint64_t rows_in_ = 0, rows_out_ = 0;
  StatsSnapshot array_delta_, replay_delta_;
  std::vector<const db::Column*> pushed_;  ///< columns the hooks received
};

void Tpch::Setup(const Options& opts, Tracer* tracer) {
  {
    Scoped s(tracer, "db.generate");
    db::tpch::TpchConfig cfg;
    cfg.scale = kScale;
    cfg.seed = opts.seed;
    cfg.skew_theta = kSkewTheta;
    db::tpch::Generate(cfg, &catalog_);
  }
  array_ = std::make_unique<core::DimmArray>(dram::DramTiming::DDR3_1600(), 4,
                                             1, DeriveDeviceConfig(tracer));
  runtime_ = std::make_unique<core::NdpRuntime>(array_.get(),
                                                core::RuntimeConfig{});
}

sim::Tick Tpch::Replay(const std::vector<cpu::TraceEvent>& events,
                       Tracer* tracer) {
  Scoped s(tracer, "cpu.ReplayTrace");
  core::SystemModel sys(core::PlatformConfig::Gem5());
  StatsSnapshot before = sys.stats().Snapshot();
  const uint64_t e0 = sys.eq().executed_events();
  core::SystemModel::CpuRunResult r = sys.ReplayTrace(events).ValueOrDie();
  events_ += sys.eq().executed_events() - e0;
  replay_elapsed_ps_ += r.duration_ps;
  Accumulate(&replay_delta_, sys.stats().Snapshot().DeltaSince(before));
  return r.duration_ps;
}

void Tpch::InstallHooks(db::QueryContext* ctx, size_t qi, Tracer* tracer) {
  db::NdpSelectHook select = runtime_->MakePushdownHook();
  db::NdpSelectBatchHook batch = runtime_->MakePushdownBatchHook();
  db::NdpSemiJoinHook semi = runtime_->MakeSemiJoinHook();
  db::NdpGroupByHook group = runtime_->MakeGroupByHook();
  if (tracer == nullptr) {
    ctx->ndp_select = std::move(select);
    ctx->ndp_select_batch = std::move(batch);
    ctx->ndp_semi_join = std::move(semi);
    ctx->ndp_group_by = std::move(group);
    return;
  }
  // Every wrapper spans the call in wall and simulated time, counts it, and
  // counts an error (the operator then falls back to the CPU path).
  auto wrap = [this, qi, tracer](const std::string& name, auto&& call) {
    QueryResult& q = results_[qi];
    sim::EventQueue& eq = array_->eq();
    const int64_t id = tracer->Begin(name, eq.Now());
    const sim::Tick t0 = eq.Now();
    auto r = call();
    q.hook_ps += eq.Now() - t0;
    if (!r.ok()) ++q.fallbacks;
    tracer->End(id, eq.Now());
    return r;
  };
  const std::string span =
      "pushdown.q" + std::to_string(kQueries[qi]) + ".hook";
  auto note = [this](const db::Column* c) {
    for (const db::Column* p : pushed_) {
      if (p == c) return;
    }
    pushed_.push_back(c);
  };
  ctx->ndp_select = [wrap, span, note, select](const db::Column& c,
                                               const db::Pred& p) {
    note(&c);
    return wrap(span, [&] { return select(c, p); });
  };
  ctx->ndp_select_batch =
      [wrap, span, note,
       batch](const std::vector<std::pair<const db::Column*, db::Pred>>& s) {
        for (const auto& e : s) note(e.first);
        return wrap(span, [&] { return batch(s); });
      };
  ctx->ndp_semi_join = [wrap, span, note, semi](
                           const db::Column& bc, const db::PositionList& bp,
                           const db::Column& pc, const db::PositionList& pp) {
    note(&pc);
    return wrap(span, [&] { return semi(bc, bp, pc, pp); });
  };
  ctx->ndp_group_by = [wrap, span, note, group](const db::Column& k,
                                                const db::Column& v) {
    note(&k);
    note(&v);
    return wrap(span, [&] { return group(k, v); });
  };
}

void Tpch::Run(Tracer* tracer) {
  traced_ = tracer != nullptr;
  sim::EventQueue& eq = array_->eq();
  // Channel silence before the first pushdown warms the idle estimator.
  array_->RunUntil(eq.Now() + kWarmupPs);
  const sim::Tick array0 = eq.Now();
  const uint64_t events0 = eq.executed_events();
  StatsSnapshot before = array_->stats().Snapshot();
  for (size_t qi = 0; qi < kNumQueries; ++qi) {
    QueryResult& q = results_[qi];
    const int number = kQueries[qi];
    Scoped query_span(tracer, "tpch.q" + std::to_string(number));
    {
      db::TraceRecorder rec;
      db::QueryContext ctx;
      ctx.trace = &rec;
      {
        Scoped s(tracer, "db.RunQuery");
        q.cpu_checksum =
            db::tpch::RunQueryByNumber(&ctx, &catalog_, number).ValueOrDie();
      }
      trace_events_ += rec.events().size();
      for (const db::OperatorStats& op : ctx.stats) {
        rows_in_ += op.rows_in;
        rows_out_ += op.rows_out;
      }
      q.cpu_only_ps = Replay(rec.events(), tracer);
    }
    {
      db::TraceRecorder rec;
      db::QueryContext ctx;
      ctx.trace = &rec;
      InstallHooks(&ctx, qi, tracer);
      const sim::Tick t0 = eq.Now();
      {
        Scoped s(tracer, "db.RunQuery", t0);
        q.ndp_checksum =
            db::tpch::RunQueryByNumber(&ctx, &catalog_, number).ValueOrDie();
      }
      q.device_ps = eq.Now() - t0;
      for (const db::OperatorStats& op : ctx.stats) {
        q.fallbacks += op.op.find("[cpu_fallback]") != std::string::npos;
      }
      trace_events_ += rec.events().size();
      q.host_ps = Replay(rec.events(), tracer);
    }
  }
  array_elapsed_ps_ = eq.Now() - array0;
  events_ += eq.executed_events() - events0;
  array_delta_ = array_->stats().Snapshot().DeltaSince(before);
  if (tracer != nullptr) {
    // The hooks place columns lazily inside the measured phase; time the same
    // placement of the same columns on a scratch array for the set-up split.
    core::DimmArray scratch(dram::DramTiming::DDR3_1600(), 4, 1,
                            array_->device_config());
    Scoped s(tracer, "dimm.place");
    for (const db::Column* c : pushed_) {
      NDP_CHECK(scratch.PlaceColumn(*c).ok());
    }
  }
}

Outcome Tpch::Verify() {
  Outcome out;
  sim::Tick total = 0, parts = 0;
  for (size_t qi = 0; qi < kNumQueries; ++qi) {
    const QueryResult& q = results_[qi];
    const std::string name = "tpch Q" + std::to_string(kQueries[qi]);
    ++out.attempted;
    if (q.ndp_checksum != q.cpu_checksum) ++out.failed;
    out.Check(q.ndp_checksum == q.cpu_checksum,
              name + ": NDP checksum differs from the CPU-only run");
    out.Check(q.cpu_only_ps > 0 && q.host_ps > 0 && q.device_ps > 0,
              name + ": a plan took no simulated time");
    if (traced_) {
      // The hook spans must cover exactly the simulated time the query
      // advanced: nothing outside the hooks moves the array's clock.
      out.Check(q.hook_ps == q.device_ps,
                name + ": hook spans do not sum to the query's device time");
    }
    parts += q.host_ps + q.device_ps;
    total += q.ndp_ps();
  }
  out.Check(parts == total,
            "tpch: host remainder + device time do not add up to query time");
  return out;
}

std::string Tpch::Digest() const {
  std::string d;
  char buf[200];
  for (size_t qi = 0; qi < kNumQueries; ++qi) {
    const QueryResult& q = results_[qi];
    std::snprintf(buf, sizeof(buf), "Q%d %lld %lld %llu %llu %llu\n",
                  kQueries[qi], static_cast<long long>(q.cpu_checksum),
                  static_cast<long long>(q.ndp_checksum),
                  static_cast<unsigned long long>(q.cpu_only_ps),
                  static_cast<unsigned long long>(q.host_ps),
                  static_cast<unsigned long long>(q.device_ps));
    d += buf;
  }
  return d + array_delta_.ToText() + replay_delta_.ToText();
}

void Tpch::EndToEnd(Metrics* m) const {
  std::vector<double> us;
  double total_s = 0;
  uint64_t ok = 0;
  for (const QueryResult& q : results_) {
    us.push_back(static_cast<double>(q.ndp_ps()) / 1e6);
    total_s += static_cast<double>(q.ndp_ps()) / 1e12;
    ok += q.ndp_checksum == q.cpu_checksum;
  }
  m->Set("p50_us", ExactQuantile(us, 0.5), "us");
  m->Set("p99_us", ExactQuantile(us, 0.99), "us");
  m->Set("goodput_per_s", static_cast<double>(kNumQueries) / total_s, "1/s");
  m->Set("ok_frac", static_cast<double>(ok) / kNumQueries, "ratio");
}

void Tpch::PerLayer(const Tracer& tracer, Metrics* m) const {
  double query_ms = 0, cpu_minus_host = 0, device = 0, log_speedup = 0;
  uint64_t fallbacks = 0;
  for (size_t qi = 0; qi < kNumQueries; ++qi) {
    const QueryResult& q = results_[qi];
    const std::string n = std::to_string(kQueries[qi]);
    m->Set("pushdown.q" + n + ".device_ms",
           static_cast<double>(q.device_ps) / 1e9, "ms");
    m->Set("cpu.q" + n + ".host_ms", static_cast<double>(q.host_ps) / 1e9,
           "ms");
    m->Set("cpu.q" + n + ".cpu_only_ms",
           static_cast<double>(q.cpu_only_ps) / 1e9, "ms");
    query_ms += static_cast<double>(q.ndp_ps()) / 1e9;
    cpu_minus_host += static_cast<double>(q.cpu_only_ps) -
                      static_cast<double>(q.host_ps);
    device += static_cast<double>(q.device_ps);
    log_speedup += std::log(static_cast<double>(q.cpu_only_ps) /
                            static_cast<double>(q.ndp_ps()));
    fallbacks += q.fallbacks;
  }
  m->Set("pushdown.fallbacks", static_cast<double>(fallbacks), "count");
  // Kernel-only gain: the CPU time the pushed operators replaced, over the
  // device time that replaced it — next to the query-level gain, so the
  // Amdahl gap between them shows.
  m->Set("pushdown.kernel_speedup_x", cpu_minus_host / device, "x");
  m->Set("pushdown.query_speedup_x", std::exp(log_speedup / kNumQueries), "x");
  m->Set("pushdown.query_ms", query_ms, "ms");
  const double l2_hits = replay_delta_.Value("system.cpu.l2.hits");
  const double l2_misses = replay_delta_.Value("system.cpu.l2.misses");
  m->Set("cpu.l2_miss_rate", l2_misses / (l2_hits + l2_misses), "ratio");
  m->Set("cpu.replay_wall_s", tracer.WallSeconds("cpu.ReplayTrace"), "s");
  m->Set("db.trace_events", static_cast<double>(trace_events_), "count");
  m->Set("db.rows_in_per_row_out",
         static_cast<double>(rows_in_) / static_cast<double>(rows_out_),
         "ratio");
  m->Set("sim.events", static_cast<double>(events_), "count");
  const core::PlatformConfig gem5 = core::PlatformConfig::Gem5();
  DramLayerMetrics(replay_delta_, "system.dram", gem5.dram_org.channels,
                   replay_elapsed_ps_,
                   static_cast<double>(gem5.dram_timing.tck_ps), m);
  JafarLayerMetrics(array_delta_, 4, array_elapsed_ps_, m);
  RuntimeLayerMetrics(array_delta_, 4, m);
  m->Set("p50_us.samples", kNumQueries, "count");
  m->Set("p99_us.samples", kNumQueries, "count");
}

}  // namespace

std::unique_ptr<Workload> MakeTpch() { return std::make_unique<Tpch>(); }

}  // namespace perfbench
