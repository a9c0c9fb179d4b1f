#include "core/system.h"

#include <gtest/gtest.h>

#include "db/tpch.h"
#include "db/tpch_queries.h"
#include "db/trace.h"
#include "util/rng.h"

namespace ndp::core {
namespace {

db::Column RandomColumn(size_t n, uint64_t seed = 1) {
  db::Column col = db::Column::Int64("v");
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) col.Append(rng.NextInRange(0, 999999));
  return col;
}

TEST(PlatformTest, PresetsMatchTable1Headlines) {
  PlatformConfig gem5 = PlatformConfig::Gem5();
  EXPECT_DOUBLE_EQ(gem5.core.clock.frequency_ghz(), 1.0);
  ASSERT_EQ(gem5.caches.size(), 2u);
  EXPECT_EQ(gem5.caches[0].size_bytes, 64u * 1024);
  EXPECT_EQ(gem5.caches[1].size_bytes, 128u * 1024);
  EXPECT_EQ(gem5.dram_org.TotalBytes(), 2ull << 30);
  EXPECT_EQ(gem5.caches[0].prefetch_degree, 0u);
  EXPECT_EQ(gem5.caches[1].prefetch_degree, 0u);

  PlatformConfig xeon = PlatformConfig::Xeon();
  EXPECT_DOUBLE_EQ(xeon.core.clock.frequency_ghz(), 2.0);
  ASSERT_EQ(xeon.caches.size(), 3u);
  EXPECT_EQ(xeon.caches[0].size_bytes, 256u * 1024);
  EXPECT_EQ(xeon.caches[1].size_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(xeon.caches[2].size_bytes, 16u * 1024 * 1024);
  EXPECT_GT(xeon.dram_org.channels, 1u);

  EXPECT_NE(gem5.ToString().find("1.0 GHz"), std::string::npos);
  EXPECT_NE(xeon.ToString().find("2.0 GHz"), std::string::npos);
}

TEST(SystemModelTest, AllocatorIsAlignedAndMonotonic) {
  SystemModel sys(PlatformConfig::Gem5());
  uint64_t a = sys.Allocate(100);
  uint64_t b = sys.Allocate(100);
  EXPECT_EQ(a % 4096, 0u);
  EXPECT_EQ(b % 4096, 0u);
  EXPECT_GT(b, a);
}

TEST(SystemModelTest, PinColumnIsIdempotentAndLoadsData) {
  SystemModel sys(PlatformConfig::Gem5());
  db::Column col = RandomColumn(1000);
  uint64_t base1 = sys.PinColumn(col);
  uint64_t base2 = sys.PinColumn(col);
  EXPECT_EQ(base1, base2);
  for (size_t i = 0; i < col.size(); i += 111) {
    EXPECT_EQ(static_cast<int64_t>(sys.dram().backing_store().Read64(
                  base1 + i * 8)),
              col[i]);
  }
}

TEST(SystemModelTest, CpuAndJafarSelectAgreeFunctionally) {
  SystemModel sys(PlatformConfig::Gem5());
  db::Column col = RandomColumn(20000, 3);
  auto cpu = sys.RunCpuSelect(col, 200000, 600000, db::SelectMode::kBranching);
  ASSERT_TRUE(cpu.ok()) << cpu.status().ToString();
  auto jaf = sys.RunJafarSelect(col, 200000, 600000);
  ASSERT_TRUE(jaf.ok()) << jaf.status().ToString();
  EXPECT_EQ(cpu.value().matches, jaf.value().matches);
  uint64_t oracle = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    oracle += col[i] >= 200000 && col[i] <= 600000;
  }
  EXPECT_EQ(cpu.value().matches, oracle);
}

TEST(SystemModelTest, JafarBeatsCpuOnLargeScan) {
  SystemModel sys(PlatformConfig::Gem5());
  db::Column col = RandomColumn(65536, 4);
  auto cpu = sys.RunCpuSelect(col, 0, 499999, db::SelectMode::kBranching)
                 .ValueOrDie();
  auto jaf = sys.RunJafarSelect(col, 0, 499999).ValueOrDie();
  EXPECT_GT(cpu.duration_ps, 3 * jaf.duration_ps);
  EXPECT_LT(cpu.duration_ps, 15 * jaf.duration_ps);
}

TEST(SystemModelTest, OwnershipHandoffIsSmallFractionOfRun) {
  SystemModel sys(PlatformConfig::Gem5());
  db::Column col = RandomColumn(65536, 5);
  auto jaf = sys.RunJafarSelect(col, 0, 999999).ValueOrDie();
  EXPECT_GT(jaf.ownership_ps, 0u);
  EXPECT_LT(jaf.ownership_ps * 100, jaf.duration_ps);
  // Ownership is returned to the host at the end.
  EXPECT_EQ(sys.dram().channel(0).rank(0).owner(), dram::RankOwner::kHost);
}

TEST(SystemModelTest, JafarTimeIndependentOfSelectivityCpuTimeIsNot) {
  SystemModel sys(PlatformConfig::Gem5());
  db::Column col = RandomColumn(32768, 6);
  (void)sys.RunJafarSelect(col, 0, 1).ValueOrDie();  // warm up bank state
  auto j0 = sys.RunJafarSelect(col, -2, -1).ValueOrDie();
  auto j1 = sys.RunJafarSelect(col, 0, 999999).ValueOrDie();
  double jratio = static_cast<double>(j1.duration_ps) /
                  static_cast<double>(j0.duration_ps);
  EXPECT_NEAR(jratio, 1.0, 0.02);

  auto c0 = sys.RunCpuSelect(col, -2, -1, db::SelectMode::kBranching)
                .ValueOrDie();
  auto c1 = sys.RunCpuSelect(col, 0, 999999, db::SelectMode::kBranching)
                .ValueOrDie();
  EXPECT_GT(c1.duration_ps, c0.duration_ps * 13 / 10);
}

TEST(SystemModelTest, ReplayTraceDrivesMemorySystem) {
  SystemModel sys(PlatformConfig::Xeon());
  std::vector<cpu::TraceEvent> events;
  for (int i = 0; i < 2000; ++i) {
    events.push_back({cpu::TraceEvent::Kind::kCompute, 4});
    events.push_back(
        {cpu::TraceEvent::Kind::kLoad, static_cast<uint64_t>(i) * 64});
  }
  auto run = sys.ReplayTrace(events).ValueOrDie();
  EXPECT_GT(run.duration_ps, 0u);
  EXPECT_EQ(run.stats.loads, 2000u);
  EXPECT_GT(sys.dram().TotalCounters().reads_served, 100u);
}

TEST(SystemModelTest, FoldedTraceReplaysLikeItsExpansion) {
  db::Catalog catalog;
  db::tpch::TpchConfig cfg;
  cfg.scale = 0.005;
  db::tpch::Generate(cfg, &catalog);
  db::TraceRecorder trace;
  db::QueryContext ctx;
  ctx.trace = &trace;
  (void)db::tpch::RunQ6(&ctx, &catalog);

  // Decode by hand: a kRun's i-th access repeats the access k back (k the
  // run's period) with its stride, a[-k] + (a[-k] - a[-2k]); an access
  // before the first reads as address 0.
  using Kind = cpu::TraceEvent::Kind;
  std::vector<cpu::TraceEvent> accesses;
  std::vector<cpu::TraceEvent> expanded;
  auto expand = [&expanded](const cpu::TraceEvent& access) {
    if (access.compute > 0) {
      expanded.emplace_back(Kind::kCompute, access.compute);
    }
    expanded.emplace_back(access.kind, access.value);
  };
  for (const cpu::TraceEvent& ev : trace.events()) {
    if (ev.kind == Kind::kCompute) {
      expanded.push_back(ev);
    } else if (ev.kind == Kind::kRun) {
      const size_t k = ev.compute;
      for (uint64_t i = 0; i < ev.value; ++i) {
        const size_t n = accesses.size();
        ASSERT_TRUE(k >= 1 && n >= k) << "period " << k << " at " << n;
        const cpu::TraceEvent& prev = accesses[n - k];
        const uint64_t before = n >= 2 * k ? accesses[n - 2 * k].value : 0;
        accesses.emplace_back(
            prev.kind, (2 * prev.value - before) & cpu::TraceEvent::kMaxValue,
            prev.compute);
        expand(accesses.back());
      }
    } else {
      accesses.push_back(ev);
      expand(ev);
    }
  }
  ASSERT_GT(expanded.size(), trace.events().size());

  auto replay = [](const std::vector<cpu::TraceEvent>& events) {
    SystemModel sys(PlatformConfig::Gem5());
    auto run = sys.ReplayTrace(events).ValueOrDie();
    return std::make_pair(run.duration_ps, sys.stats().Snapshot().ToText());
  };
  auto [folded_ps, folded_stats] = replay(trace.events());
  auto [expanded_ps, expanded_stats] = replay(expanded);
  EXPECT_GT(folded_ps, 0u);
  EXPECT_EQ(folded_ps, expanded_ps);
  EXPECT_EQ(folded_stats, expanded_stats);
}

TEST(SystemModelTest, PushdownHookMatchesCpuOperators) {
  SystemModel sys(PlatformConfig::Gem5());
  db::Column col = RandomColumn(8192, 8);
  db::QueryContext plain;
  db::QueryContext pushed;
  pushed.ndp_select = sys.MakePushdownHook();
  for (const db::Pred& pred :
       {db::Pred::Between(100000, 300000), db::Pred::Eq(col[5]),
        db::Pred::Le(500000), db::Pred::Ge(500000), db::Pred::Lt(500000),
        db::Pred::Gt(500000)}) {
    auto cpu_pos = db::ScanSelect(&plain, col, pred);
    auto ndp_pos = db::ScanSelect(&pushed, col, pred);
    EXPECT_EQ(cpu_pos, ndp_pos);
  }
  // Unsupported predicate falls back to the CPU path.
  auto ne_cpu = db::ScanSelect(&plain, col, db::Pred::Ne(col[0]));
  auto ne_ndp = db::ScanSelect(&pushed, col, db::Pred::Ne(col[0]));
  EXPECT_EQ(ne_cpu, ne_ndp);
}

TEST(SystemModelTest, DumpStatsCoversAllComponents) {
  SystemModel sys(PlatformConfig::Gem5());
  db::Column col = RandomColumn(4096, 12);
  (void)sys.RunCpuSelect(col, 0, 499999, db::SelectMode::kBranching)
      .ValueOrDie();
  (void)sys.RunJafarSelect(col, 0, 499999).ValueOrDie();
  std::string stats = sys.DumpStats();
  for (const char* key :
       {"system.ticks_ps", "system.cpu.core.uops_retired",
        "system.cpu.l1.misses", "system.cpu.l2.hits",
        "system.dram.ctrl0.reads_served", "system.dram.ctrl0.row_hits",
        "system.dram.ctrl0.idle_cycles.p90",
        "system.jafar.dev0.jobs_completed",
        "system.jafar.dev0.bursts_read", "system.jafar.dev0.energy_fj"}) {
    EXPECT_NE(stats.find(key), std::string::npos) << key;
  }
  // The registry walk matches the live counters, and reflects activity.
  const StatsRegistry& reg = sys.stats();
  EXPECT_GT(reg.Snapshot().Count("system.cpu.core.uops_retired"), 0u);
  EXPECT_EQ(reg.Snapshot().Count("system.cpu.core.uops_retired"),
            sys.cpu().stats().uops_retired);
  // Runs accumulate: nothing reset the counters behind our back.
  EXPECT_GT(sys.jafar().stats().jobs_completed, 0u);
}

TEST(SystemModelTest, PredicatedCpuSelectIsSelectivityStable) {
  SystemModel sys(PlatformConfig::Gem5());
  db::Column col = RandomColumn(32768, 9);
  auto p0 = sys.RunCpuSelect(col, -2, -1, db::SelectMode::kPredicated)
                .ValueOrDie();
  auto p1 = sys.RunCpuSelect(col, 0, 999999, db::SelectMode::kPredicated)
                .ValueOrDie();
  double ratio = static_cast<double>(p1.duration_ps) /
                 static_cast<double>(p0.duration_ps);
  EXPECT_NEAR(ratio, 1.0, 0.1);
}

}  // namespace
}  // namespace ndp::core
