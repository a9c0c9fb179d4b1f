// Ablation — JSPIM-style join & group-by pushdown under skew. Two parts:
//
// Part 1 (query sweep): TPC-H Q3 and Q18 over datasets generated at Zipf
// lines-per-order skew theta in {0, 0.5, 1, 1.5, 2}. For each theta the
// accelerable operators run head-to-head: the CPU baseline simulates the
// hash semijoin probe (HashProbeStream, dependent hash-table loads) and the
// hash group-by (GroupByScanStream) on the gem5-calibrated core, while the
// NDP path routes the same operators through the NdpRuntime's Bloom-probe
// and bucket-window group-by jobs over a 4-device DIMM array. Query results
// must be bit-identical (checksum MATCH at every point); at full size the
// device must win both operators at every theta.
//
// Part 2 (skew microbench): one probe job over a column placed across the
// 4 devices with Zipf(theta) weights (device 0 hottest). Work stealing with
// the ETA-based heavy-hitter victim selection on vs. stealing off; the
// candidate bitmap is checked bit-for-bit against the host Bloom evaluation
// (shared BloomBitIndex semantics). Claim under test: heavy-hitter
// rebalancing measurably cuts the makespan at theta >= 1.5.
//
// Writes BENCH_abl_join.json.
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "bench/reporter.h"
#include "core/api.h"
#include "core/runtime.h"
#include "db/tpch_queries.h"

using namespace ndp;

namespace {

jafar::DeviceConfig DeviceConfig() {
  return jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                     accel::DatapathResources{})
      .ValueOrDie();
}

/// One theta point of the query sweep.
struct QueryPoint {
  double theta = 0;
  double q3_cpu_ms = 0;   ///< CPU semijoin probe (accelerable operator)
  double q3_ndp_ms = 0;   ///< device Bloom probe + refinement window
  double q18_cpu_ms = 0;  ///< CPU hash group-by (accelerable operator)
  double q18_ndp_ms = 0;  ///< device bucket-window group-by
  bool match = true;      ///< Q3 + Q18 checksums identical to the CPU run
};

/// CPU-side cost of Q3's accelerable operator: the hash semijoin probe of
/// the shipdate-qualifying lineitem keys against the qualifying orderkeys,
/// on the gem5-calibrated core.
double CpuProbeMs(db::Catalog* catalog) {
  db::QueryContext ctx;
  db::Table& cust = catalog->Tab("customer");
  db::Table& ord = catalog->Tab("orders");
  db::Table& li = catalog->Tab("lineitem");
  int64_t date = db::tpch::DayNumber(1995, 3, 15);
  int64_t building =
      cust.Col("c_mktsegment").CodeOf("BUILDING").ValueOrDie();
  db::PositionList cust_pos =
      db::ScanSelect(&ctx, cust.Col("c_mktsegment"), db::Pred::Eq(building));
  db::PositionList ord_pos =
      db::ScanSelect(&ctx, ord.Col("o_orderdate"), db::Pred::Lt(date));
  db::JoinResult co = db::HashJoin(&ctx, cust.Col("c_custkey"), cust_pos,
                                   ord.Col("o_custkey"), ord_pos);
  std::unordered_set<int64_t> okeys;
  for (uint32_t p : co.right) okeys.insert(ord.Col("o_orderkey")[p]);
  db::PositionList li_pos =
      db::ScanSelect(&ctx, li.Col("l_shipdate"), db::Pred::Gt(date));

  // Probe keys + per-row hit outcomes drive the stream's branch behaviour.
  db::Column probe_keys = db::Column::Int64("probe_keys");
  probe_keys.Reserve(li_pos.size());
  std::vector<uint8_t> hits(li_pos.size(), 0);
  for (size_t i = 0; i < li_pos.size(); ++i) {
    int64_t key = li.Col("l_orderkey")[li_pos[i]];
    probe_keys.Append(key);
    hits[i] = okeys.count(key) != 0 ? 1 : 0;
  }

  core::SystemModel sys(core::PlatformConfig::Gem5());
  uint64_t key_base = sys.PinColumn(probe_keys);
  uint64_t ht = sys.Allocate(std::max<uint64_t>(1, okeys.size()) * 16, 4096);
  uint64_t out = sys.Allocate(li_pos.size() * 4 + 64, 4096);
  cpu::HashProbeStream stream(
      probe_keys.data(), probe_keys.size(), key_base, ht, out,
      static_cast<uint32_t>(std::max<size_t>(1, okeys.size())), hits.data());
  return bench::Ms(sys.RunStream(&stream).ValueOrDie().duration_ps);
}

/// CPU-side cost of Q18's accelerable operator: the full-column hash
/// group-by of l_quantity by l_orderkey.
double CpuGroupByMs(db::Catalog* catalog) {
  db::Table& li = catalog->Tab("lineitem");
  const db::Column& okey = li.Col("l_orderkey");
  const db::Column& qty = li.Col("l_quantity");
  uint32_t groups = static_cast<uint32_t>(
      std::max<int64_t>(1, okey.size() == 0 ? 1 : okey[okey.size() - 1]));
  core::SystemModel sys(core::PlatformConfig::Gem5());
  uint64_t key_base = sys.PinColumn(okey);
  uint64_t val_base = sys.PinColumn(qty);
  uint64_t ht = sys.Allocate(static_cast<uint64_t>(groups) * 16, 4096);
  cpu::GroupByScanStream stream(okey.data(), okey.size(), key_base, val_base,
                                ht, groups);
  return bench::Ms(sys.RunStream(&stream).ValueOrDie().duration_ps);
}

/// Runs query `number` with the join/group-by hooks installed and returns
/// {checksum, device_ms}: the event-queue advance is exactly the device time
/// of the pushed-down operators (host compute does not move the sim clock).
std::pair<int64_t, double> NdpQuery(db::Catalog* catalog, int number) {
  core::DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, DeviceConfig());
  core::NdpRuntime runtime(&array, core::RuntimeConfig{});
  db::QueryContext ctx;
  ctx.ndp_semi_join = runtime.MakeSemiJoinHook();
  ctx.ndp_group_by = runtime.MakeGroupByHook();
  // Warm-up: channel-silence history for the idle-period estimator.
  array.eq().RunUntil(array.eq().Now() + 20'000'000);
  sim::Tick start = array.eq().Now();
  int64_t checksum =
      db::tpch::RunQueryByNumber(&ctx, catalog, number).ValueOrDie();
  return {checksum, bench::Ms(array.eq().Now() - start)};
}

QueryPoint RunQueryPoint(double theta, double scale) {
  QueryPoint r;
  r.theta = theta;

  db::tpch::TpchConfig cfg;
  cfg.scale = scale;
  cfg.skew_theta = theta;
  db::Catalog catalog;
  db::tpch::Generate(cfg, &catalog);

  db::QueryContext cpu_ctx;
  int64_t cpu_q3 =
      db::tpch::RunQueryByNumber(&cpu_ctx, &catalog, 3).ValueOrDie();
  int64_t cpu_q18 =
      db::tpch::RunQueryByNumber(&cpu_ctx, &catalog, 18).ValueOrDie();

  r.q3_cpu_ms = CpuProbeMs(&catalog);
  r.q18_cpu_ms = CpuGroupByMs(&catalog);

  auto [ndp_q3, q3_ms] = NdpQuery(&catalog, 3);
  auto [ndp_q18, q18_ms] = NdpQuery(&catalog, 18);
  r.q3_ndp_ms = q3_ms;
  r.q18_ndp_ms = q18_ms;
  r.match = ndp_q3 == cpu_q3 && ndp_q18 == cpu_q18;
  return r;
}

/// One steal on/off run of the probe skew microbench.
struct SkewPoint {
  double theta = 0;
  bool steal = true;
  double makespan_ms = 0;
  bool match = true;
  StatsSnapshot counters;
};

SkewPoint RunSkewPoint(const db::Column& col, double theta, bool steal) {
  SkewPoint r;
  r.theta = theta;
  r.steal = steal;

  core::DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, DeviceConfig());
  core::RuntimeConfig cfg;
  cfg.steal_enabled = steal;
  // Short lease windows so the probe spans many leases per lane: the
  // heavy-hitter detector only trusts a lane's rate after
  // core::kHeavyHitterMinLeases completed leases, so the hot lane must finish
  // several leases while the imbalance is still live (DESIGN.md §12).
  cfg.lease_init_bus_cycles = 4'000;
  cfg.lease_max_bus_cycles = 8'000;
  core::NdpRuntime runtime(&array, cfg);

  // Zipf(theta) placement: device d holds a share proportional to (d+1)^-th.
  std::vector<double> weights;
  for (int d = 0; d < 4; ++d) {
    weights.push_back(std::pow(static_cast<double>(d + 1), -theta));
  }
  core::PlacedColumn placed = array.PlaceColumn(col, weights).ValueOrDie();

  // Bloom image over a ~4k-key build set (multiples of 256 in the value
  // domain): sparse enough that the filter stays discriminating.
  const uint64_t filter_words = cfg.join_filter_kb * 1024 / 8;
  std::vector<uint64_t> image(filter_words, 0);
  for (int64_t key = 0; key < 1'000'000; key += 256) {
    for (uint32_t h = 0; h < cfg.join_hashes; ++h) {
      uint64_t bit =
          jafar::BloomBitIndex(static_cast<uint64_t>(key), h, filter_words);
      image[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }

  array.eq().RunUntil(array.eq().Now() + 20'000'000);
  StatsSnapshot before = array.stats().Snapshot();
  sim::Tick start = array.eq().Now();
  auto id = runtime.SubmitProbe(placed, image).ValueOrDie();
  NDP_CHECK(runtime.Drain().ok());
  r.makespan_ms = bench::Ms(array.eq().Now() - start);
  r.counters = array.stats().Snapshot().DeltaSince(before);

  // Bit-exact functional check: the device bitmap must equal the host-side
  // Bloom evaluation of every row (same BloomBitIndex, same image).
  const core::JobResult* res = runtime.result(id);
  r.match = res != nullptr && res->status.ok();
  if (r.match) {
    uint64_t expected_matches = 0;
    for (size_t i = 0; i < col.size(); ++i) {
      bool candidate = true;
      for (uint32_t h = 0; h < cfg.join_hashes && candidate; ++h) {
        uint64_t bit = jafar::BloomBitIndex(static_cast<uint64_t>(col[i]), h,
                                            filter_words);
        candidate = (image[bit / 64] >> (bit % 64)) & 1;
      }
      expected_matches += candidate;
      if (res->bitmap.Get(i) != candidate) {
        r.match = false;
        break;
      }
    }
    r.match &= res->matches == expected_matches;
  }
  return r;
}

}  // namespace

int main() {
  const double scale = bench::EnvDouble("ABL_TPCH_SCALE", 0.01);
  const uint64_t rows = bench::EnvU64("ABL_ROWS", 256u * 1024);
  const bool full_size = scale >= 0.01 && rows >= 128u * 1024;
  bench::PrintHeader(
      "Ablation — join & group-by pushdown under skew (TPC-H scale " +
      std::to_string(scale) + ", " + std::to_string(rows) + " probe rows)");

  core::RuntimeConfig defaults;
  bench::Reporter report("abl_join");
  report.Config("scale", scale);
  report.Config("rows", static_cast<double>(rows));
  report.Config("filter_kb", static_cast<double>(defaults.join_filter_kb));
  report.Config("hashes", static_cast<double>(defaults.join_hashes));

  // ---- Part 1: Q3/Q18 across generator skew --------------------------------
  const std::vector<double> thetas = {0.0, 0.5, 1.0, 1.5, 2.0};
  std::printf("\n%-8s %-12s %-12s %-10s %-12s %-12s %-10s %s\n", "theta",
              "q3_cpu_ms", "q3_ndp_ms", "q3_x", "q18_cpu_ms", "q18_ndp_ms",
              "q18_x", "match");
  bool all_match = true;
  bool ndp_wins = true;
  for (double theta : thetas) {
    QueryPoint r = RunQueryPoint(theta, scale);
    std::printf("%-8g %-12.4f %-12.4f %-10.2f %-12.4f %-12.4f %-10.2f %s\n",
                r.theta, r.q3_cpu_ms, r.q3_ndp_ms, r.q3_cpu_ms / r.q3_ndp_ms,
                r.q18_cpu_ms, r.q18_ndp_ms, r.q18_cpu_ms / r.q18_ndp_ms,
                r.match ? "MATCH" : "MISMATCH");
    all_match &= r.match;
    ndp_wins &= r.q3_ndp_ms < r.q3_cpu_ms && r.q18_ndp_ms < r.q18_cpu_ms;
    report.AddPoint("theta" + std::to_string(static_cast<int>(theta * 10)))
        .Metric("theta", r.theta)
        .Metric("q3_cpu_ms", r.q3_cpu_ms)
        .Metric("q3_ndp_ms", r.q3_ndp_ms)
        .Metric("q18_cpu_ms", r.q18_cpu_ms)
        .Metric("q18_ndp_ms", r.q18_ndp_ms)
        .Metric("match", r.match ? 1.0 : 0.0);
  }

  // ---- Part 2: probe makespan under Zipf placement, steal on vs. off -------
  db::Column col = bench::UniformColumn(rows);
  const std::vector<double> skew_thetas = {0.0, 1.0, 1.5, 2.0};
  std::printf("\n%-8s %-10s %-12s %-8s %-10s %-10s %-8s %s\n", "theta",
              "steal", "makespan_ms", "steals", "hh_flags", "eta_steals",
              "ratio", "match");
  double ratio_t15 = 0, ratio_t20 = 0;
  double hh_flags_t20_on = 0;
  for (double theta : skew_thetas) {
    SkewPoint on = RunSkewPoint(col, theta, /*steal=*/true);
    SkewPoint off = RunSkewPoint(col, theta, /*steal=*/false);
    all_match &= on.match && off.match;
    double ratio = off.makespan_ms / on.makespan_ms;
    if (theta == 1.5) ratio_t15 = ratio;
    if (theta == 2.0) ratio_t20 = ratio;
    for (const SkewPoint* p : {&on, &off}) {
      double steals = p->counters.Value("array.runtime.steals");
      double hh = p->counters.Value("array.runtime.hh_flags");
      double eta = p->counters.Value("array.runtime.eta_steals");
      if (theta == 2.0 && p->steal) hh_flags_t20_on = hh;
      std::printf("%-8g %-10s %-12.4f %-8g %-10g %-10g %-8.2f %s\n", p->theta,
                  p->steal ? "on" : "off", p->makespan_ms, steals, hh, eta,
                  ratio, p->match ? "MATCH" : "MISMATCH");
      report.AddPoint("skew" + std::to_string(static_cast<int>(theta * 10)) +
                      (p->steal ? "_steal_on" : "_steal_off"))
          .Metric("theta", p->theta)
          .Metric("steal", p->steal ? 1.0 : 0.0)
          .Metric("makespan_ms", p->makespan_ms)
          .Metric("match", p->match ? 1.0 : 0.0)
          .Counters("", p->counters);
    }
  }

  std::printf("\nSteal contrast: %.2fx at theta 1.5, %.2fx at theta 2.0 "
              "(hh_flags on hot run: %g)\n",
              ratio_t15, ratio_t20, hh_flags_t20_on);
  report.AddPoint("summary")
      .Metric("steal_ratio_t15", ratio_t15)
      .Metric("steal_ratio_t20", ratio_t20)
      .Metric("hh_flags_t20", hh_flags_t20_on);

  NDP_CHECK_MSG(all_match, "a pushed-down join/group-by diverged from the "
                           "CPU oracle");
  if (full_size) {
    NDP_CHECK_MSG(ndp_wins,
                  "NDP lost an accelerable operator at some skew point");
    NDP_CHECK_MSG(ratio_t15 > 1.05 && ratio_t20 > 1.05,
                  "heavy-hitter rebalancing failed to cut the skewed probe "
                  "makespan at theta >= 1.5");
    NDP_CHECK_MSG(hh_flags_t20_on >= 1.0,
                  "no heavy hitter was flagged on the theta=2 placement");
  } else {
    std::printf("(small ABL_TPCH_SCALE/ABL_ROWS: bounds reported, not enforced)\n");
  }

  report.WriteJson();
  return 0;
}
