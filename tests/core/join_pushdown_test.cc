// Join & group-by pushdown tests (DESIGN.md §12):
//   * Probe exactness: the device candidate bitmap is bit-identical to a host
//     evaluation of the same Bloom image — and in particular has no false
//     negatives for keys that are actually in the build set.
//   * Hook oracles: MakeSemiJoinHook / MakeGroupByHook produce bit-identical
//     results to the CPU HashSemiJoin / group-by loop.
//   * Transplant integrity: under skewed placement with stealing enabled,
//     heavy-hitter transplants lose no row and double-count none — the probe
//     bitmap stays exact and group counts still cover the column.
//   * Skew property: at Zipf-2 placement skew, ETA-driven stealing cuts the
//     probe makespan versus stealing disabled, and the heavy-hitter detector
//     actually fires.
//   * Knobs: Validate rejection of bad join_hashes / join_filter_kb.
#include <map>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/runtime.h"
#include "db/operators.h"
#include "jafar/jobs.h"
#include "util/rng.h"

namespace ndp::core {
namespace {

db::Column RandomColumn(size_t n, uint64_t seed, int64_t hi = 999'999) {
  db::Column col = db::Column::Int64("k");
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) col.Append(rng.NextInRange(0, hi));
  return col;
}

jafar::DeviceConfig Config() {
  return jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                     accel::DatapathResources{})
      .ValueOrDie();
}

/// Host-side mirror of the runtime's filter builder: same BloomBitIndex,
/// same image layout. `words` must be a power of two.
std::vector<uint64_t> BloomImage(const std::vector<int64_t>& keys,
                                 uint64_t words, uint64_t hashes) {
  std::vector<uint64_t> image(words, 0);
  for (int64_t key : keys) {
    for (uint32_t h = 0; h < hashes; ++h) {
      uint64_t bit =
          jafar::BloomBitIndex(static_cast<uint64_t>(key), h, words);
      image[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
  return image;
}

bool BloomHit(int64_t key, const std::vector<uint64_t>& image,
              uint64_t hashes) {
  for (uint32_t h = 0; h < hashes; ++h) {
    uint64_t bit = jafar::BloomBitIndex(static_cast<uint64_t>(key), h,
                                        image.size());
    if ((image[bit / 64] & (uint64_t{1} << (bit % 64))) == 0) return false;
  }
  return true;
}

db::PositionList AllPositions(size_t n) {
  db::PositionList all(n);
  std::iota(all.begin(), all.end(), 0u);
  return all;
}

std::map<int64_t, std::pair<int64_t, int64_t>> GroupOracle(
    const db::Column& keys, const db::Column& vals) {
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto& slot = groups[keys[i]];
    slot.first += vals[i];
    slot.second += 1;
  }
  return groups;
}

// -- Probe exactness ----------------------------------------------------------

TEST(JoinPushdownTest, ProbeBitmapMatchesHostBloomEvaluation) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  RuntimeConfig cfg;
  NdpRuntime runtime(&array, cfg);
  db::Column col = RandomColumn(40'000, 101);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();

  // Build side: every multiple of 97 in the key domain.
  std::vector<int64_t> build_keys;
  for (int64_t k = 0; k < 1'000'000; k += 97) build_keys.push_back(k);
  const uint64_t words = cfg.join_filter_kb * 1024 / 8;
  std::vector<uint64_t> image = BloomImage(build_keys, words, cfg.join_hashes);
  std::unordered_set<int64_t> build_set(build_keys.begin(), build_keys.end());

  auto id = runtime.SubmitProbe(placed, image).ValueOrDie();
  ASSERT_TRUE(runtime.Drain().ok());
  const JobResult* r = runtime.result(id);
  ASSERT_TRUE(r != nullptr && r->status.ok());

  uint64_t expected_matches = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    bool expected = BloomHit(col[i], image, cfg.join_hashes);
    expected_matches += expected;
    ASSERT_EQ(r->bitmap.Get(i), expected) << "row " << i;
    if (build_set.count(col[i]) != 0) {
      // No false negatives: a key that is in the build set must be flagged.
      ASSERT_TRUE(r->bitmap.Get(i)) << "false negative at row " << i;
    }
  }
  EXPECT_EQ(r->matches, expected_matches);
  EXPECT_GT(r->leases, 0u);
}

TEST(JoinPushdownTest, ProbeRejectsMalformedSubmissions) {
  db::Column col = RandomColumn(4'096, 102);
  DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  // Image whose word count is not a power of two.
  std::vector<uint64_t> lopsided(100, 0);
  EXPECT_FALSE(runtime.SubmitProbe(placed, lopsided).ok());
  // Empty image.
  EXPECT_FALSE(runtime.SubmitProbe(placed, {}).ok());
}

// -- Hook oracles -------------------------------------------------------------

TEST(JoinPushdownTest, SemiJoinHookBitIdenticalToCpuJoin) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  // Narrow key domain so real overlap exists (plus Bloom collisions to
  // exercise the refinement path).
  db::Column build = RandomColumn(6'000, 111, 49'999);
  db::Column probe = RandomColumn(30'000, 112, 49'999);
  db::PositionList build_pos = AllPositions(build.size());
  db::PositionList probe_pos = AllPositions(probe.size());

  db::QueryContext ndp_ctx;
  ndp_ctx.ndp_semi_join = runtime.MakeSemiJoinHook();
  db::PositionList ndp =
      db::HashSemiJoin(&ndp_ctx, build, build_pos, probe, probe_pos);
  db::QueryContext cpu_ctx;
  db::PositionList cpu =
      db::HashSemiJoin(&cpu_ctx, build, build_pos, probe, probe_pos);
  EXPECT_EQ(ndp, cpu);
  ASSERT_FALSE(cpu.empty());
  // The pushdown actually ran (the accounting records the jafar-tagged op).
  bool pushed = false;
  for (const auto& s : ndp_ctx.stats) pushed |= s.op == "semi_join[jafar]";
  EXPECT_TRUE(pushed);
}

TEST(JoinPushdownTest, GroupByHookMatchesCpuOracle) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  // Striding key pattern spanning many device bucket windows, so the
  // per-window lease shaping (and the host-folded seams) is exercised.
  db::Column keys = db::Column::Int64("k");
  db::Column vals = db::Column::Int64("v");
  Rng rng(113);
  for (size_t i = 0; i < 30'000; ++i) {
    keys.Append(static_cast<int64_t>((i * 37) % 5'000));
    vals.Append(rng.NextInRange(-100, 100));
  }
  auto hook = runtime.MakeGroupByHook();
  auto groups = hook(keys, vals);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups.value(), GroupOracle(keys, vals));
}

// -- Transplant integrity under skew ------------------------------------------

TEST(JoinPushdownTest, TransplantsLoseNoRowAndDoubleCountNone) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, Config());
  RuntimeConfig cfg;
  cfg.steal_enabled = true;
  NdpRuntime runtime(&array, cfg);
  const size_t n = 1u << 17;
  db::Column keys = RandomColumn(n, 121, 99'999);
  db::Column vals = RandomColumn(n, 122, 1'000);
  // 4x skew on device 0: the lane must shed rows to its siblings mid-job.
  std::vector<double> weights = {4.0, 1.0, 1.0, 1.0};
  PlacedColumn pk = array.PlaceColumn(keys, weights).ValueOrDie();
  PlacedColumn pv = array.PlaceColumn(vals, weights).ValueOrDie();

  std::vector<int64_t> build_keys;
  for (int64_t k = 0; k < 100'000; k += 64) build_keys.push_back(k);
  std::vector<uint64_t> image =
      BloomImage(build_keys, cfg.join_filter_kb * 1024 / 8, cfg.join_hashes);

  array.eq().RunUntil(array.eq().Now() + 20'000'000);
  auto probe_id = runtime.SubmitProbe(pk, image).ValueOrDie();
  auto group_id =
      runtime.SubmitGroupBy(pk, pv, jafar::AggKind::kSum).ValueOrDie();
  ASSERT_TRUE(runtime.Drain().ok());

  // Probe: transplanted rows are probed exactly once, wherever they landed.
  const JobResult* pr = runtime.result(probe_id);
  ASSERT_TRUE(pr != nullptr && pr->status.ok());
  uint64_t expected_matches = 0;
  for (size_t i = 0; i < n; ++i) {
    bool expected = BloomHit(keys[i], image, cfg.join_hashes);
    expected_matches += expected;
    ASSERT_EQ(pr->bitmap.Get(i), expected) << "row " << i;
  }
  EXPECT_EQ(pr->matches, expected_matches);

  // Group-by: counts must cover the column exactly — a lost transplant would
  // undercount, a double-processed one would overcount.
  const JobResult* gr = runtime.result(group_id);
  ASSERT_TRUE(gr != nullptr && gr->status.ok());
  int64_t covered = 0;
  for (const auto& [key, agg] : gr->groups) covered += agg.second;
  EXPECT_EQ(covered, static_cast<int64_t>(n));
  EXPECT_EQ(gr->groups, GroupOracle(keys, vals));

  // The skew actually forced transplants (otherwise this test proves nothing).
  EXPECT_GT(array.stats().ReadValue("array.runtime.steals"), 0.0);
}

TEST(JoinPushdownTest, EtaStealingCutsZipf2ProbeMakespan) {
  db::Column col = RandomColumn(1u << 18, 131);
  // Zipf-2 placement over 4 devices: weights (d+1)^-2, so device 0 holds
  // ~70% of the rows.
  std::vector<double> weights;
  for (int d = 0; d < 4; ++d) weights.push_back(1.0 / ((d + 1.0) * (d + 1.0)));
  std::vector<int64_t> build_keys;
  for (int64_t k = 0; k < 1'000'000; k += 256) build_keys.push_back(k);

  double hh_flags_on = 0.0;
  auto run = [&](bool steal, double* hh_flags) {
    DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, Config());
    RuntimeConfig cfg;
    cfg.steal_enabled = steal;
    // Short lease windows so the probe spans many leases per lane: the
    // heavy-hitter detector needs kHeavyHitterMinLeases completed leases on
    // the hot lane while the imbalance is still live (DESIGN.md §12).
    cfg.lease_init_bus_cycles = 4'000;
    cfg.lease_max_bus_cycles = 8'000;
    NdpRuntime runtime(&array, cfg);
    PlacedColumn placed = array.PlaceColumn(col, weights).ValueOrDie();
    std::vector<uint64_t> image =
        BloomImage(build_keys, cfg.join_filter_kb * 1024 / 8, cfg.join_hashes);
    array.eq().RunUntil(array.eq().Now() + 20'000'000);
    auto id = runtime.SubmitProbe(placed, image).ValueOrDie();
    EXPECT_TRUE(runtime.Drain().ok());
    const JobResult* r = runtime.result(id);
    EXPECT_TRUE(r->status.ok());
    uint64_t expected = 0;
    for (size_t i = 0; i < col.size(); ++i) {
      expected += BloomHit(col[i], image, cfg.join_hashes);
    }
    EXPECT_EQ(r->matches, expected);
    if (hh_flags != nullptr) {
      *hh_flags = array.stats().ReadValue("array.runtime.hh_flags");
    }
    return r->completed_ps - r->submitted_ps;
  };
  sim::Tick with_steal = run(true, &hh_flags_on);
  sim::Tick without = run(false, nullptr);
  EXPECT_GE(static_cast<double>(without),
            1.3 * static_cast<double>(with_steal))
      << "ETA stealing should cut the Zipf-2 probe makespan (got "
      << static_cast<double>(without) / static_cast<double>(with_steal)
      << "x)";
  // The heavy-hitter detector flagged the overloaded lane at least once.
  EXPECT_GE(hh_flags_on, 1.0);
}

}  // namespace
}  // namespace ndp::core
