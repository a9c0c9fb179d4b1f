#include "core/dimm_array.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ndp::core {
namespace {

db::Column RandomColumn(size_t n, uint64_t seed = 1) {
  db::Column col = db::Column::Int64("v");
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) col.Append(rng.NextInRange(0, 999999));
  return col;
}

jafar::DeviceConfig Config() {
  return jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                     accel::DatapathResources{})
      .ValueOrDie();
}

TEST(DimmArrayTest, BuildsOneDevicePerRank) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 2, Config());
  EXPECT_EQ(array.num_devices(), 4u);
  array.AcquireAllOwnership();
  for (uint32_t ch = 0; ch < 2; ++ch) {
    for (uint32_t rk = 0; rk < 2; ++rk) {
      EXPECT_EQ(array.dram().channel(ch).rank(rk).owner(),
                dram::RankOwner::kAccelerator);
    }
  }
}

TEST(DimmArrayTest, RunUntilTrueGivesUpWhenOnlyRefreshRemains) {
  // Refresh recurs forever, so a wait for anything else on an idle array is
  // stuck and must say so. The cap keeps a kernel that runs refresh anyway
  // from hanging: the predicate turns true on its kCap-th call.
  constexpr uint64_t kCap = 10'000;
  for (bool partitioned : {false, true}) {
    DimmArray array(dram::DramTiming::DDR3_1600(), 2, 1, Config(),
                    /*rows_per_bank=*/8192, partitioned);
    ASSERT_TRUE(array.dram().controller(0).config().refresh_enabled);
    uint64_t calls = 0;
    EXPECT_FALSE(array.RunUntilTrue([&] { return ++calls >= kCap; }))
        << "partitioned=" << partitioned;
    EXPECT_LT(calls, kCap) << "partitioned=" << partitioned;
  }
}

TEST(DimmArrayTest, PartitionsCoverAllRows) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, Config());
  db::Column col = RandomColumn(100000);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  uint64_t total = 0;
  for (const DevicePlacement& part : placed.parts) {
    // Partition starts are bitmap-word aligned and contiguous.
    EXPECT_EQ(part.first_row, total) << "device " << part.device;
    EXPECT_EQ(part.first_row % 64, 0u) << "device " << part.device;
    total += part.rows;
  }
  EXPECT_EQ(total, col.size());
}

TEST(DimmArrayTest, ParallelSelectMatchesOracle) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 2, Config());
  array.AcquireAllOwnership();
  db::Column col = RandomColumn(50000, 5);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  auto result = array.RunParallelSelect(placed, 100000, 600000).ValueOrDie();
  uint64_t oracle = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    bool pass = col[i] >= 100000 && col[i] <= 600000;
    oracle += pass;
    EXPECT_EQ(result.bitmap.Get(i), pass) << "row " << i;
  }
  EXPECT_EQ(result.matches, oracle);
}

TEST(DimmArrayTest, ParallelismShortensMakespan) {
  db::Column col = RandomColumn(262144, 6);
  auto run = [&](uint32_t channels) {
    DimmArray array(dram::DramTiming::DDR3_1600(), channels, 1, Config());
    array.AcquireAllOwnership();
    PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
    return array.RunParallelSelect(placed, 0, 499999).ValueOrDie().duration_ps;
  };
  sim::Tick one = run(1);
  sim::Tick four = run(4);
  EXPECT_GT(one, 3 * four);
  EXPECT_LT(one, 5 * four);
}

TEST(DimmArrayTest, SplitRowsRaggedKeepsWordAlignedBoundaries) {
  // 100 rows over 3 devices used to round every partition to 64 rows and
  // lose the remainder; now the whole count lands, word-aligned.
  auto counts = DimmArray::SplitRows(100, 3, {});
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(total, 100u);
  // Boundaries before every later non-empty partition stay 64-aligned.
  uint64_t row = 0;
  for (size_t i = 0; i + 1 < counts.size(); ++i) {
    row += counts[i];
    bool later_nonempty = false;
    for (size_t j = i + 1; j < counts.size(); ++j) {
      later_nonempty |= counts[j] > 0;
    }
    if (later_nonempty) {
      EXPECT_EQ(row % 64, 0u) << "boundary " << i;
    }
  }
}

TEST(DimmArrayTest, SplitRowsDegenerateFewerRowsThanDevices) {
  // 10 rows over 16 devices crashed the old rounding (zero-row partitions
  // tripped the coverage check). The tail lands on one device now.
  auto counts = DimmArray::SplitRows(10, 16, {});
  ASSERT_EQ(counts.size(), 16u);
  uint64_t total = 0, nonempty = 0;
  for (uint64_t c : counts) {
    total += c;
    nonempty += c > 0;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(nonempty, 1u);
}

TEST(DimmArrayTest, SplitRowsWeightedSkew) {
  auto counts = DimmArray::SplitRows(1u << 18, 4, {4.0, 1.0, 1.0, 1.0});
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(total, uint64_t{1} << 18);
  // Device 0 gets ~4x each of the others (within a 64-row block of skew).
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[0]),
                4.0 * static_cast<double>(counts[i]), 4 * 64.0);
  }
}

TEST(DimmArrayTest, PlaceColumnRaggedMatchesOracle) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, Config());
  array.AcquireAllOwnership();
  db::Column col = RandomColumn(100037, 11);  // ragged on purpose
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  ASSERT_EQ(placed.parts.size(), 4u);
  uint64_t total = 0;
  for (const DevicePlacement& part : placed.parts) total += part.rows;
  EXPECT_EQ(total, col.size());
  auto result = array.RunParallelSelect(placed, 250000, 750000).ValueOrDie();
  uint64_t oracle = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    oracle += col[i] >= 250000 && col[i] <= 750000;
  }
  EXPECT_EQ(result.matches, oracle);
}

TEST(DimmArrayTest, PlaceColumnMoreDevicesThanRows) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 2, 2, Config());
  array.AcquireAllOwnership();
  db::Column col = RandomColumn(10, 12);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  ASSERT_EQ(placed.parts.size(), 4u);
  uint64_t total = 0;
  for (const DevicePlacement& part : placed.parts) total += part.rows;
  EXPECT_EQ(total, 10u);
  auto result = array.RunParallelSelect(placed, 0, 999999).ValueOrDie();
  EXPECT_EQ(result.matches, 10u);
}

}  // namespace
}  // namespace ndp::core
