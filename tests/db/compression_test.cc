#include "db/compression.h"

#include <gtest/gtest.h>

#include <limits>

#include "jafar/device.h"
#include "util/rng.h"

namespace ndp::db {
namespace {

Column MakeColumn(const std::vector<int64_t>& values) {
  Column c = Column::Int64("c");
  for (int64_t v : values) c.Append(v);
  return c;
}

TEST(ForEncodingTest, RoundTripsValues) {
  Column col = MakeColumn({1000000, 1000005, 999990, 1000123});
  auto enc = ForEncodedColumn::Encode(col).ValueOrDie();
  EXPECT_EQ(enc.base(), 999990);
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(enc.Decode(i), col[i]);
  }
  EXPECT_EQ(enc.SizeBytes(), col.SizeBytes() / 2);
}

TEST(ForEncodingTest, RejectsWideRanges) {
  // The last range overflows int64 (hi - lo); it must not wrap into a small
  // one.
  for (const auto& values : {std::vector<int64_t>{0, int64_t{1} << 40},
                             std::vector<int64_t>{
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()}}) {
    EXPECT_EQ(ForEncodedColumn::Encode(MakeColumn(values)).status().code(),
              StatusCode::kOutOfRange);
  }
}

TEST(ForEncodingTest, ExtremePredicateBoundsSaturate) {
  // Open-ended bounds at INT64_MIN/MAX must saturate when the frame base is
  // subtracted; a wrapped bound would land on the wrong side of the frame.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t lo = -1, hi = -1;
  // Positive base: bounds near INT64_MIN would underflow when rebased.
  auto pos = ForEncodedColumn::Encode(MakeColumn({5000000, 5000100, 5000050}))
                 .ValueOrDie();
  EXPECT_FALSE(pos.CodeRangeFor(kMin, kMin, &lo, &hi));
  ASSERT_TRUE(pos.CodeRangeFor(kMin, kMax, &lo, &hi));
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 100);
  ASSERT_TRUE(pos.CodeRangeFor(kMin, 5000050, &lo, &hi));
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 50);
  // Negative base: bounds near INT64_MAX would overflow when rebased.
  auto neg =
      ForEncodedColumn::Encode(MakeColumn({-5000000, -4999900, -4999950}))
          .ValueOrDie();
  EXPECT_FALSE(neg.CodeRangeFor(kMax, kMax, &lo, &hi));
  ASSERT_TRUE(neg.CodeRangeFor(kMin, kMax, &lo, &hi));
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 100);
  ASSERT_TRUE(neg.CodeRangeFor(-4999950, kMax, &lo, &hi));
  EXPECT_EQ(lo, 50);
  EXPECT_EQ(hi, 100);
}

TEST(ForEncodingTest, EmptyColumn) {
  Column col = Column::Int64("e");
  auto enc = ForEncodedColumn::Encode(col).ValueOrDie();
  EXPECT_EQ(enc.size(), 0u);
  int64_t lo, hi;
  EXPECT_FALSE(enc.CodeRangeFor(0, 100, &lo, &hi));
}

TEST(ForEncodingTest, CodeRangeClampsToFrame) {
  Column col = MakeColumn({100, 200, 300});
  auto enc = ForEncodedColumn::Encode(col).ValueOrDie();
  int64_t lo, hi;
  ASSERT_TRUE(enc.CodeRangeFor(150, 250, &lo, &hi));
  EXPECT_EQ(lo, 50);
  EXPECT_EQ(hi, 150);
  ASSERT_TRUE(enc.CodeRangeFor(-1000, 150, &lo, &hi));
  EXPECT_EQ(lo, 0);
  EXPECT_FALSE(enc.CodeRangeFor(1 << 20, 2 << 20, &lo, &hi));
}

TEST(ForEncodingTest, NdpScanOverEncodedDataMatchesOracle) {
  // End to end: FOR codes scanned by the packed-32-bit JAFAR datapath with
  // the value range mapped into the code domain.
  Rng rng(9);
  std::vector<int64_t> values(8192);
  for (auto& v : values) v = 1000000 + rng.NextInRange(0, 999999);
  Column col = MakeColumn(values);
  auto enc = ForEncodedColumn::Encode(col).ValueOrDie();

  sim::EventQueue eq;
  dram::DramOrganization org;
  org.rows_per_bank = 4096;
  dram::ControllerConfig mc;
  mc.refresh_enabled = false;
  dram::DramSystem dram(&eq, dram::DramTiming::DDR3_1600(), org,
                        dram::InterleaveScheme::kContiguous, mc);
  auto cfg = jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                         accel::DatapathResources{})
                 .ValueOrDie();
  cfg.elem_bytes = 4;
  jafar::Device device(&dram, 0, 0, cfg);
  bool granted = false;
  dram.controller(0).TransferOwnership(0, dram::RankOwner::kAccelerator,
                                       [&](sim::Tick) { granted = true; });
  ASSERT_TRUE(eq.RunUntilTrue([&] { return granted; }));
  dram.backing_store().Write(0, enc.codes(), enc.SizeBytes());

  int64_t vlo = 1200000, vhi = 1500000;
  int64_t clo, chi;
  ASSERT_TRUE(enc.CodeRangeFor(vlo, vhi, &clo, &chi));
  jafar::SelectJob job;
  job.col_base = 0;
  job.num_rows = values.size();
  job.range_low = clo;
  job.range_high = chi;
  job.out_base = 1 << 20;
  bool done = false;
  uint64_t matches = 0;
  ASSERT_TRUE(device
                  .Start(job,
                         [&](const jafar::Completion& c) {
                           done = true;
                           matches = c.matches;
                         })
                  .ok());
  ASSERT_TRUE(eq.RunUntilTrue([&] { return done; }));

  uint64_t oracle = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    bool pass = values[i] >= vlo && values[i] <= vhi;
    oracle += pass;
    uint64_t word = dram.backing_store().Read64((1 << 20) + (i / 64) * 8);
    ASSERT_EQ(((word >> (i % 64)) & 1) != 0, pass) << "row " << i;
  }
  EXPECT_EQ(matches, oracle);
  // Half the bursts of the uncompressed scan.
  EXPECT_EQ(device.stats().bursts_read, values.size() / 16);
}

}  // namespace
}  // namespace ndp::db
