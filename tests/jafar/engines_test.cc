// Tests for the §4 extension engines: aggregation, projection, row-store.
#include <gtest/gtest.h>

#include <vector>

#include "jafar/device.h"
#include "util/rng.h"

namespace ndp::jafar {
namespace {

class EnginesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    eq_ = std::make_unique<sim::EventQueue>();
    dram::DramOrganization org;
    org.rows_per_bank = 1024;
    dram::ControllerConfig mc;
    mc.refresh_enabled = false;
    dram_ = std::make_unique<dram::DramSystem>(
        eq_.get(), dram::DramTiming::DDR3_1600(), org,
        dram::InterleaveScheme::kContiguous, mc);
    auto cfg = DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                    accel::DatapathResources{})
                   .ValueOrDie();
    device_ = std::make_unique<Device>(dram_.get(), 0, 0, cfg);
    bool granted = false;
    dram_->controller(0).TransferOwnership(
        0, dram::RankOwner::kAccelerator, [&](sim::Tick) { granted = true; });
    ASSERT_TRUE(eq_->RunUntilTrue([&] { return granted; }));
  }

  std::vector<int64_t> RandomColumn(size_t n, uint64_t seed = 3) {
    Rng rng(seed);
    std::vector<int64_t> v(n);
    for (auto& x : v) x = rng.NextInRange(-5000, 5000);
    return v;
  }

  void Run(const Status& st, bool* done) {
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(eq_->RunUntilTrue([&] { return *done; }));
  }

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<dram::DramSystem> dram_;
  std::unique_ptr<Device> device_;
};

constexpr uint64_t kCol = 0;
constexpr uint64_t kBitmap = 1 << 20;
constexpr uint64_t kOut = 2 << 20;

TEST_F(EnginesTest, AggregateSumMinMaxCountMatchOracle) {
  auto values = RandomColumn(2048);
  dram_->backing_store().Write(kCol, values.data(), values.size() * 8);
  int64_t sum = 0, mn = INT64_MAX, mx = INT64_MIN;
  for (int64_t v : values) {
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  struct Case {
    AggKind kind;
    int64_t expected;
  } cases[] = {{AggKind::kSum, sum},
               {AggKind::kMin, mn},
               {AggKind::kMax, mx},
               {AggKind::kCount, static_cast<int64_t>(values.size())}};
  for (const auto& c : cases) {
    AggregateJob job;
    job.col_base = kCol;
    job.num_rows = values.size();
    job.kind = c.kind;
    job.out_addr = kOut;
    bool done = false;
    Run(device_->Start(job, [&](const Completion&) { done = true; }), &done);
    EXPECT_EQ(static_cast<int64_t>(dram_->backing_store().Read64(kOut)),
              c.expected)
        << static_cast<int>(c.kind);
  }
}

TEST_F(EnginesTest, FilteredAggregateHonoursBitmap) {
  auto values = RandomColumn(1024);
  dram_->backing_store().Write(kCol, values.data(), values.size() * 8);
  // Bitmap: every third row selected.
  BitVector bm(values.size());
  int64_t expected = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i % 3 == 0) {
      bm.Set(i);
      expected += values[i];
    }
  }
  dram_->backing_store().Write(kBitmap, bm.bytes(), bm.num_bytes());
  AggregateJob job;
  job.col_base = kCol;
  job.num_rows = values.size();
  job.kind = AggKind::kSum;
  job.bitmap_base = kBitmap;
  job.out_addr = kOut;
  bool done = false;
  Run(device_->Start(job, [&](const Completion&) { done = true; }), &done);
  EXPECT_EQ(static_cast<int64_t>(dram_->backing_store().Read64(kOut)), expected);
}

TEST_F(EnginesTest, ProjectEmitsDenselyPackedQualifyingValues) {
  auto values = RandomColumn(1024, 11);
  dram_->backing_store().Write(kCol, values.data(), values.size() * 8);
  BitVector bm(values.size());
  std::vector<int64_t> expected;
  Rng rng(5);
  for (size_t i = 0; i < values.size(); ++i) {
    if (rng.NextBool(0.3)) {
      bm.Set(i);
      expected.push_back(values[i]);
    }
  }
  dram_->backing_store().Write(kBitmap, bm.bytes(), bm.num_bytes());
  ProjectJob job;
  job.col_base = kCol;
  job.num_rows = values.size();
  job.bitmap_base = kBitmap;
  job.out_base = kOut;
  bool done = false;
  Run(device_->Start(job, [&](const Completion&) { done = true; }), &done);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<int64_t>(dram_->backing_store().Read64(kOut + i * 8)),
              expected[i])
        << "position " << i;
  }
  EXPECT_EQ(device_->stats().matches, expected.size());
}

TEST_F(EnginesTest, ProjectWithEmptyBitmapWritesNothing) {
  auto values = RandomColumn(512);
  dram_->backing_store().Write(kCol, values.data(), values.size() * 8);
  BitVector bm(values.size());  // all clear
  dram_->backing_store().Write(kBitmap, bm.bytes(), bm.num_bytes());
  ProjectJob job;
  job.col_base = kCol;
  job.num_rows = values.size();
  job.bitmap_base = kBitmap;
  job.out_base = kOut;
  bool done = false;
  Run(device_->Start(job, [&](const Completion&) { done = true; }), &done);
  EXPECT_EQ(device_->stats().matches, 0u);
  EXPECT_EQ(dram_->backing_store().Read64(kOut), 0u);
}

TEST_F(EnginesTest, RowStoreConjunctionMatchesOracle) {
  // Tuples of 32 bytes = 4 attributes; filter on attributes 0 and 2.
  const size_t tuples = 1024;
  const uint32_t tuple_bytes = 32;
  Rng rng(21);
  std::vector<int64_t> attrs(tuples * 4);
  for (auto& a : attrs) a = rng.NextInRange(0, 99);
  dram_->backing_store().Write(kCol, attrs.data(), attrs.size() * 8);

  RowStoreJob job;
  job.tuple_base = kCol;
  job.num_tuples = tuples;
  job.tuple_bytes = tuple_bytes;
  job.predicates = {
      {0, CompareOp::kBetween, 20, 80},
      {16, CompareOp::kGe, 50, 0},
  };
  job.out_base = kOut;
  bool done = false;
  uint64_t matches = 0;
  Run(device_->Start(job,
                     [&](const Completion& c) {
                       done = true;
                       matches = c.matches;
                     }),
      &done);

  uint64_t expected_matches = 0;
  for (size_t t = 0; t < tuples; ++t) {
    bool pass = attrs[t * 4] >= 20 && attrs[t * 4] <= 80 && attrs[t * 4 + 2] >= 50;
    uint64_t word = dram_->backing_store().Read64(kOut + (t / 64) * 8);
    EXPECT_EQ(((word >> (t % 64)) & 1) != 0, pass) << "tuple " << t;
    expected_matches += pass;
  }
  EXPECT_EQ(matches, expected_matches);
}

TEST_F(EnginesTest, RowStoreReadsMoreDataThanColumnStore) {
  // The row-store variant must stream whole tuples: 4x the bursts for
  // 32-byte tuples vs. an 8-byte column — the column-store advantage the
  // paper's §4 comparison question is about.
  const size_t tuples = 2048;
  std::vector<int64_t> attrs(tuples * 4, 42);
  dram_->backing_store().Write(kCol, attrs.data(), attrs.size() * 8);

  RowStoreJob rs;
  rs.tuple_base = kCol;
  rs.num_tuples = tuples;
  rs.tuple_bytes = 32;
  rs.predicates = {{0, CompareOp::kBetween, 0, 100}};
  rs.out_base = kOut;
  bool done = false;
  Run(device_->Start(rs, [&](const Completion&) { done = true; }), &done);
  uint64_t rowstore_bursts = device_->stats().bursts_read;

  SelectJob cs;
  cs.col_base = kCol;
  cs.num_rows = tuples;
  cs.range_low = 0;
  cs.range_high = 100;
  cs.out_base = kOut;
  done = false;
  Run(device_->Start(cs, [&](const Completion&) { done = true; }), &done);
  uint64_t colstore_bursts = device_->stats().bursts_read - rowstore_bursts;
  EXPECT_EQ(rowstore_bursts, colstore_bursts * 4);
}

TEST_F(EnginesTest, RowStoreRejectsBadPredicates) {
  RowStoreJob job;
  job.tuple_base = kCol;
  job.num_tuples = 16;
  job.tuple_bytes = 16;
  job.out_base = kOut;
  EXPECT_EQ(device_->Start(job, nullptr).code(),
            StatusCode::kInvalidArgument);  // no predicates
  job.predicates = {{16, CompareOp::kEq, 1, 0}};  // offset beyond tuple
  EXPECT_EQ(device_->Start(job, nullptr).code(),
            StatusCode::kInvalidArgument);
  job.predicates = {{0, CompareOp::kEq, 1, 0}};
  job.tuple_bytes = 12;  // not a multiple of 8
  EXPECT_EQ(device_->Start(job, nullptr).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ndp::jafar
