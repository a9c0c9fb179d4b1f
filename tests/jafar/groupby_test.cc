// Tests for the §4 grouped-aggregation engine, including the hierarchical
// multi-pass scheme for key domains beyond the bucket SRAM.
#include <gtest/gtest.h>

#include <map>

#include "jafar/driver.h"
#include "util/rng.h"

namespace ndp::jafar {
namespace {

class GroupByTest : public ::testing::Test {
 protected:
  void SetUp() override {
    eq_ = std::make_unique<sim::EventQueue>();
    dram::DramOrganization org;
    org.rows_per_bank = 4096;
    dram::ControllerConfig mc;
    mc.refresh_enabled = false;
    dram_ = std::make_unique<dram::DramSystem>(
        eq_.get(), dram::DramTiming::DDR3_1600(), org,
        dram::InterleaveScheme::kContiguous, mc);
    auto cfg = DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                    accel::DatapathResources{})
                   .ValueOrDie();
    cfg.groupby_buckets = 64;  // small SRAM to exercise hierarchy
    device_ = std::make_unique<Device>(dram_.get(), 0, 0, cfg);
    driver_ = std::make_unique<Driver>(device_.get(), &dram_->controller(0));
    bool granted = false;
    dram_->controller(0).TransferOwnership(
        0, dram::RankOwner::kAccelerator, [&](sim::Tick) { granted = true; });
    ASSERT_TRUE(eq_->RunUntilTrue([&] { return granted; }));
  }

  void LoadColumns(const std::vector<int64_t>& keys,
                   const std::vector<int64_t>& vals) {
    dram_->backing_store().Write(kKeys, keys.data(), keys.size() * 8);
    dram_->backing_store().Write(kVals, vals.data(), vals.size() * 8);
  }

  static constexpr uint64_t kKeys = 0;
  static constexpr uint64_t kVals = 1 << 22;
  static constexpr uint64_t kOut = 2 << 22;

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<dram::DramSystem> dram_;
  std::unique_ptr<Device> device_;
  std::unique_ptr<Driver> driver_;
};

TEST_F(GroupByTest, SumPerGroupMatchesOracle) {
  Rng rng(2);
  const uint64_t rows = 4096;
  std::vector<int64_t> keys(rows), vals(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    keys[i] = rng.NextInRange(0, 63);  // within one bucket window
    vals[i] = rng.NextInRange(-100, 100);
  }
  LoadColumns(keys, vals);
  GroupByJob job;
  job.key_base = kKeys;
  job.val_base = kVals;
  job.num_rows = rows;
  job.kind = AggKind::kSum;
  job.out_base = kOut;
  bool done = false;
  ASSERT_TRUE(
      device_->Start(job, [&](const Completion&) { done = true; }).ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));

  std::map<int64_t, std::pair<int64_t, int64_t>> oracle;  // key -> (sum, n)
  for (uint64_t i = 0; i < rows; ++i) {
    oracle[keys[i]].first += vals[i];
    oracle[keys[i]].second += 1;
  }
  for (int64_t k = 0; k < 64; ++k) {
    int64_t sum = static_cast<int64_t>(
        dram_->backing_store().Read64(kOut + static_cast<uint64_t>(k) * 16));
    int64_t n = static_cast<int64_t>(dram_->backing_store().Read64(
        kOut + static_cast<uint64_t>(k) * 16 + 8));
    EXPECT_EQ(sum, oracle[k].first) << "key " << k;
    EXPECT_EQ(n, oracle[k].second) << "key " << k;
  }
}

TEST_F(GroupByTest, MinMaxKinds) {
  std::vector<int64_t> keys = {0, 1, 0, 1, 0, 1, 0, 1};
  std::vector<int64_t> vals = {5, -3, 9, 7, -2, 0, 4, 4};
  LoadColumns(keys, vals);
  for (auto [kind, g0, g1] :
       std::vector<std::tuple<AggKind, int64_t, int64_t>>{
           {AggKind::kMin, -2, -3}, {AggKind::kMax, 9, 7}}) {
    GroupByJob job;
    job.key_base = kKeys;
    job.val_base = kVals;
    job.num_rows = keys.size();
    job.kind = kind;
    job.out_base = kOut;
    bool done = false;
    ASSERT_TRUE(
        device_->Start(job, [&](const Completion&) { done = true; }).ok());
    ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
    EXPECT_EQ(static_cast<int64_t>(dram_->backing_store().Read64(kOut)), g0);
    EXPECT_EQ(static_cast<int64_t>(dram_->backing_store().Read64(kOut + 16)),
              g1);
  }
}

TEST_F(GroupByTest, KeysOutsideWindowAreSkipped) {
  std::vector<int64_t> keys = {10, 100, 10, 200};  // 100, 200 out of window
  std::vector<int64_t> vals = {1, 1, 1, 1};
  LoadColumns(keys, vals);
  GroupByJob job;
  job.key_base = kKeys;
  job.val_base = kVals;
  job.num_rows = keys.size();
  job.kind = AggKind::kSum;
  job.out_base = kOut;
  bool done = false;
  ASSERT_TRUE(
      device_->Start(job, [&](const Completion&) { done = true; }).ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
  EXPECT_EQ(dram_->backing_store().Read64(kOut + 10 * 16), 2u);
  EXPECT_EQ(device_->stats().matches, 2u);
}

TEST_F(GroupByTest, HierarchicalPassesCoverLargeKeyDomain) {
  // 200 groups over 64-bucket SRAM -> 4 passes.
  Rng rng(6);
  const uint64_t rows = 8192;
  const uint32_t num_groups = 200;
  std::vector<int64_t> keys(rows), vals(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    keys[i] = rng.NextInRange(0, num_groups - 1);
    vals[i] = rng.NextInRange(0, 999);
  }
  LoadColumns(keys, vals);
  GroupByJob job;
  job.key_base = kKeys;
  job.val_base = kVals;
  job.num_rows = rows;
  job.kind = AggKind::kSum;
  job.out_base = kOut;
  bool done = false;
  uint64_t jobs_before = device_->stats().jobs_completed;
  ASSERT_TRUE(driver_
                  ->HierarchicalGroupBy(job, num_groups,
                                        [&](const Completion&) { done = true; })
                  .ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
  EXPECT_EQ(device_->stats().jobs_completed - jobs_before, 4u);

  std::map<int64_t, int64_t> oracle;
  for (uint64_t i = 0; i < rows; ++i) oracle[keys[i]] += vals[i];
  for (uint32_t k = 0; k < num_groups; ++k) {
    EXPECT_EQ(static_cast<int64_t>(
                  dram_->backing_store().Read64(kOut + k * 16)),
              oracle[k])
        << "key " << k;
  }
}

TEST_F(GroupByTest, BitmapFilteredGroupByMatchesOracle) {
  Rng rng(11);
  const uint64_t rows = 4096;
  std::vector<int64_t> keys(rows), vals(rows);
  BitVector bm(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    keys[i] = rng.NextInRange(0, 31);
    vals[i] = rng.NextInRange(0, 99);
    if (rng.NextBool(0.4)) bm.Set(i);
  }
  LoadColumns(keys, vals);
  const uint64_t bitmap_addr = 3 << 22;
  dram_->backing_store().Write(bitmap_addr, bm.bytes(), bm.num_bytes());

  GroupByJob job;
  job.key_base = kKeys;
  job.val_base = kVals;
  job.num_rows = rows;
  job.kind = AggKind::kSum;
  job.bitmap_base = bitmap_addr;
  job.out_base = kOut;
  bool done = false;
  ASSERT_TRUE(
      device_->Start(job, [&](const Completion&) { done = true; }).ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));

  std::map<int64_t, std::pair<int64_t, int64_t>> oracle;
  for (uint64_t i = 0; i < rows; ++i) {
    if (!bm.Get(i)) continue;
    oracle[keys[i]].first += vals[i];
    oracle[keys[i]].second += 1;
  }
  for (int64_t k = 0; k < 32; ++k) {
    EXPECT_EQ(static_cast<int64_t>(dram_->backing_store().Read64(
                  kOut + static_cast<uint64_t>(k) * 16)),
              oracle[k].first)
        << "key " << k;
    EXPECT_EQ(static_cast<int64_t>(dram_->backing_store().Read64(
                  kOut + static_cast<uint64_t>(k) * 16 + 8)),
              oracle[k].second)
        << "key " << k;
  }
  // The bitmap read adds traffic: one extra burst per 512 rows.
  EXPECT_GE(device_->stats().bursts_read, 2 * rows / 8 + rows / 512);
}

TEST_F(GroupByTest, RejectsBadJobs) {
  GroupByJob job;
  job.key_base = 8;  // unaligned
  job.val_base = kVals;
  job.num_rows = 64;
  job.out_base = kOut;
  EXPECT_EQ(device_->Start(job, nullptr).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ndp::jafar
