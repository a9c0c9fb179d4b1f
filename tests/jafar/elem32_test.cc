// §4 "Data Types": JAFAR "can easily be extended to support additional
// fixed-length data types". Tests the packed 32-bit element mode: two values
// per 64-bit word, doubling effective scan rate per burst.
#include <gtest/gtest.h>

#include "jafar/device.h"
#include "util/rng.h"

namespace ndp::jafar {
namespace {

class Elem32Test : public ::testing::Test {
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
    cfg_ = DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                accel::DatapathResources{})
               .ValueOrDie();
    cfg_.elem_bytes = 4;
    device_ = std::make_unique<Device>(dram_.get(), 0, 0, cfg_);
    bool granted = false;
    dram_->controller(0).TransferOwnership(
        0, dram::RankOwner::kAccelerator, [&](sim::Tick) { granted = true; });
    ASSERT_TRUE(eq_->RunUntilTrue([&] { return granted; }));
  }

  sim::Tick RunSelect(const SelectJob& job) {
    bool done = false;
    sim::Tick start = eq_->Now(), end = 0;
    Status st = device_->Start(job, [&](const Completion& c) {
      done = true;
      end = c.completed_at;
      matches_ = c.matches;
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(eq_->RunUntilTrue([&] { return done; }));
    return end - start;
  }

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<dram::DramSystem> dram_;
  DeviceConfig cfg_;
  std::unique_ptr<Device> device_;
  uint64_t matches_ = 0;  ///< Completion::matches of the last RunSelect
};

TEST_F(Elem32Test, SelectOnInt32ColumnMatchesOracle) {
  Rng rng(5);
  std::vector<int32_t> values(8192);
  for (auto& v : values) {
    v = static_cast<int32_t>(rng.NextInRange(-100000, 100000));
  }
  dram_->backing_store().Write(0, values.data(), values.size() * 4);
  SelectJob job;
  job.col_base = 0;
  job.num_rows = values.size();
  job.range_low = -50000;
  job.range_high = 25000;
  job.out_base = 1 << 20;
  RunSelect(job);
  uint64_t oracle = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    bool pass = values[i] >= -50000 && values[i] <= 25000;
    oracle += pass;
    uint64_t word = dram_->backing_store().Read64((1 << 20) + (i / 64) * 8);
    ASSERT_EQ(((word >> (i % 64)) & 1) != 0, pass) << "row " << i;
  }
  EXPECT_EQ(matches_, oracle);
}

TEST_F(Elem32Test, NegativeValuesSignExtendCorrectly) {
  std::vector<int32_t> values = {-1, 0, 1, INT32_MIN, INT32_MAX, -7};
  values.resize(16, 0);
  dram_->backing_store().Write(0, values.data(), values.size() * 4);
  SelectJob job;
  job.col_base = 0;
  job.num_rows = values.size();
  job.op = CompareOp::kLt;
  job.range_low = 0;
  job.out_base = 1 << 20;
  RunSelect(job);
  uint64_t word = dram_->backing_store().Read64(1 << 20);
  EXPECT_TRUE(word & (1ull << 0));   // -1
  EXPECT_FALSE(word & (1ull << 1));  // 0
  EXPECT_TRUE(word & (1ull << 3));   // INT32_MIN
  EXPECT_FALSE(word & (1ull << 4));  // INT32_MAX
  EXPECT_TRUE(word & (1ull << 5));   // -7
}

TEST_F(Elem32Test, HalvesTheBurstsVersus64Bit) {
  const uint64_t rows = 16384;
  std::vector<int32_t> v32(rows, 1);
  dram_->backing_store().Write(0, v32.data(), rows * 4);
  SelectJob job;
  job.col_base = 0;
  job.num_rows = rows;
  job.range_low = 0;
  job.range_high = 10;
  job.out_base = 1 << 22;
  RunSelect(job);
  // 16 values per 64 B burst instead of 8.
  EXPECT_EQ(device_->stats().bursts_read, rows / 16);
}

TEST_F(Elem32Test, OtherEnginesRejectPackedMode) {
  AggregateJob agg;
  agg.col_base = 0;
  agg.num_rows = 64;
  agg.out_addr = 1 << 20;
  EXPECT_EQ(device_->Start(agg, nullptr).code(),
            StatusCode::kUnimplemented);
  SortJob sort;
  sort.col_base = 0;
  sort.num_rows = 64;
  sort.out_base = 1 << 20;
  EXPECT_EQ(device_->Start(sort, nullptr).code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace ndp::jafar
