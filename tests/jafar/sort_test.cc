// Tests for the §4 bitonic block-sort engine.
#include <gtest/gtest.h>

#include <algorithm>

#include "jafar/device.h"
#include "util/rng.h"

namespace ndp::jafar {
namespace {

class SortEngineTest : public ::testing::Test {
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
    Rebuild();
  }

  void Rebuild() {
    device_ = std::make_unique<Device>(dram_.get(), 0, 0, cfg_);
    bool granted = false;
    dram_->controller(0).TransferOwnership(
        0, dram::RankOwner::kAccelerator, [&](sim::Tick) { granted = true; });
    ASSERT_TRUE(eq_->RunUntilTrue([&] { return granted; }));
  }

  sim::Tick RunSort(const SortJob& job) {
    bool done = false;
    sim::Tick start = eq_->Now(), end = 0;
    Status st = device_->Start(job, [&](const Completion& c) {
      done = true;
      end = c.completed_at;
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(eq_->RunUntilTrue([&] { return done; }));
    return end - start;
  }

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<dram::DramSystem> dram_;
  DeviceConfig cfg_;
  std::unique_ptr<Device> device_;
};

TEST_F(SortEngineTest, ProducesSortedRunsOfBlockSize) {
  Rng rng(4);
  const uint64_t rows = 4096;  // 4 blocks of 1024
  std::vector<int64_t> values(rows);
  for (auto& v : values) v = rng.NextInRange(-10000, 10000);
  dram_->backing_store().Write(0, values.data(), rows * 8);

  SortJob job;
  job.col_base = 0;
  job.num_rows = rows;
  job.out_base = 1 << 20;
  RunSort(job);

  uint32_t block = kSortBlockElems;
  for (uint64_t r = 0; r < rows; r += block) {
    std::vector<int64_t> run(block);
    dram_->backing_store().Read(job.out_base + r * 8, run.data(), block * 8);
    EXPECT_TRUE(std::is_sorted(run.begin(), run.end())) << "run at " << r;
    // Each run is a permutation of its input block.
    std::vector<int64_t> expected(values.begin() + r,
                                  values.begin() + r + block);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(run, expected);
  }
}

TEST_F(SortEngineTest, DescendingOrder) {
  std::vector<int64_t> values = {3, 1, 4, 1, 5, 9, 2, 6};
  dram_->backing_store().Write(0, values.data(), values.size() * 8);
  SortJob job;
  job.col_base = 0;
  job.num_rows = values.size();
  job.out_base = 1 << 20;
  job.descending = true;
  RunSort(job);
  std::vector<int64_t> out(values.size());
  dram_->backing_store().Read(job.out_base, out.data(), out.size() * 8);
  EXPECT_EQ(out, (std::vector<int64_t>{9, 6, 5, 4, 3, 2, 1, 1}));
}

TEST_F(SortEngineTest, PartialFinalBlock) {
  Rng rng(9);
  const uint64_t rows = 1024 + 100;
  std::vector<int64_t> values(rows);
  for (auto& v : values) v = rng.NextInRange(0, 999);
  dram_->backing_store().Write(0, values.data(), rows * 8);
  SortJob job;
  job.col_base = 0;
  job.num_rows = rows;
  job.out_base = 1 << 20;
  RunSort(job);
  std::vector<int64_t> tail(100);
  dram_->backing_store().Read(job.out_base + 1024 * 8, tail.data(), 100 * 8);
  EXPECT_TRUE(std::is_sorted(tail.begin(), tail.end()));
}

TEST_F(SortEngineTest, MoreComparatorsSortFaster) {
  Rng rng(2);
  const uint64_t rows = 16384;
  std::vector<int64_t> values(rows);
  for (auto& v : values) v = rng.NextInRange(0, 999999);
  dram_->backing_store().Write(0, values.data(), rows * 8);
  SortJob job;
  job.col_base = 0;
  job.num_rows = rows;
  job.out_base = 1 << 22;

  cfg_.sort_comparators = 4;
  Rebuild();
  sim::Tick slow = RunSort(job);
  cfg_.sort_comparators = 64;
  Rebuild();
  sim::Tick fast = RunSort(job);
  EXPECT_GT(slow, fast * 2);
}

TEST_F(SortEngineTest, SortBlockCyclesFormula) {
  DeviceConfig cfg;
  cfg.sort_comparators = 16;
  // 1024 elements: log2 = 10, stages = 55, 512/16 = 32 cycles per stage.
  EXPECT_EQ(cfg.SortBlockCycles(1024), 55u * 32u);
  // Non-power-of-two rounds up to the next network size.
  EXPECT_EQ(cfg.SortBlockCycles(1000), 55u * 32u);
  EXPECT_EQ(cfg.SortBlockCycles(1), 1u);
  // 2 elements: 1 stage, 1 exchange.
  EXPECT_EQ(cfg.SortBlockCycles(2), 1u);
}

TEST_F(SortEngineTest, RejectsBadJobs) {
  SortJob job;
  job.col_base = 8;  // unaligned
  job.num_rows = 64;
  job.out_base = 1 << 20;
  EXPECT_EQ(device_->Start(job, nullptr).code(),
            StatusCode::kInvalidArgument);
  job.col_base = 0;
  job.num_rows = 0;
  EXPECT_FALSE(device_->Start(job, nullptr).ok());
}

}  // namespace
}  // namespace ndp::jafar
