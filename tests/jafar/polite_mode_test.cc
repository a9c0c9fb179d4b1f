// Tests for the §3.3 no-scheduler scenario: a device configured with
// require_ownership = false runs only while the host memory controller is
// idle, surviving host refresh and traffic that perturb its bank state.
#include <gtest/gtest.h>

#include "jafar/device.h"
#include "util/rng.h"

namespace ndp::jafar {
namespace {

class PoliteModeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    eq_ = std::make_unique<sim::EventQueue>();
    dram::DramOrganization org;
    org.ranks_per_channel = 2;
    org.rows_per_bank = 4096;
    dram::ControllerConfig mc;  // refresh enabled: it must not break JAFAR
    dram_ = std::make_unique<dram::DramSystem>(
        eq_.get(), dram::DramTiming::DDR3_1600(), org,
        dram::InterleaveScheme::kContiguous, mc);
    auto cfg = DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                    accel::DatapathResources{})
                   .ValueOrDie();
    cfg.require_ownership = false;
    device_ = std::make_unique<Device>(dram_.get(), 0, 0, cfg);
  }

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<dram::DramSystem> dram_;
  std::unique_ptr<Device> device_;
};

TEST_F(PoliteModeTest, RunsWithoutOwnership) {
  ASSERT_EQ(dram_->channel(0).rank(0).owner(), dram::RankOwner::kHost);
  std::vector<int64_t> values(4096, 100);
  dram_->backing_store().Write(0, values.data(), values.size() * 8);
  SelectJob job;
  job.col_base = 0;
  job.num_rows = values.size();
  job.range_low = 0;
  job.range_high = 200;
  job.out_base = 1 << 20;
  bool done = false;
  uint64_t matches = 0;
  ASSERT_TRUE(device_
                  ->Start(job,
                          [&](const Completion& c) {
                            done = true;
                            matches = c.matches;
                          })
                  .ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
  EXPECT_EQ(matches, values.size());
}

TEST_F(PoliteModeTest, SurvivesRefreshClosingItsRows) {
  // A scan long enough to straddle several tREFI intervals: host refresh
  // precharges the device's open rows mid-scan; the stale-row revalidation
  // must recover and the result must stay exact.
  Rng rng(3);
  std::vector<int64_t> values(128 * 1024);
  for (auto& v : values) v = rng.NextInRange(0, 999);
  dram_->backing_store().Write(0, values.data(), values.size() * 8);
  SelectJob job;
  job.col_base = 0;
  job.num_rows = values.size();
  job.range_low = 0;
  job.range_high = 499;
  job.out_base = 1 << 24;
  bool done = false;
  uint64_t matches = 0;
  ASSERT_TRUE(device_
                  ->Start(job,
                          [&](const Completion& c) {
                            done = true;
                            matches = c.matches;
                          })
                  .ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
  uint64_t oracle = 0;
  for (int64_t v : values) oracle += v <= 499;
  EXPECT_EQ(matches, oracle);
  // The scan crossed refresh windows.
  EXPECT_GE(dram_->channel(0).rank(0).refreshes_issued(), 1u);
}

TEST_F(PoliteModeTest, DefersToHostTraffic) {
  std::vector<int64_t> values(32 * 1024, 5);
  dram_->backing_store().Write(0, values.data(), values.size() * 8);

  // Keep the controller busy with a stream of host reads to rank 1.
  uint64_t rank1 = dram_->organization().BytesPerRank();
  uint64_t issued = 0;
  std::function<void()> pump = [&] {
    if (issued >= 2000) return;
    dram::Request r;
    r.addr = rank1 + (issued % 512) * 64;
    r.on_complete = [&](sim::Tick) { pump(); };
    if (dram_->EnqueueRequest(r).ok()) ++issued;
  };
  // Prime several outstanding host requests.
  for (int i = 0; i < 8; ++i) pump();

  SelectJob job;
  job.col_base = 0;
  job.num_rows = values.size();
  job.range_low = 0;
  job.range_high = 10;
  job.out_base = 1 << 24;
  bool done = false;
  uint64_t matches = 0;
  ASSERT_TRUE(device_
                  ->Start(job,
                          [&](const Completion& c) {
                            done = true;
                            matches = c.matches;
                          })
                  .ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
  EXPECT_GT(device_->stats().polite_backoffs, 0u);
  EXPECT_EQ(matches, values.size());
}

TEST_F(PoliteModeTest, ExclusiveModeStillRequiresOwnership) {
  auto cfg = device_->config();
  cfg.require_ownership = true;
  Device strict(dram_.get(), 0, 0, cfg);
  SelectJob job;
  job.col_base = 0;
  job.num_rows = 64;
  job.out_base = 1 << 20;
  EXPECT_EQ(strict.Start(job, nullptr).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ndp::jafar
