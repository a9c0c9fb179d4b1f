#include "jafar/driver.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.h"

namespace ndp::jafar {
namespace {

class DriverTest : public ::testing::Test {
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
    device_ = std::make_unique<Device>(dram_.get(), 0, 0, cfg);
    driver_ = std::make_unique<Driver>(device_.get(), &dram_->controller(0));
  }

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<dram::DramSystem> dram_;
  std::unique_ptr<Device> device_;
  std::unique_ptr<Driver> driver_;
};

constexpr uint64_t kCol = 0;
constexpr uint64_t kOut = 8 << 20;
constexpr uint64_t kFlag = 12 << 20;

SelectJob Select(uint64_t col, int64_t lo, int64_t hi, uint64_t out,
                 uint64_t rows, uint64_t flag = 0) {
  SelectJob job;
  job.col_base = col;
  job.num_rows = rows;
  job.range_low = lo;
  job.range_high = hi;
  job.out_base = out;
  job.flag_addr = flag;
  return job;
}

TEST_F(DriverTest, OwnershipRoundTripThroughMr3) {
  EXPECT_EQ(dram_->channel(0).rank(0).owner(), dram::RankOwner::kHost);
  bool acquired = false;
  driver_->AcquireOwnership([&](sim::Tick) { acquired = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return acquired; }));
  EXPECT_EQ(dram_->channel(0).rank(0).owner(), dram::RankOwner::kAccelerator);
  bool released = false;
  driver_->ReleaseOwnership([&](sim::Tick) { released = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return released; }));
  EXPECT_EQ(dram_->channel(0).rank(0).owner(), dram::RankOwner::kHost);
}

TEST_F(DriverTest, PagedSelectCoversMultiplePages) {
  // 1500 rows x 8 B = 11.7 KB = 3 pages at 4 KB.
  const uint64_t rows = 1500;
  Rng rng(8);
  std::vector<int64_t> values(rows);
  for (auto& v : values) v = rng.NextInRange(0, 999);
  dram_->backing_store().Write(kCol, values.data(), rows * 8);

  bool acquired = false;
  driver_->AcquireOwnership([&](sim::Tick) { acquired = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return acquired; }));

  Completion result;
  bool done = false;
  Status st = driver_->Submit(Select(kCol, 100, 499, kOut, rows, kFlag),
                              [&](const Completion& c) {
                                result = c;
                                done = true;
                              });
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));

  EXPECT_EQ(result.pages, 3u);
  uint64_t expected = 0;
  for (int64_t v : values) expected += (v >= 100 && v <= 499);
  EXPECT_EQ(result.matches, expected);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  // Completion flag observable by a polling CPU.
  EXPECT_EQ(dram_->backing_store().Read64(kFlag), 1u);
}

TEST_F(DriverTest, BitmapBytesContiguousAcrossPageBoundaries) {
  const uint64_t rows = 1024;  // exactly 2 pages
  std::vector<int64_t> values(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    values[i] = static_cast<int64_t>(i % 2);  // alternating 0,1
  }
  dram_->backing_store().Write(kCol, values.data(), rows * 8);
  bool acquired = false;
  driver_->AcquireOwnership([&](sim::Tick) { acquired = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return acquired; }));
  bool done = false;
  ASSERT_TRUE(driver_
                  ->Submit(Select(kCol, 1, 1, kOut, rows),
                           [&](const Completion&) { done = true; })
                  .ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
  for (uint64_t w = 0; w < rows / 64; ++w) {
    EXPECT_EQ(dram_->backing_store().Read64(kOut + w * 8),
              0xAAAAAAAAAAAAAAAAull)
        << "bitmap word " << w;
  }
}

TEST_F(DriverTest, SelectWithoutOwnershipFailsCleanly) {
  bool done = false;
  Completion result;
  result.matches = 123;
  Status st = driver_->Submit(Select(kCol, 0, 10, kOut, 64),
                              [&](const Completion& c) {
                                result = c;
                                done = true;
                              });
  // The driver surfaces the device failure through the callback.
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(done);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.matches, 0u);
}

TEST_F(DriverTest, RejectsUnalignedAndConcurrentCalls) {
  bool acquired = false;
  driver_->AcquireOwnership([&](sim::Tick) { acquired = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return acquired; }));
  EXPECT_EQ(driver_->Submit(Select(64, 0, 10, kOut, 64), nullptr).code(),
            StatusCode::kInvalidArgument);  // not page aligned
  EXPECT_EQ(driver_->Submit(Select(kCol, 0, 10, kOut, 0), nullptr).code(),
            StatusCode::kInvalidArgument);  // zero rows
  std::vector<int64_t> values(512, 5);
  dram_->backing_store().Write(kCol, values.data(), values.size() * 8);
  bool done = false;
  ASSERT_TRUE(driver_
                  ->Submit(Select(kCol, 0, 10, kOut, 512),
                           [&](const Completion&) { done = true; })
                  .ok());
  EXPECT_EQ(driver_->Submit(Select(kCol, 0, 10, kOut, 512), nullptr).code(),
            StatusCode::kDeviceBusy);
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
}

TEST_F(DriverTest, InvocationOverheadScalesWithPages) {
  // More pages -> more per-invocation overhead: a 2-page call over N rows is
  // slower than a 1-page-sized device job over the same rows would be, and a
  // small-page driver is slower than a large-page one.
  const uint64_t rows = 4096;  // 32 KB of column data
  std::vector<int64_t> values(rows, 7);
  dram_->backing_store().Write(kCol, values.data(), rows * 8);
  bool acquired = false;
  driver_->AcquireOwnership([&](sim::Tick) { acquired = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return acquired; }));

  auto timed_select = [&](Driver* d) {
    bool done = false;
    sim::Tick start = eq_->Now(), end = 0;
    EXPECT_TRUE(d->Submit(Select(kCol, 0, 10, kOut, rows),
                          [&](const Completion& c) {
                            done = true;
                            end = c.completed_at;
                          })
                    .ok());
    EXPECT_TRUE(eq_->RunUntilTrue([&] { return done; }));
    return end - start;
  };

  sim::Tick small_pages = timed_select(driver_.get());
  DriverConfig big;
  big.page_bytes = 32768;
  Driver big_driver(device_.get(), &dram_->controller(0), big);
  sim::Tick one_page = timed_select(&big_driver);
  EXPECT_GT(small_pages, one_page);
}

// Every job kind takes the same Submit path: STATUS reads BUSY while the job
// runs and DONE after, COMMAND names the kind, and the Completion carries
// the rows the device counted.
class DriverKindTest : public DriverTest,
                       public ::testing::WithParamInterface<size_t> {
 protected:
  static constexpr uint64_t kVals = 2 << 20;
  static constexpr uint64_t kBitmap = 4 << 20;
  static constexpr uint64_t kFilter = 6 << 20;
  static constexpr uint64_t kRows = 1024;

  /// A job of alternative `index` over the loaded columns.
  JobDescriptor MakeJob(size_t index) const {
    switch (index) {
      case 0:
        return Select(kCol, 100, 499, kOut, kRows);
      case 1: {
        AggregateJob job;
        job.col_base = kCol;
        job.num_rows = kRows;
        job.bitmap_base = kBitmap;
        job.out_addr = kOut;
        return job;
      }
      case 2: {
        ProjectJob job;
        job.col_base = kCol;
        job.num_rows = kRows;
        job.bitmap_base = kBitmap;
        job.out_base = kOut;
        return job;
      }
      case 3: {
        RowStoreJob job;
        job.tuple_base = kCol;
        job.num_tuples = kRows / 2;
        job.tuple_bytes = 16;
        job.predicates = {{0, CompareOp::kLt, 500, 0}};
        job.out_base = kOut;
        return job;
      }
      case 4: {
        SortJob job;
        job.col_base = kCol;
        job.num_rows = kRows;
        job.out_base = kOut;
        return job;
      }
      case 5: {
        GroupByJob job;
        job.key_base = kVals;
        job.val_base = kCol;
        job.num_rows = kRows;
        job.out_base = kOut;
        return job;
      }
      default: {
        ProbeJob job;
        job.col_base = kCol;
        job.num_rows = kRows;
        job.out_base = kOut;
        job.filter_base = kFilter;
        job.filter_words = 64;
        job.hash_count = kProbeHashes;
        return job;
      }
    }
  }
};

TEST_P(DriverKindTest, CompletionAgreesWithDeviceCountersForEveryKind) {
  Rng rng(9);
  std::vector<int64_t> values(kRows), keys(kRows);
  for (auto& v : values) v = rng.NextInRange(0, 999);
  for (auto& k : keys) k = rng.NextInRange(0, 15);
  dram_->backing_store().Write(kCol, values.data(), kRows * 8);
  dram_->backing_store().Write(kVals, keys.data(), kRows * 8);
  std::vector<uint64_t> every_third(kRows / 64, 0x9249249249249249ull);
  dram_->backing_store().Write(kBitmap, every_third.data(), kRows / 8);
  std::vector<uint64_t> filter(64, 0x00FF00FF00FF00FFull);
  dram_->backing_store().Write(kFilter, filter.data(), filter.size() * 8);
  bool acquired = false;
  driver_->AcquireOwnership([&](sim::Tick) { acquired = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return acquired; }));

  const JobDescriptor job = MakeJob(GetParam());
  ASSERT_EQ(job.index(), GetParam());
  const uint64_t matches_before = device_->stats().matches;
  Completion result;
  bool done = false;
  ASSERT_TRUE(driver_
                  ->Submit(job,
                           [&](const Completion& c) {
                             result = c;
                             done = true;
                           })
                  .ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.matches, device_->stats().matches - matches_before);
  EXPECT_EQ(result.pages, GetParam() == 0 ? 2u : 1u);  // select: 8 KB = 2 pages
  if (GetParam() != 4) {  // sort counts nothing
    EXPECT_GT(result.matches, 0u);
  }
}

std::string KindName(const ::testing::TestParamInfo<size_t>& info) {
  static const char* const kNames[] = {"Select", "Aggregate", "Project",
                                       "RowStore", "Sort", "GroupBy", "Probe"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DriverKindTest,
                         ::testing::Range<size_t>(0, 7), KindName);

}  // namespace
}  // namespace ndp::jafar
