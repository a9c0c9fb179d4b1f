#include "jafar/device.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace ndp::jafar {
namespace {

class DeviceTest : public ::testing::Test {
 protected:
  void SetUp() override { Rebuild(DefaultConfig()); }

  static DeviceConfig DefaultConfig() {
    auto cfg = DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                    accel::DatapathResources{})
                   .ValueOrDie();
    cfg.output_buffer_bits = 512;  // one burst per flush, small for tests
    return cfg;
  }

  void Rebuild(DeviceConfig cfg) {
    device_.reset();  // components cancel their event nodes; queue must outlive them
    dram_.reset();
    eq_ = std::make_unique<sim::EventQueue>();
    dram::DramOrganization org;
    org.ranks_per_channel = 2;
    org.rows_per_bank = 1024;
    dram::ControllerConfig mc;
    mc.refresh_enabled = false;  // deterministic timing in unit tests
    dram_ = std::make_unique<dram::DramSystem>(
        eq_.get(), dram::DramTiming::DDR3_1600(), org,
        dram::InterleaveScheme::kContiguous, mc);
    device_ = std::make_unique<Device>(dram_.get(), 0, 0, cfg);
    GrantOwnership();
  }

  void GrantOwnership() {
    bool granted = false;
    dram_->controller(0).TransferOwnership(
        0, dram::RankOwner::kAccelerator, [&](sim::Tick) { granted = true; });
    ASSERT_TRUE(eq_->RunUntilTrue([&] { return granted; }));
  }

  /// Loads `values` into the backing store at `base` as 64-bit words.
  void LoadColumn(uint64_t base, const std::vector<int64_t>& values) {
    dram_->backing_store().Write(base, values.data(), values.size() * 8);
  }

  std::vector<int64_t> RandomColumn(size_t n, uint64_t seed = 7) {
    Rng rng(seed);
    std::vector<int64_t> v(n);
    for (auto& x : v) x = rng.NextInRange(0, 999999);
    return v;
  }

  BitVector ReadBitmap(uint64_t base, size_t bits) {
    BitVector bv(bits);
    for (size_t w = 0; w < bv.num_words(); ++w) {
      bv.SetWord(w, dram_->backing_store().Read64(base + w * 8));
    }
    return bv;
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
    if (!st.ok()) return 0;
    EXPECT_TRUE(eq_->RunUntilTrue([&] { return done; }));
    return end - start;
  }

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<dram::DramSystem> dram_;
  std::unique_ptr<Device> device_;
  uint64_t matches_ = 0;  ///< Completion::matches of the last RunSelect
};

constexpr uint64_t kCol = 0;           // rank 0
constexpr uint64_t kOut = 1 << 20;     // rank 0, well clear of the column

TEST_F(DeviceTest, SelectBitmapMatchesScalarOracle) {
  auto values = RandomColumn(4096);
  LoadColumn(kCol, values);
  SelectJob job;
  job.col_base = kCol;
  job.num_rows = values.size();
  job.range_low = 250000;
  job.range_high = 750000;
  job.out_base = kOut;
  RunSelect(job);

  BitVector bm = ReadBitmap(kOut, values.size());
  uint64_t expected_matches = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    bool pass = values[i] >= 250000 && values[i] <= 750000;
    EXPECT_EQ(bm.Get(i), pass) << "row " << i;
    expected_matches += pass;
  }
  EXPECT_EQ(matches_, expected_matches);
  EXPECT_EQ(bm.CountOnes(), expected_matches);
}

class CompareOpTest : public DeviceTest,
                      public ::testing::WithParamInterface<CompareOp> {};

TEST_P(CompareOpTest, AllOperatorsMatchOracle) {
  CompareOp op = GetParam();
  auto values = RandomColumn(512, 99);
  LoadColumn(kCol, values);
  SelectJob job;
  job.col_base = kCol;
  job.num_rows = values.size();
  job.op = op;
  job.range_low = 500000;
  job.range_high = 600000;
  job.out_base = kOut;
  RunSelect(job);
  BitVector bm = ReadBitmap(kOut, values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(bm.Get(i), EvalCompare(op, values[i], 500000, 600000))
        << CompareOpToString(op) << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, CompareOpTest,
                         ::testing::Values(CompareOp::kEq, CompareOp::kLt,
                                           CompareOp::kGt, CompareOp::kLe,
                                           CompareOp::kGe, CompareOp::kBetween));

TEST_F(DeviceTest, ExecutionTimeIsSelectivityIndependent) {
  // §3.2: "JAFAR has constant execution time irrespective of the query
  // selectivity" — it always writes full output buffers.
  auto values = RandomColumn(8192);
  LoadColumn(kCol, values);
  SelectJob all;
  all.col_base = kCol;
  all.num_rows = values.size();
  all.range_low = 0;
  all.range_high = 999999;
  all.out_base = kOut;
  // Warm-up run so both measured runs start from identical bank state.
  (void)RunSelect(all);
  sim::Tick t_all = RunSelect(all);

  SelectJob none = all;
  none.range_low = -2;
  none.range_high = -1;
  sim::Tick t_none = RunSelect(none);
  EXPECT_EQ(t_all, t_none);
}

TEST_F(DeviceTest, RequiresOwnershipWhenConfigured) {
  bool released = false;
  dram_->controller(0).TransferOwnership(0, dram::RankOwner::kHost,
                                         [&](sim::Tick) { released = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return released; }));
  SelectJob job;
  job.col_base = kCol;
  job.num_rows = 64;
  job.out_base = kOut;
  Status st = device_->Start(job, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(DeviceTest, RejectsJobOutsideItsRank) {
  // Rank 1 starts at BytesPerRank in the contiguous layout.
  uint64_t rank1 = dram_->organization().BytesPerRank();
  SelectJob job;
  job.col_base = rank1;
  job.num_rows = 64;
  job.out_base = rank1 + (1 << 20);
  EXPECT_EQ(device_->Start(job, nullptr).code(),
            StatusCode::kInvalidArgument);
  // A job whose data straddles the rank boundary is also rejected.
  SelectJob straddle;
  straddle.col_base = rank1 - 64;
  straddle.num_rows = 64;
  straddle.out_base = kOut;
  EXPECT_EQ(device_->Start(straddle, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DeviceTest, RejectsConcurrentJobs) {
  auto values = RandomColumn(512);
  LoadColumn(kCol, values);
  SelectJob job;
  job.col_base = kCol;
  job.num_rows = values.size();
  job.out_base = kOut;
  ASSERT_TRUE(device_->Start(job, nullptr).ok());
  EXPECT_EQ(device_->Start(job, nullptr).code(), StatusCode::kDeviceBusy);
  eq_->RunUntilTrue([&] { return !device_->busy(); });
}

TEST_F(DeviceTest, ThroughputApproachesOneWordPerBusBurstSlot) {
  // Pipelined CAS every tCCD: 8 words per 4 bus cycles. For a large scan the
  // effective rate should be close to that bound (row switches and bitmap
  // write-backs cost a few percent).
  const size_t rows = 65536;
  auto values = RandomColumn(rows);
  LoadColumn(kCol, values);
  SelectJob job;
  job.col_base = kCol;
  job.num_rows = rows;
  job.range_low = 0;
  job.range_high = 999999;
  job.out_base = kOut;
  sim::Tick dur = RunSelect(job);
  const auto& t = dram_->timing();
  sim::Tick ideal = rows / 8 * t.tccd * t.tck_ps;  // one burst per tCCD
  EXPECT_GE(dur, ideal);
  EXPECT_LE(dur, ideal * 13 / 10);  // <= 30% overhead
}

TEST_F(DeviceTest, WaitFractionMatchesPaperObservation) {
  // §2.2: JAFAR spends ~9 of 13 ns of each access waiting for data. Our
  // counters measure CAS-latency wait vs. datapath busy time; the ratio
  // should show the device is wait-dominated, not compute-dominated.
  auto values = RandomColumn(8192);
  LoadColumn(kCol, values);
  SelectJob job;
  job.col_base = kCol;
  job.num_rows = values.size();
  job.out_base = kOut;
  RunSelect(job);
  double frac = device_->stats().WaitFraction();
  EXPECT_GT(frac, 0.55);
  EXPECT_LT(frac, 0.85);
}

TEST_F(DeviceTest, SlowDatapathThrottlesScan) {
  // A one-ALU datapath (II = 2, half a word per cycle) must take ~2x longer.
  const size_t rows = 16384;
  auto values = RandomColumn(rows);
  LoadColumn(kCol, values);
  SelectJob job;
  job.col_base = kCol;
  job.num_rows = rows;
  job.out_base = kOut;
  sim::Tick fast = RunSelect(job);

  accel::DatapathResources weak;
  weak.alus = 1;
  auto slow_cfg =
      DeviceConfig::Derive(dram::DramTiming::DDR3_1600(), weak).ValueOrDie();
  slow_cfg.output_buffer_bits = 512;
  Rebuild(slow_cfg);
  LoadColumn(kCol, values);
  sim::Tick slow = RunSelect(job);
  EXPECT_GT(slow, fast * 15 / 10);
  EXPECT_LT(slow, fast * 25 / 10);
}

TEST_F(DeviceTest, MaskedWritebackPreservesForeignBits) {
  // §2.2 "Handling Data Interleaving": with word-granularity interleaving
  // JAFAR must only overwrite bitmap bits for rows it operated on.
  const size_t rows = 512;
  std::vector<int64_t> values(rows, 1000);  // all pass [0, 2000]
  LoadColumn(kCol, values);
  // Pre-existing bitmap content that belongs to the *other* DIMM's rows.
  for (size_t w = 0; w < rows / 64; ++w) {
    dram_->backing_store().Write64(kOut + w * 8, 0xAAAAAAAAAAAAAAAAull);
  }
  SelectJob job;
  job.col_base = kCol;
  job.num_rows = rows;
  job.range_low = 0;
  job.range_high = 2000;
  job.out_base = kOut;
  job.masked_writeback = true;
  job.writeback_mask = 0x5555555555555555ull;  // we own the even bits
  RunSelect(job);
  for (size_t w = 0; w < rows / 64; ++w) {
    // Even bits set by us (all rows pass), odd bits preserved as 1 (0xAAAA..).
    EXPECT_EQ(dram_->backing_store().Read64(kOut + w * 8),
              0xFFFFFFFFFFFFFFFFull);
  }
}

TEST_F(DeviceTest, StatsAccumulateAcrossJobs) {
  auto values = RandomColumn(1024);
  LoadColumn(kCol, values);
  SelectJob job;
  job.col_base = kCol;
  job.num_rows = values.size();
  job.out_base = kOut;
  RunSelect(job);
  RunSelect(job);
  const DeviceStats& s = device_->stats();
  EXPECT_EQ(s.jobs_completed, 2u);
  EXPECT_EQ(s.rows_processed, 2048u);
  EXPECT_EQ(s.bursts_read, 2 * 1024 / 8u);
  EXPECT_GT(s.bursts_written, 0u);
  EXPECT_GT(s.energy_fj, 0.0);
  EXPECT_GT(s.total_busy_ps, 0u);
}

TEST_F(DeviceTest, UnalignedBaseRejected) {
  SelectJob job;
  job.col_base = 8;  // not 64 B aligned
  job.num_rows = 64;
  job.out_base = kOut;
  EXPECT_EQ(device_->Start(job, nullptr).code(),
            StatusCode::kInvalidArgument);
  // An aggregate's pre-filter bitmap too: at 64 KiB + 8 each 512-row slice's
  // bits would straddle two bursts, of which the device fetches one.
  AggregateJob agg;
  agg.col_base = kCol;
  agg.num_rows = 1024;
  agg.bitmap_base = (64 << 10) + 8;
  agg.out_addr = kOut;
  EXPECT_EQ(device_->Start(agg, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(device_->busy());
}

// 2^61 + 8 rows of 8 bytes is 2^64 + 64 bytes, which wraps to a 64-byte
// range that would pass the rank check if the product were not checked.
constexpr uint64_t kWrappingRows = (uint64_t{1} << 61) + 8;

TEST_F(DeviceTest, AggregateWithWrappingByteLengthRejected) {
  AggregateJob job;
  job.col_base = kCol;
  job.num_rows = kWrappingRows;
  job.out_addr = kOut;
  EXPECT_EQ(device_->Start(job, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(device_->busy());
}

TEST_F(DeviceTest, SortWithWrappingByteLengthRejected) {
  SortJob job;
  job.col_base = kCol;
  job.num_rows = kWrappingRows;
  job.out_base = kOut;
  EXPECT_EQ(device_->Start(job, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(device_->busy());
}

TEST_F(DeviceTest, GroupByWithWrappingByteLengthRejected) {
  GroupByJob job;
  job.key_base = kCol;
  job.val_base = kCol + 4096;
  job.num_rows = kWrappingRows;
  job.out_base = kOut;
  EXPECT_EQ(device_->Start(job, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(device_->busy());
}

TEST_F(DeviceTest, RangeWhoseEndWrapsPastZeroRejected) {
  // (2^61 - 7) * 8 = 2^64 - 56 does not overflow, but 64 + that - 1 wraps
  // to address 7: both ends decode into this rank.
  AggregateJob job;
  job.col_base = 64;
  job.num_rows = (uint64_t{1} << 61) - 7;
  job.out_addr = kOut;
  EXPECT_EQ(device_->Start(job, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(device_->busy());
}

TEST_F(DeviceTest, PartialFinalBufferIsFlushed) {
  // 100 rows: far less than the 512-bit output buffer; the final partial
  // flush must still land in memory.
  std::vector<int64_t> values(100);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i);
  }
  LoadColumn(kCol, values);
  SelectJob job;
  job.col_base = kCol;
  job.num_rows = values.size();
  job.range_low = 50;
  job.range_high = 999;
  job.out_base = kOut;
  RunSelect(job);
  BitVector bm = ReadBitmap(kOut, 100);
  EXPECT_EQ(bm.CountOnes(), 50u);
  EXPECT_FALSE(bm.Get(49));
  EXPECT_TRUE(bm.Get(50));
}

}  // namespace
}  // namespace ndp::jafar
