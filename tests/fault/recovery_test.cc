// End-to-end recovery tests: inject each fault layer into a real device +
// driver pair and check that the watchdog/retry/checksum machinery turns
// device faults into correct results (or clean permanent failures), with the
// recovery visible in the driver's counters.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/injector.h"
#include "jafar/driver.h"
#include "util/rng.h"
#include "util/stats_registry.h"

namespace ndp::jafar {
namespace {

/// StatsSnapshot::ToText pads the path to a fixed column, so a substring
/// match on "path value" never hits; find the line and compare its value.
bool DumpHas(const std::string& dump, const std::string& path, long long v) {
  size_t pos = dump.find(path + " ");
  if (pos == std::string::npos) return false;
  size_t eol = dump.find('\n', pos);
  std::string line = dump.substr(pos, eol - pos);
  return std::stoll(line.substr(line.find_last_of(' ') + 1)) == v;
}

// Plain struct (not a gtest fixture) so tests can also drive a second,
// locally-constructed instance (see FaultSequenceIsDeterministicAcrossRuns);
// the abstract ::testing::Test base would forbid that.
struct RecoveryHarness {
  void BuildSystem(const fault::FaultPlan& plan,
                   DriverConfig config = DriverConfig{}) {
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
    StatsScope root(&registry_, "system");
    device_ = std::make_unique<Device>(dram_.get(), 0, 0, cfg,
                                       root.Sub("jafar").Sub("dev0"));
    driver_ = std::make_unique<Driver>(device_.get(), &dram_->controller(0),
                                       config, root.Sub("jafar"));
    injector_ =
        std::make_unique<fault::FaultInjector>(plan, root.Sub("fault"));
    device_->set_fault_injector(injector_.get());
  }

  /// Loads `rows` uniform values, acquires ownership, and runs one select
  /// over [100, 499]; returns the driver-level result.
  Completion RunSelect(uint64_t rows) {
    Rng rng(77);
    values_.resize(rows);
    for (auto& v : values_) v = rng.NextInRange(0, 999);
    dram_->backing_store().Write(kCol, values_.data(), rows * 8);
    bool acquired = false;
    driver_->AcquireOwnership([&](sim::Tick) { acquired = true; });
    EXPECT_TRUE(eq_->RunUntilTrue([&] { return acquired; }));
    SelectJob job;
    job.col_base = kCol;
    job.num_rows = rows;
    job.range_low = 100;
    job.range_high = 499;
    job.out_base = kOut;
    job.flag_addr = kFlag;
    Completion result;
    bool done = false;
    Status st = driver_->Submit(job, [&](const Completion& c) {
      result = c;
      done = true;
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(eq_->RunUntilTrue([&] { return done; }));
    return result;
  }

  uint64_t Oracle() const {
    uint64_t n = 0;
    for (int64_t v : values_) n += (v >= 100 && v <= 499);
    return n;
  }

  static constexpr uint64_t kCol = 0;
  static constexpr uint64_t kOut = 8 << 20;
  static constexpr uint64_t kFlag = 12 << 20;

  StatsRegistry registry_;
  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<dram::DramSystem> dram_;
  std::unique_ptr<Device> device_;
  std::unique_ptr<Driver> driver_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<int64_t> values_;
};

class RecoveryTest : public RecoveryHarness, public ::testing::Test {};

TEST_F(RecoveryTest, HangsAreReclaimedByWatchdogAndRetried) {
  fault::FaultPlan plan;
  plan.seed = 21;
  plan.hang_per_job = 0.5;  // every other dispatch wedges the sequencer
  BuildSystem(plan);
  Completion r = RunSelect(4096);  // 8 pages
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches, Oracle());
  EXPECT_GT(driver_->stats().watchdog_fires, 0u);
  EXPECT_GT(driver_->stats().retries, 0u);
  EXPECT_EQ(driver_->stats().permanent_failures, 0u);
  EXPECT_GT(injector_->counters().hangs_injected, 0u);
  // Aborted jobs count as failed on the device side.
  EXPECT_GT(device_->stats().jobs_failed, 0u);
}

TEST_F(RecoveryTest, PermanentHangExhaustsBudgetAndFailsCleanly) {
  fault::FaultPlan plan;
  plan.seed = 22;
  plan.hang_per_job = 1.0;
  DriverConfig config;
  config.retry.max_attempts = 3;
  BuildSystem(plan, config);
  Completion r = RunSelect(512);  // one page
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.matches, 0u);
  EXPECT_EQ(driver_->stats().watchdog_fires, 3u);
  EXPECT_EQ(driver_->stats().retries, 2u);
  EXPECT_EQ(driver_->stats().permanent_failures, 1u);
  // The device is not wedged: a fault-free plan would now succeed, and the
  // registry records the whole episode.
  std::string dump = registry_.DumpText();
  EXPECT_TRUE(DumpHas(dump, "system.jafar.watchdog_fires", 3)) << dump;
  EXPECT_TRUE(DumpHas(dump, "system.fault.hangs_injected", 3)) << dump;
}

TEST_F(RecoveryTest, MidJobStallLeavesNoPartialDoubleCounting) {
  fault::FaultPlan plan;
  plan.seed = 23;
  plan.stall_per_burst = 0.004;  // a few stalls across ~1k bursts
  BuildSystem(plan);
  Completion r = RunSelect(8192);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  // A stalled attempt has already written part of its page bitmap; the retry
  // rewrites the page from scratch, so the match count stays exact.
  EXPECT_EQ(r.matches, Oracle());
  EXPECT_GT(injector_->counters().stalls_injected, 0u);
  EXPECT_GT(driver_->stats().watchdog_fires, 0u);
}

TEST_F(RecoveryTest, DroppedCompletionsAreRecoveredByWatchdog) {
  fault::FaultPlan plan;
  plan.seed = 24;
  plan.drop_per_completion = 0.5;
  BuildSystem(plan);
  Completion r = RunSelect(4096);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches, Oracle());
  EXPECT_GT(injector_->counters().drops_injected, 0u);
  EXPECT_GT(driver_->stats().watchdog_fires, 0u);
}

TEST_F(RecoveryTest, CorrectableEccIsTransparentToTheJob) {
  fault::FaultPlan plan;
  plan.seed = 25;
  plan.ecc_ce_per_burst = 1.0;  // every read burst takes a single-bit flip
  BuildSystem(plan);
  Completion r = RunSelect(4096);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches, Oracle());
  // Corrected in-line: no retries, but the rank's scrub counter advanced.
  EXPECT_EQ(driver_->stats().retries, 0u);
  EXPECT_GT(dram_->channel(0).rank(0).ecc_corrected(), 0u);
  EXPECT_EQ(dram_->channel(0).rank(0).ecc_uncorrectable(), 0u);
}

TEST_F(RecoveryTest, UncorrectableEccFailsTheJobThenRetrySucceeds) {
  fault::FaultPlan plan;
  plan.seed = 26;
  plan.ecc_ue_per_burst = 0.005;
  BuildSystem(plan);
  Completion r = RunSelect(8192);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches, Oracle());
  EXPECT_GT(injector_->counters().ecc_ue_injected, 0u);
  EXPECT_GT(dram_->channel(0).rank(0).ecc_uncorrectable(), 0u);
  EXPECT_GT(driver_->stats().device_errors, 0u);
  EXPECT_GT(driver_->stats().retries, 0u);
}

TEST_F(RecoveryTest, CorruptedBitmapIsCaughtByWritebackChecksum) {
  fault::FaultPlan plan;
  plan.seed = 27;
  plan.corrupt_per_flush = 0.25;
  BuildSystem(plan);
  Completion r = RunSelect(8192);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches, Oracle());
  EXPECT_GT(injector_->counters().corruptions_injected, 0u);
  EXPECT_GT(driver_->stats().checksum_errors, 0u);
  EXPECT_GT(driver_->stats().retries, 0u);
  // The recovered bitmap itself is clean: recount it from DRAM.
  uint64_t popcount = 0;
  for (uint64_t w = 0; w * 64 < values_.size(); ++w) {
    popcount += static_cast<uint64_t>(
        __builtin_popcountll(dram_->backing_store().Read64(kOut + w * 8)));
  }
  EXPECT_EQ(popcount, Oracle());
}

TEST_F(RecoveryTest, CorruptedProbeBitmapIsCaughtByWritebackChecksum) {
  // Probe candidate bitmaps carry the same writeback checksum as select
  // bitmaps. An undetected 1->0 flip would drop a real semijoin match that
  // host refinement can never restore.
  fault::FaultPlan plan;
  plan.seed = 29;
  plan.corrupt_per_flush = 0.25;
  BuildSystem(plan);
  constexpr uint64_t kRows = 8192;
  constexpr uint64_t kFilter = 10 << 20;
  constexpr uint64_t kFilterWords = 256;
  const uint32_t hashes = kProbeHashes;
  Rng rng(78);
  values_.resize(kRows);
  for (auto& v : values_) v = rng.NextInRange(0, 99999);
  dram_->backing_store().Write(kCol, values_.data(), kRows * 8);
  // Build side: every seventh probe key, hashed into the Bloom image.
  std::vector<uint64_t> filter(kFilterWords, 0);
  auto bloom_bit = [&](int64_t key, uint32_t h) {
    return BloomBitIndex(static_cast<uint64_t>(key), h, kFilterWords);
  };
  for (uint64_t i = 0; i < kRows; i += 7) {
    for (uint32_t h = 0; h < hashes; ++h) {
      uint64_t bit = bloom_bit(values_[i], h);
      filter[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
  dram_->backing_store().Write(kFilter, filter.data(), kFilterWords * 8);
  bool acquired = false;
  driver_->AcquireOwnership([&](sim::Tick) { acquired = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return acquired; }));

  ProbeJob job;
  job.col_base = kCol;
  job.num_rows = kRows;
  job.out_base = kOut;
  job.filter_base = kFilter;
  job.filter_words = kFilterWords;
  job.hash_count = hashes;
  Completion r;
  bool done = false;
  ASSERT_TRUE(driver_
                  ->Submit(job,
                           [&](const Completion& c) {
                             r = c;
                             done = true;
                           })
                  .ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();

  // The bitmap in DRAM equals a host Bloom evaluation of every row.
  uint64_t candidates = 0;
  for (uint64_t i = 0; i < kRows; ++i) {
    bool hit = true;
    for (uint32_t h = 0; h < hashes; ++h) {
      uint64_t bit = bloom_bit(values_[i], h);
      hit = hit && ((filter[bit / 64] >> (bit % 64)) & 1) != 0;
    }
    candidates += hit;
    uint64_t word = dram_->backing_store().Read64(kOut + (i / 64) * 8);
    ASSERT_EQ(((word >> (i % 64)) & 1) != 0, hit) << "row " << i;
  }
  EXPECT_EQ(r.matches, candidates);
  EXPECT_GT(injector_->counters().corruptions_injected, 0u);
  EXPECT_GT(driver_->stats().checksum_errors, 0u);
  EXPECT_GT(driver_->stats().retries, 0u);
}

TEST_F(RecoveryTest, EngineJobsAreWatchdogGuardedToo) {
  fault::FaultPlan plan;
  plan.seed = 28;
  plan.hang_per_job = 1.0;
  DriverConfig config;
  config.retry.max_attempts = 2;
  BuildSystem(plan, config);
  bool acquired = false;
  driver_->AcquireOwnership([&](sim::Tick) { acquired = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return acquired; }));
  std::vector<int64_t> values(512, 5);
  dram_->backing_store().Write(kCol, values.data(), values.size() * 8);
  AggregateJob job;
  job.col_base = kCol;
  job.num_rows = 512;
  job.out_addr = kOut;
  bool done = false;
  Completion result;
  Status st = driver_->Submit(job, [&](const Completion& c) {
    result = c;
    done = true;
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Permanent failure still fires the callback, carrying the failure.
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(driver_->stats().watchdog_fires, 2u);
  EXPECT_EQ(driver_->stats().permanent_failures, 1u);
}

TEST_F(RecoveryTest, FaultSequenceIsDeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    RecoveryHarness t;
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.hang_per_job = 0.25;
    plan.corrupt_per_flush = 0.25;
    t.BuildSystem(plan);
    Completion r = t.RunSelect(4096);
    EXPECT_EQ(r.matches, t.Oracle());
    return t.registry_.DumpText();
  };
  EXPECT_EQ(run(31), run(31));
  EXPECT_NE(run(31), run(32));  // different seed, different fault sequence
}

}  // namespace
}  // namespace ndp::jafar
