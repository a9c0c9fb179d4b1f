// Property-based suites: randomized inputs exercising cross-module
// invariants — JAFAR results equal the scalar oracle for arbitrary
// predicates/data/geometry; the memory system is live under random traffic;
// caches never lose or duplicate completions.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/api.h"
#include "util/rng.h"

namespace ndp {
namespace {

// ---------------------------------------------------------------------------
// JAFAR vs oracle under randomized jobs.

class JafarOracleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JafarOracleProperty, SelectMatchesOracleOnRandomJobs) {
  Rng rng(GetParam());
  sim::EventQueue eq;
  dram::DramOrganization org;
  org.rows_per_bank = 2048;
  dram::ControllerConfig mc;
  mc.refresh_enabled = rng.NextBool(0.5);
  dram::DramSystem dram(&eq, dram::DramTiming::DDR3_1600(), org,
                        dram::InterleaveScheme::kContiguous, mc);
  auto cfg = jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                         accel::DatapathResources{})
                 .ValueOrDie();
  cfg.output_buffer_bits = 512u << rng.NextBounded(4);
  jafar::Device device(&dram, 0, 0, cfg);
  bool granted = false;
  dram.controller(0).TransferOwnership(0, dram::RankOwner::kAccelerator,
                                       [&](sim::Tick) { granted = true; });
  ASSERT_TRUE(eq.RunUntilTrue([&] { return granted; }));

  for (int trial = 0; trial < 4; ++trial) {
    uint64_t rows = 64 + rng.NextBounded(8000);
    std::vector<int64_t> values(rows);
    int64_t domain = 1 + static_cast<int64_t>(rng.NextBounded(1000));
    for (auto& v : values) v = rng.NextInRange(-domain, domain);
    dram.backing_store().Write(0, values.data(), rows * 8);

    jafar::SelectJob job;
    job.col_base = 0;
    job.num_rows = rows;
    job.op = static_cast<jafar::CompareOp>(rng.NextBounded(6));
    job.range_low = rng.NextInRange(-domain, domain);
    job.range_high = rng.NextInRange(job.range_low, domain);
    job.out_base = 1 << 22;
    // Clear the bitmap region (trials reuse it).
    std::vector<uint8_t> zeros((rows + 7) / 8 + 64, 0);
    dram.backing_store().Write(job.out_base, zeros.data(), zeros.size());

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
    for (uint64_t i = 0; i < rows; ++i) {
      bool pass = jafar::EvalCompare(job.op, values[i], job.range_low,
                                     job.range_high);
      oracle += pass;
      uint64_t word = dram.backing_store().Read64(job.out_base + (i / 64) * 8);
      ASSERT_EQ(((word >> (i % 64)) & 1) != 0, pass)
          << "trial " << trial << " row " << i << " op "
          << jafar::CompareOpToString(job.op);
    }
    EXPECT_EQ(matches, oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JafarOracleProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Memory-system liveness: every request completes, exactly once.

class DramLivenessProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DramLivenessProperty, RandomTrafficAlwaysCompletes) {
  Rng rng(GetParam());
  sim::EventQueue eq;
  dram::DramOrganization org;
  org.channels = 1 + rng.NextBounded(2);
  org.ranks_per_channel = 1 + rng.NextBounded(2);
  org.rows_per_bank = 512;
  dram::ControllerConfig mc;
  mc.refresh_enabled = rng.NextBool(0.7);
  dram::DramSystem dram(&eq, dram::DramTiming::DDR3_1600(), org,
                        dram::InterleaveScheme::kContiguous, mc);

  const int kRequests = 2000;
  int completed = 0;
  std::vector<int> completions(kRequests, 0);
  int issued = 0;
  // Issue in waves, respecting backpressure.
  std::function<void()> issue_some = [&] {
    while (issued < kRequests) {
      dram::Request r;
      r.addr = (rng.NextU64() % org.TotalBytes()) & ~uint64_t{63};
      r.is_write = rng.NextBool(0.3);
      int id = issued;
      r.on_complete = [&, id](sim::Tick) {
        ++completions[id];
        ++completed;
        issue_some();
      };
      if (!dram.EnqueueRequest(r).ok()) break;
      ++issued;
    }
  };
  issue_some();
  ASSERT_TRUE(eq.RunUntilTrue([&] { return completed == kRequests; }))
      << "deadlock: " << completed << "/" << kRequests;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(completions[i], 1) << "request " << i;
  }
  auto c = dram.TotalCounters();
  EXPECT_EQ(c.reads_served + c.writes_served,
            static_cast<uint64_t>(kRequests));
  EXPECT_EQ(c.row_hits + c.row_misses + c.row_conflicts,
            static_cast<uint64_t>(kRequests));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramLivenessProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Core + caches: every load completes exactly once under random mixes.

class CoreLivenessProperty : public ::testing::TestWithParam<uint64_t> {};

class RandomMixStream : public cpu::UopStream {
 public:
  RandomMixStream(uint64_t seed, uint64_t count) : rng_(seed), left_(count) {}
  bool Next(cpu::Uop* u) override {
    if (left_ == 0) return false;
    --left_;
    cpu::Uop uop;
    uint32_t kind = rng_.NextBounded(10);
    if (kind < 4) {
      uop.type = cpu::UopType::kLoad;
      uop.addr = rng_.NextBounded(1 << 20) & ~uint64_t{7};
    } else if (kind < 6) {
      uop.type = cpu::UopType::kStore;
      uop.addr = rng_.NextBounded(1 << 20) & ~uint64_t{7};
    } else if (kind < 8) {
      uop.type = cpu::UopType::kBranch;
      uop.taken = rng_.NextBool(0.5);
      uop.pc = 0x400 + rng_.NextBounded(4) * 8;
    } else {
      uop.type = cpu::UopType::kAlu;
      uop.dep_distance = static_cast<uint8_t>(rng_.NextBounded(3));
    }
    *u = uop;
    return true;
  }

 private:
  Rng rng_;
  uint64_t left_;
};

TEST_P(CoreLivenessProperty, RandomUopMixRetiresCompletely) {
  sim::EventQueue eq;
  dram::DramOrganization org;
  org.rows_per_bank = 512;
  dram::DramSystem dram(&eq, dram::DramTiming::DDR3_1600(), org,
                        dram::InterleaveScheme::kContiguous,
                        dram::ControllerConfig{});
  cpu::CacheConfig l1;
  l1.size_bytes = 8192;
  l1.ways = 2;
  l1.mshrs = 4;
  cpu::CacheHierarchy hier(&eq, sim::ClockDomain(1000), {l1}, &dram, 5000);
  cpu::CoreConfig cc;
  cc.rob_entries = 32;
  cc.issue_width = 2;
  cpu::Core core(&eq, cc, hier.top());

  const uint64_t kUops = 5000;
  RandomMixStream stream(GetParam(), kUops);
  bool done = false;
  ASSERT_TRUE(core.Run(&stream, [&](sim::Tick) { done = true; }).ok());
  ASSERT_TRUE(eq.RunUntilTrue([&] { return done; })) << "core hung";
  EXPECT_EQ(core.stats().uops_retired, kUops);
  EXPECT_EQ(core.stats().loads + core.stats().stores +
                core.stats().branches,
            kUops - (kUops - core.stats().loads - core.stats().stores -
                     core.stats().branches));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreLivenessProperty,
                         ::testing::Values(7, 17, 27, 37, 47));

// ---------------------------------------------------------------------------
// Operator algebra properties on random data.

class OperatorAlgebraProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OperatorAlgebraProperty, SelectDecomposesOverConjunction) {
  Rng rng(GetParam());
  db::Column col = db::Column::Int64("c");
  for (int i = 0; i < 5000; ++i) col.Append(rng.NextInRange(0, 99));
  db::QueryContext ctx;
  // between(a, b) == refine(<=b, select(>=a)).
  int64_t a = rng.NextInRange(0, 50), b = rng.NextInRange(a, 99);
  auto direct = db::ScanSelect(&ctx, col, db::Pred::Between(a, b));
  auto staged = db::Refine(&ctx, col, db::Pred::Le(b),
                           db::ScanSelect(&ctx, col, db::Pred::Ge(a)));
  EXPECT_EQ(direct, staged);
  // Selectivity monotonicity: widening the range never loses positions.
  auto wider = db::ScanSelect(&ctx, col, db::Pred::Between(a, 99));
  EXPECT_GE(wider.size(), direct.size());
  EXPECT_TRUE(
      std::includes(wider.begin(), wider.end(), direct.begin(), direct.end()));
  // Bitmap round trip.
  EXPECT_EQ(db::BitmapToPositions(db::PositionsToBitmap(direct, col.size())),
            direct);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorAlgebraProperty,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace ndp
