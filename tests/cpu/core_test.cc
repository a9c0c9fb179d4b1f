#include "cpu/core.h"

#include <gtest/gtest.h>

#include <vector>

#include "cpu/cache.h"
#include "cpu/hierarchy.h"
#include "dram/dram_system.h"
#include "util/rng.h"

namespace ndp::cpu {
namespace {

/// Serves every access after a fixed delay; never rejects.
class PerfectMemory : public MemSink {
 public:
  PerfectMemory(sim::EventQueue* eq, sim::Tick latency)
      : eq_(eq), latency_(latency) {}
  bool TryAccess(uint64_t, bool, std::function<void(sim::Tick)> cb) override {
    if (cb) eq_->ScheduleAfter(latency_, [cb, this] { cb(eq_->Now()); });
    return true;
  }

 private:
  sim::EventQueue* eq_;
  sim::Tick latency_;
};

/// Emits a fixed vector of µops.
class VectorStream : public UopStream {
 public:
  explicit VectorStream(std::vector<Uop> uops) : uops_(std::move(uops)) {}
  bool Next(Uop* u) override {
    if (i_ >= uops_.size()) return false;
    *u = uops_[i_++];
    return true;
  }

 private:
  std::vector<Uop> uops_;
  size_t i_ = 0;
};

Uop Alu(uint8_t dep = 0, uint8_t latency = 1) {
  Uop u;
  u.type = UopType::kAlu;
  u.dep_distance = dep;
  u.latency = latency;
  return u;
}
Uop Load(uint64_t addr) {
  Uop u;
  u.type = UopType::kLoad;
  u.addr = addr;
  return u;
}
Uop Branch(bool taken, uint64_t pc = 0x500) {
  Uop u;
  u.type = UopType::kBranch;
  u.taken = taken;
  u.pc = pc;
  return u;
}

sim::Tick RunKernel(Core* core, sim::EventQueue* eq, UopStream* stream) {
  bool done = false;
  sim::Tick end = 0;
  sim::Tick start = eq->Now();
  EXPECT_TRUE(core->Run(stream, [&](sim::Tick t) {
                done = true;
                end = t;
              }).ok());
  EXPECT_TRUE(eq->RunUntilTrue([&] { return done; }));
  return end - start;
}

class CoreTest : public ::testing::Test {
 protected:
  void Build(CoreConfig cfg, sim::Tick mem_latency = 0) {
    core_.reset();  // components cancel their event nodes; queue must outlive them
    mem_.reset();
    eq_ = std::make_unique<sim::EventQueue>();
    mem_ = std::make_unique<PerfectMemory>(eq_.get(), mem_latency);
    core_ = std::make_unique<Core>(eq_.get(), cfg, mem_.get());
  }

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<PerfectMemory> mem_;
  std::unique_ptr<Core> core_;
};

TEST_F(CoreTest, IndependentAluThroughputMatchesIssueWidth) {
  CoreConfig cfg;
  cfg.issue_width = 4;
  cfg.retire_width = 4;
  Build(cfg);
  std::vector<Uop> uops(400, Alu());
  VectorStream s(uops);
  sim::Tick dur = RunKernel(core_.get(), eq_.get(), &s);
  // 400 independent 1-cycle µops at 4-wide: ~100 cycles + pipeline slack.
  uint64_t cycles = dur / cfg.clock.period_ps();
  EXPECT_GE(cycles, 100u);
  EXPECT_LE(cycles, 110u);
  EXPECT_NEAR(core_->stats().Ipc(), 4.0, 0.5);
}

TEST_F(CoreTest, DependenceChainSerializes) {
  CoreConfig cfg;
  cfg.issue_width = 4;
  Build(cfg);
  std::vector<Uop> uops(200, Alu(/*dep=*/1));
  VectorStream s(uops);
  sim::Tick dur = RunKernel(core_.get(), eq_.get(), &s);
  uint64_t cycles = dur / cfg.clock.period_ps();
  // A chain of 200 dependent 1-cycle ops needs >= 200 cycles.
  EXPECT_GE(cycles, 200u);
  EXPECT_LE(core_->stats().Ipc(), 1.2);
}

TEST_F(CoreTest, LoadLatencyIsHiddenByMlp) {
  CoreConfig cfg;
  cfg.rob_entries = 64;
  Build(cfg, /*mem_latency=*/100000);  // 100 cycles
  // 16 independent loads: with a 64-entry window all overlap; total time
  // should be ~1 latency, not 16.
  std::vector<Uop> uops;
  for (int i = 0; i < 16; ++i) uops.push_back(Load(static_cast<uint64_t>(i) * 64));
  VectorStream s(uops);
  sim::Tick dur = RunKernel(core_.get(), eq_.get(), &s);
  EXPECT_LT(dur, 2 * 100000u);
}

TEST_F(CoreTest, SmallRobLimitsMlp) {
  CoreConfig cfg;
  cfg.rob_entries = 4;
  cfg.issue_width = 1;
  Build(cfg, /*mem_latency=*/100000);
  std::vector<Uop> uops;
  for (int i = 0; i < 16; ++i) uops.push_back(Load(static_cast<uint64_t>(i) * 64));
  VectorStream s(uops);
  sim::Tick dur = RunKernel(core_.get(), eq_.get(), &s);
  // At most 4 in flight: at least 4 serialized memory latencies.
  EXPECT_GE(dur, 4 * 100000u);
}

TEST_F(CoreTest, MispredictsAddStallCycles) {
  CoreConfig cfg;
  cfg.branch.mispredict_penalty_cycles = 20;
  Build(cfg);
  // Random branch outcomes defeat any predictor (gshare would learn a simple
  // alternating pattern perfectly, so use genuine coin flips).
  ndp::Rng rng(11);
  std::vector<Uop> random_branches;
  for (int i = 0; i < 100; ++i) random_branches.push_back(Branch(rng.NextBool(0.5)));
  // Constant outcomes are learned immediately.
  std::vector<Uop> constant(100, Branch(true));

  VectorStream s1(random_branches);
  sim::Tick dur_alt = RunKernel(core_.get(), eq_.get(), &s1);
  uint64_t mispredicts = core_->stats().mispredicts;
  EXPECT_GT(mispredicts, 30u);

  core_->predictor().Reset();
  VectorStream s2(constant);
  sim::Tick dur_const = RunKernel(core_.get(), eq_.get(), &s2);
  // gshare warm-up only.
  EXPECT_LT(core_->stats().mispredicts - mispredicts, 15u);
  EXPECT_GT(dur_alt, dur_const + 30 * 20 * cfg.clock.period_ps());
}

TEST_F(CoreTest, RejectsConcurrentKernels) {
  Build(CoreConfig{});
  std::vector<Uop> uops(10, Alu());
  VectorStream s1(uops), s2(uops);
  ASSERT_TRUE(core_->Run(&s1, nullptr).ok());
  EXPECT_EQ(core_->Run(&s2, nullptr).code(), StatusCode::kFailedPrecondition);
  eq_->RunUntilEmpty();
  EXPECT_FALSE(core_->busy());
}

TEST_F(CoreTest, BackToBackKernelsOnSameCore) {
  Build(CoreConfig{});
  std::vector<Uop> uops(50, Alu());
  VectorStream s1(uops);
  (void)RunKernel(core_.get(), eq_.get(), &s1);
  VectorStream s2(uops);
  (void)RunKernel(core_.get(), eq_.get(), &s2);
  EXPECT_EQ(core_->stats().uops_retired, 100u);
}

TEST_F(CoreTest, StoresDrainBeforeCompletion) {
  Build(CoreConfig{});
  std::vector<Uop> uops;
  for (int i = 0; i < 20; ++i) {
    Uop u;
    u.type = UopType::kStore;
    u.addr = static_cast<uint64_t>(i) * 64;
    uops.push_back(u);
  }
  VectorStream s(uops);
  (void)RunKernel(core_.get(), eq_.get(), &s);
  EXPECT_EQ(core_->stats().stores, 20u);
  EXPECT_FALSE(core_->busy());
}

TEST_F(CoreTest, EndToEndWithCachesAndDram) {
  // Integration: a small select-like loop through a real L1 + DRAM stack.
  sim::EventQueue eq;
  dram::DramOrganization org;
  org.rows_per_bank = 256;
  dram::DramSystem dram(&eq, dram::DramTiming::DDR3_1600(), org,
                        dram::InterleaveScheme::kContiguous,
                        dram::ControllerConfig{});
  CacheConfig l1;
  l1.size_bytes = 4096;
  l1.ways = 4;
  CacheHierarchy hier(&eq, sim::ClockDomain(1000), {l1}, &dram, 5000);
  Core core(&eq, CoreConfig{}, hier.top());

  std::vector<Uop> uops;
  for (int i = 0; i < 64; ++i) {
    uops.push_back(Load(static_cast<uint64_t>(i) * 8));
    uops.push_back(Alu(1));
  }
  VectorStream s(uops);
  sim::Tick dur = RunKernel(&core, &eq, &s);
  EXPECT_GT(dur, 0u);
  // 64 loads over 8 lines: 8 DRAM fills. The OoO window issues loads to a
  // line while its fill is still in flight, so the non-miss accesses split
  // between plain hits and MSHR merges.
  const auto& cs = hier.level(0).stats();
  EXPECT_EQ(cs.misses, 8u);
  EXPECT_EQ(cs.hits + cs.mshr_merges, 56u);
  EXPECT_EQ(dram.TotalCounters().reads_served, 8u);
}

}  // namespace
}  // namespace ndp::cpu
