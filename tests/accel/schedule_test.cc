#include "accel/schedule.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace ndp::accel {
namespace {

constexpr uint32_t kIters = 64;

TEST(ScheduleTest, SelectKernelAchievesOneWordPerCycleWithTwoAlus) {
  // The paper's headline datapath claim (§2.2): with two parallel ALUs, JAFAR
  // processes one 64-bit word per accelerator cycle.
  DatapathResources res;  // defaults: 2 ALUs, 2 bit units, 1 read port
  auto r = ScheduleKernel(MakeSelectKernel(), res, kIters).ValueOrDie();
  EXPECT_NEAR(r.steady_state_ii, 1.0, 0.05);
  EXPECT_NEAR(r.words_per_cycle, 1.0, 0.05);
}

TEST(ScheduleTest, SingleAluHalvesRangeFilterThroughput) {
  // Ablation: the range filter needs both compares per word; one ALU makes
  // the ALU the bottleneck with II = 2.
  DatapathResources res;
  res.alus = 1;
  auto r = ScheduleKernel(MakeSelectKernel(), res, kIters).ValueOrDie();
  EXPECT_NEAR(r.steady_state_ii, 2.0, 0.1);
  EXPECT_NEAR(r.words_per_cycle, 0.5, 0.05);
}

TEST(ScheduleTest, SinglePredicateKernelNeedsOnlyOneAlu) {
  // Equality/inequality predicates use one comparison per word, so a single
  // ALU already sustains one word per cycle — the second ALU exists for range
  // filters (§2.2, Figure 1(b)). The one-predicate row-store kernel is that
  // datapath: load, compare, bit-insert, offset increment.
  DatapathResources res;
  res.alus = 1;
  auto r = ScheduleKernel(MakeRowStoreKernel(1), res, kIters).ValueOrDie();
  EXPECT_NEAR(r.steady_state_ii, 1.0, 0.05);
}

TEST(ScheduleTest, MemoryPortBoundsThroughput) {
  // With abundant compute, the single IO-buffer read port is the limit.
  DatapathResources res;
  res.alus = 8;
  res.bit_units = 8;
  auto r = ScheduleKernel(MakeSelectKernel(), res, kIters).ValueOrDie();
  EXPECT_NEAR(r.words_per_cycle, 1.0, 0.05);
  // Doubling read ports cannot help: the carried bit-insert chain and the
  // one-load-per-iteration structure keep II at 1 (one result per cycle).
  res.mem_read_ports = 2;
  auto r2 = ScheduleKernel(MakeSelectKernel(), res, kIters).ValueOrDie();
  EXPECT_LE(r2.steady_state_ii, 1.05);
}

TEST(ScheduleTest, AggregateIsCarriedChainBound) {
  // acc += word serializes on the carried add: II = 1 (latency of the add).
  DatapathResources res;
  auto r = ScheduleKernel(MakeAggregateKernel(), res, kIters).ValueOrDie();
  EXPECT_NEAR(r.steady_state_ii, 1.0, 0.05);
}

TEST(ScheduleTest, NonPipelinedSerializesIterations) {
  DatapathResources res;
  res.pipelined = false;
  auto r = ScheduleKernel(MakeSelectKernel(), res, kIters).ValueOrDie();
  // Whole-iteration latency (load -> cmp -> and -> insert = 4 levels) bounds
  // each iteration; II must be ~4, far worse than the pipelined 1.
  EXPECT_GE(r.steady_state_ii, 3.5);
  auto piped = ScheduleKernel(MakeSelectKernel(), DatapathResources{}, kIters)
                   .ValueOrDie();
  EXPECT_GT(r.total_cycles, 3 * piped.total_cycles);
}

TEST(ScheduleTest, RowStoreKernelScalesWithPredicates) {
  // k predicates need k loads through one read port: II >= k.
  DatapathResources res;
  res.alus = 8;
  res.bit_units = 8;
  for (uint32_t k : {1u, 2u, 4u}) {
    auto r = ScheduleKernel(MakeRowStoreKernel(k), res, kIters).ValueOrDie();
    EXPECT_NEAR(r.steady_state_ii, static_cast<double>(k), 0.25) << "k=" << k;
  }
}

TEST(ScheduleTest, MissingFunctionalUnitIsRejected) {
  LoopKernel k;
  k.name = "needs_mul";
  k.body.push_back({OpCode::kMul, "m", {}, {}});
  DatapathResources res;  // multipliers = 0
  auto r = ScheduleKernel(k, res, kIters);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ScheduleTest, EnergyScalesLinearlyWithIterations) {
  DatapathResources res;
  auto r1 = ScheduleKernel(MakeSelectKernel(), res, 32).ValueOrDie();
  auto r2 = ScheduleKernel(MakeSelectKernel(), res, 64).ValueOrDie();
  EXPECT_NEAR(r2.dynamic_energy_fj / r1.dynamic_energy_fj, 2.0, 0.01);
}

TEST(ScheduleTest, UtilizationIsSane) {
  DatapathResources res;
  auto r = ScheduleKernel(MakeSelectKernel(), res, kIters).ValueOrDie();
  for (const auto& [resrc, u] : r.utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0) << static_cast<int>(resrc);
  }
  // At II=1 with one read port, the read port is ~fully utilized.
  EXPECT_GT(r.utilization.at(Resource::kMemRead), 0.9);
}

TEST(DatapathSummaryTest, DerivedFromSchedule) {
  DatapathResources res;
  LoopKernel k = MakeSelectKernel();
  auto r = ScheduleKernel(k, res, kIters).ValueOrDie();
  DatapathSummary s = DatapathSummary::FromSchedule(k, r);
  EXPECT_EQ(s.kernel_name, "jafar_select_range");
  EXPECT_NEAR(s.words_per_cycle, 1.0, 0.05);
  EXPECT_GT(s.energy_per_word_fj, 0.0);
  // Energy per word = sum of the kernel's per-op energies (one of each/word):
  // load + 2 compares + and + bit-insert + offset counter.
  double expected = EnergyFemtojoulesFor(OpCode::kLoad) +
                    2 * EnergyFemtojoulesFor(OpCode::kCmp) +
                    3 * EnergyFemtojoulesFor(OpCode::kBitOp);
  EXPECT_NEAR(s.energy_per_word_fj, expected, 1.0);
}

TEST(ScheduleTest, TooFewIterationsRejected) {
  EXPECT_FALSE(ScheduleKernel(MakeSelectKernel(), DatapathResources{}, 1).ok());
}

// Pins every ScheduleResult field — doubles by bit pattern, the utilization
// map entry by entry — and every error code, over a grid of kernels,
// resource vectors and iteration counts. A rewrite of the scheduler must
// leave this constant unchanged.
class ScheduleDigestTest : public ::testing::Test {
 protected:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  void MixDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }

  void Add(const Result<ScheduleResult>& r) {
    Mix(static_cast<uint64_t>(r.status().code()));
    if (!r.ok()) return;
    const ScheduleResult& s = r.value();
    Mix(s.total_cycles);
    MixDouble(s.steady_state_ii);
    MixDouble(s.words_per_cycle);
    Mix(s.num_ops);
    MixDouble(s.dynamic_energy_fj);
    Mix(s.utilization.size());
    for (const auto& [resource, u] : s.utilization) {
      Mix(static_cast<uint64_t>(resource));
      MixDouble(u);
    }
  }

  uint64_t hash_ = 0xcbf29ce484222325ull;
};

TEST_F(ScheduleDigestTest, EveryKernelResourceAndIterationMatchesGolden) {
  std::vector<LoopKernel> kernels = {MakeSelectKernel(), MakeAggregateKernel(),
                                     MakeProjectKernel()};
  for (uint32_t k = 1; k <= 4; ++k) kernels.push_back(MakeRowStoreKernel(k));
  for (uint32_t h = 1; h <= 5; ++h) kernels.push_back(MakeProbeKernel(h));

  // The full 288-vector resource grid, pipelined and not.
  std::vector<DatapathResources> grid;
  for (bool pipelined : {true, false}) {
    for (uint32_t reads : {1u, 2u}) {
      for (uint32_t writes : {1u, 2u}) {
        for (uint32_t alus : {1u, 2u, 3u, 4u}) {
          for (uint32_t muls : {0u, 1u, 2u}) {
            for (uint32_t bits : {1u, 2u, 8u}) {
              DatapathResources res;
              res.mem_read_ports = reads;
              res.mem_write_ports = writes;
              res.alus = alus;
              res.multipliers = muls;
              res.bit_units = bits;
              res.pipelined = pipelined;
              grid.push_back(res);
            }
          }
        }
      }
    }
  }

  // Two iterations walk the whole grid; the longer windows take every
  // stride-th vector (strides prime to every axis, so each value of each
  // axis still appears) to keep the test fast.
  const struct {
    uint32_t iterations;
    size_t stride;
  } windows[] = {{2, 1}, {33, 7}, {128, 31}};
  for (const LoopKernel& kernel : kernels) {
    bool needs_mul = false;
    for (const IrOp& op : kernel.body) needs_mul |= op.code == OpCode::kMul;
    for (const auto& w : windows) {
      for (size_t i = 0; i < grid.size(); i += w.stride) {
        auto r = ScheduleKernel(kernel, grid[i], w.iterations);
        EXPECT_EQ(r.status().code() == StatusCode::kFailedPrecondition,
                  needs_mul && grid[i].multipliers == 0)
            << kernel.name;
        Add(r);
      }
    }
  }

  EXPECT_EQ(ScheduleKernel(MakeSelectKernel(), DatapathResources{}, 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  Add(ScheduleKernel(MakeSelectKernel(), DatapathResources{}, 1));
  LoopKernel forward;
  forward.name = "forward_dep";
  forward.body.push_back({OpCode::kLoad, "a", {1}, {}});
  forward.body.push_back({OpCode::kAdd, "b", {}, {}});
  auto bad = ScheduleKernel(forward, DatapathResources{}, 4);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  Add(bad);
  LoopKernel carried;
  carried.name = "carried_out_of_range";
  carried.body.push_back({OpCode::kAdd, "a", {}, {7}});
  bad = ScheduleKernel(carried, DatapathResources{}, 4);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  Add(bad);

  EXPECT_EQ(hash_, 0x68903ede13ffeff8ull);
}

}  // namespace
}  // namespace ndp::accel
