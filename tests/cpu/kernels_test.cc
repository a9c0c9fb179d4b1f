#include "cpu/kernels.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace ndp::cpu {
namespace {

std::vector<Uop> Drain(UopStream* s) {
  std::vector<Uop> out;
  Uop u;
  while (s->Next(&u)) out.push_back(u);
  return out;
}

std::vector<int64_t> MakeValues(size_t n, uint64_t seed = 1) {
  ndp::Rng rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = rng.NextInRange(0, 999999);
  return v;
}

TEST(SelectScanStreamTest, BranchingUopCountScalesWithMatches) {
  auto values = MakeValues(1000);
  SelectScanStream all(values.data(), values.size(), 0, 999999, 0x1000000,
                       0x2000000, /*predicated=*/false);
  SelectScanStream none(values.data(), values.size(), -10, -1, 0x1000000,
                        0x2000000, /*predicated=*/false);
  auto uops_all = Drain(&all);
  auto uops_none = Drain(&none);
  EXPECT_EQ(all.matches(), 1000u);
  EXPECT_EQ(none.matches(), 0u);
  // The 100%-selectivity stream carries 4 extra bookkeeping µops per row.
  EXPECT_EQ(uops_all.size(), uops_none.size() + 4 * 1000);
}

TEST(SelectScanStreamTest, PredicatedUopCountIsSelectivityIndependent) {
  auto values = MakeValues(1000);
  SelectScanStream all(values.data(), values.size(), 0, 999999, 0x1000000,
                       0x2000000, /*predicated=*/true);
  SelectScanStream none(values.data(), values.size(), -10, -1, 0x1000000,
                        0x2000000, /*predicated=*/true);
  EXPECT_EQ(Drain(&all).size(), Drain(&none).size());
}

TEST(SelectScanStreamTest, MatchCountAgreesWithScalarOracle) {
  auto values = MakeValues(5000, 42);
  int64_t lo = 200000, hi = 700000;
  size_t expected = 0;
  for (int64_t v : values) {
    if (v >= lo && v <= hi) ++expected;
  }
  SelectScanStream s(values.data(), values.size(), lo, hi, 0x1000000,
                     0x2000000, /*predicated=*/false);
  Drain(&s);
  EXPECT_EQ(s.matches(), expected);
}

TEST(SelectScanStreamTest, LoadAddressesAreSequential) {
  auto values = MakeValues(16);
  SelectScanStream s(values.data(), values.size(), 0, 999999, 0x1000000,
                     0x2000000, /*predicated=*/false);
  auto uops = Drain(&s);
  uint64_t expected_addr = 0x1000000;
  for (const Uop& u : uops) {
    if (u.type == UopType::kLoad) {
      EXPECT_EQ(u.addr, expected_addr);
      expected_addr += 8;
    }
  }
  EXPECT_EQ(expected_addr, 0x1000000 + 16 * 8);
}

TEST(SelectScanStreamTest, PredicateBranchOutcomeMatchesData) {
  std::vector<int64_t> values = {5, 15, 25, 10};
  SelectScanStream s(values.data(), values.size(), 10, 20, 0x1000, 0x2000,
                     /*predicated=*/false);
  std::vector<bool> outcomes;
  for (const Uop& u : Drain(&s)) {
    if (u.type == UopType::kBranch && u.pc == kPredicateBranchPc) {
      outcomes.push_back(u.taken);
    }
  }
  EXPECT_EQ(outcomes, (std::vector<bool>{false, true, false, true}));
}

TEST(SelectScanStreamTest, LoopBranchTakenUntilLastRow) {
  std::vector<int64_t> values = {1, 2, 3};
  SelectScanStream s(values.data(), values.size(), 0, 10, 0x1000, 0x2000,
                     /*predicated=*/false);
  std::vector<bool> loop_outcomes;
  for (const Uop& u : Drain(&s)) {
    if (u.type == UopType::kBranch && u.pc == kLoopBranchPc) {
      loop_outcomes.push_back(u.taken);
    }
  }
  EXPECT_EQ(loop_outcomes, (std::vector<bool>{true, true, false}));
}

TEST(AggregateScanStreamTest, FourUopsPerRow) {
  AggregateScanStream s(100, 0x1000);
  EXPECT_EQ(Drain(&s).size(), 400u);
}

TEST(AggregateScanStreamTest, AccumulatorHasLoadDependence) {
  AggregateScanStream s(2, 0x1000);
  auto uops = Drain(&s);
  ASSERT_EQ(uops[0].type, UopType::kLoad);
  EXPECT_EQ(uops[1].type, UopType::kAlu);
  EXPECT_EQ(uops[1].dep_distance, 1);
}

TEST(ProjectGatherStreamTest, GatherAddressesFollowPositions) {
  std::vector<uint32_t> positions = {7, 0, 1023};
  ProjectGatherStream s(positions.data(), positions.size(), 0x1000, 0x100000,
                        0x200000);
  std::vector<uint64_t> gather_addrs;
  auto uops = Drain(&s);
  for (size_t i = 0; i + 1 < uops.size(); ++i) {
    if (uops[i].type == UopType::kLoad && uops[i + 1].type == UopType::kLoad) {
      // The second load of each pair is the dependent gather.
      EXPECT_EQ(uops[i + 1].dep_distance, 1);
      gather_addrs.push_back(uops[i + 1].addr);
    }
  }
  EXPECT_EQ(gather_addrs,
            (std::vector<uint64_t>{0x100000 + 7 * 8, 0x100000 + 0 * 8,
                                   0x100000 + 1023 * 8}));
}

// Pins every kernel's whole µop stream: FNV-1a over each field of each µop,
// the µop count and the kernels' match/pass counters, for a fixed input set.
// A rewrite of a kernel must leave this constant unchanged.
class KernelDigestTest : public ::testing::Test {
 protected:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  void Add(UopStream* s) {
    const std::vector<Uop> uops = Drain(s);
    for (const Uop& u : uops) {
      Mix(static_cast<uint64_t>(u.type));
      Mix(u.addr);
      Mix(u.pc);
      Mix(u.taken);
      Mix(u.latency);
      Mix(u.dep_distance);
    }
    Mix(uops.size());
    Uop u;
    EXPECT_FALSE(s->Next(&u)) << "stream restarted after its end";
  }

  uint64_t hash_ = 0xcbf29ce484222325ull;
};

TEST_F(KernelDigestTest, EveryKernelStreamMatchesGolden) {
  const std::vector<int64_t> values = MakeValues(300, 7);
  const int64_t ranges[][2] = {
      {-10, -1}, {0, 99999}, {250000, 749999}, {0, 999999}};
  for (bool predicated : {false, true}) {
    for (uint32_t elem_bytes : {4u, 8u}) {
      for (const auto& r : ranges) {
        SelectScanStream s(values.data(), values.size(), r[0], r[1],
                           0x1000000, 0x2000000, predicated, elem_bytes);
        Add(&s);
        Mix(s.matches());
      }
    }
  }

  AggregateScanStream agg(200, 0x1000, 4), agg_empty(0, 0x1000);
  Add(&agg);
  Add(&agg_empty);

  std::vector<uint32_t> positions = {7, 0, 1023, 5, 5, 299};
  ProjectGatherStream project(positions.data(), positions.size(), 0x1000,
                              0x100000, 0x200000, 4);
  Add(&project);

  GroupByScanStream group(values.data(), values.size(), 0x10000, 0x20000,
                          0x30000, 97);
  Add(&group);

  std::vector<uint8_t> hits(values.size());
  for (size_t i = 0; i < hits.size(); ++i) hits[i] = values[i] % 3 == 0;
  HashProbeStream probe(values.data(), values.size(), 0x10000, 0x30000,
                        0x40000, 61, hits.data());
  HashProbeStream probe_no_flags(values.data(), values.size(), 0x10000,
                                 0x30000, 0x40000, 61);
  Add(&probe);
  Mix(probe.matches());
  Add(&probe_no_flags);
  Mix(probe_no_flags.matches());

  for (uint64_t rows : {1, 2, 5, 64, 1000}) {
    MergeSortStream sort(rows, 0x100000, 0x900000, 0x1234 + rows);
    Add(&sort);
    Mix(sort.passes());
  }

  SelectScanStream head(values.data(), 50, 0, 499999, 0x1000, 0x8000,
                        /*predicated=*/false);
  AggregateScanStream empty(0, 0x1000);
  SelectScanStream tail(values.data() + 50, 50, 0, 499999, 0x1000 + 50 * 8,
                        0x8000, /*predicated=*/true);
  ConcatStream concat({&head, &empty, &tail});
  Add(&concat);
  Mix(head.matches());
  Mix(tail.matches());

  EXPECT_EQ(hash_, 0x6578af213128c1a5ull);
}

TEST(ReplayStreamTest, ExpandsComputeAndMemoryEvents) {
  std::vector<TraceEvent> events = {
      {TraceEvent::Kind::kCompute, 3},
      {TraceEvent::Kind::kLoad, 0x1000},
      {TraceEvent::Kind::kStore, 0x2000},
      {TraceEvent::Kind::kCompute, 1},
  };
  ReplayStream s(&events);
  auto uops = Drain(&s);
  ASSERT_EQ(uops.size(), 6u);
  EXPECT_EQ(uops[0].type, UopType::kAlu);
  EXPECT_EQ(uops[3].type, UopType::kLoad);
  EXPECT_EQ(uops[3].addr, 0x1000u);
  EXPECT_EQ(uops[4].type, UopType::kStore);
  EXPECT_EQ(uops[4].addr, 0x2000u);
  EXPECT_EQ(uops[5].type, UopType::kAlu);
}

TEST(ReplayStreamTest, FoldedComputeReplaysLikeStandaloneCompute) {
  using Kind = TraceEvent::Kind;
  const std::vector<TraceEvent> folded = {
      {Kind::kLoad, 0x1000, 3},
      {Kind::kStore, 0x2000},
      {Kind::kCompute, 70000},
      {Kind::kLoad, 0x3000, TraceEvent::kMaxCompute},
      {Kind::kCompute, 2},
      {Kind::kStore, TraceEvent::kMaxValue, 1},
  };
  std::vector<TraceEvent> expanded;
  for (const TraceEvent& ev : folded) {
    if (ev.compute > 0) expanded.emplace_back(Kind::kCompute, ev.compute);
    expanded.emplace_back(ev.kind, ev.value);
  }
  ASSERT_GT(expanded.size(), folded.size());
  ReplayStream a(&folded), b(&expanded);
  const std::vector<Uop> ua = Drain(&a), ub = Drain(&b);
  ASSERT_EQ(ua.size(), 3 + 1 + 1 + 70000 + 65535 + 1 + 2 + 1 + 1u);
  ASSERT_EQ(ua.size(), ub.size());
  for (size_t i = 0; i < ua.size(); ++i) {
    ASSERT_EQ(ua[i].type, ub[i].type) << i;
    ASSERT_EQ(ua[i].addr, ub[i].addr) << i;
    ASSERT_EQ(ua[i].pc, ub[i].pc) << i;
    ASSERT_EQ(ua[i].taken, ub[i].taken) << i;
    ASSERT_EQ(ua[i].latency, ub[i].latency) << i;
    ASSERT_EQ(ua[i].dep_distance, ub[i].dep_distance) << i;
  }
  EXPECT_EQ(ua[3].type, UopType::kLoad);
  EXPECT_EQ(ua.back().addr, TraceEvent::kMaxValue);
}

TEST(ReplayStreamTest, RunRepeatsTheAccessOnePeriodBackWithItsStride) {
  using Kind = TraceEvent::Kind;
  const std::vector<TraceEvent> events = {
      {Kind::kLoad, 0x1000, 2},  {Kind::kStore, 0x9000},
      {Kind::kLoad, 0x1008, 2},  {Kind::kStore, 0x8ff0},
      {Kind::kRun, 3, 2},  // load, store, load at period 2
      {Kind::kCompute, 1}, {Kind::kRun, 1, 2},  // and the store
  };
  ReplayStream s(&events);
  std::vector<std::pair<UopType, uint64_t>> got;
  for (const Uop& u : Drain(&s)) got.emplace_back(u.type, u.addr);
  const auto A = UopType::kAlu, L = UopType::kLoad, S = UopType::kStore;
  const std::vector<std::pair<UopType, uint64_t>> want = {
      {A, 0}, {A, 0}, {L, 0x1000}, {S, 0x9000},
      {A, 0}, {A, 0}, {L, 0x1008}, {S, 0x8ff0},
      {A, 0}, {A, 0}, {L, 0x1010}, {S, 0x8fe0},
      {A, 0}, {A, 0}, {L, 0x1018},
      {A, 0}, {S, 0x8fd0}};
  EXPECT_EQ(got, want);
}

TEST(TraceEventDeathTest, OversizedComputeAbortsInsteadOfTruncating) {
  EXPECT_DEATH(TraceEvent(TraceEvent::Kind::kLoad, 0, uint64_t{1} << 16),
               "kMaxCompute");
}

TEST(ReplayStreamTest, EmptyTrace) {
  std::vector<TraceEvent> events;
  ReplayStream s(&events);
  Uop u;
  EXPECT_FALSE(s.Next(&u));
}

}  // namespace
}  // namespace ndp::cpu
