#include "db/operators.h"

#include <gtest/gtest.h>

#include <numeric>

#include "util/rng.h"

namespace ndp::db {
namespace {

Column MakeColumn(const std::vector<int64_t>& values, const char* name = "c") {
  Column c = Column::Int64(name);
  for (int64_t v : values) c.Append(v);
  return c;
}

std::vector<int64_t> RandomValues(size_t n, int64_t lo, int64_t hi,
                                  uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = rng.NextInRange(lo, hi);
  return v;
}

TEST(PredTest, AllOperators) {
  EXPECT_TRUE(Pred::Between(2, 5).Eval(2));
  EXPECT_TRUE(Pred::Between(2, 5).Eval(5));
  EXPECT_FALSE(Pred::Between(2, 5).Eval(6));
  EXPECT_TRUE(Pred::Eq(3).Eval(3));
  EXPECT_TRUE(Pred::Ne(3).Eval(4));
  EXPECT_TRUE(Pred::Lt(3).Eval(2));
  EXPECT_FALSE(Pred::Lt(3).Eval(3));
  EXPECT_TRUE(Pred::Gt(3).Eval(4));
  EXPECT_TRUE(Pred::Le(3).Eval(3));
  EXPECT_TRUE(Pred::Ge(3).Eval(3));
}

TEST(ScanSelectTest, BranchingAndPredicatedAgree) {
  auto values = RandomValues(10000, 0, 999);
  Column col = MakeColumn(values);
  QueryContext branching;
  branching.select_mode = SelectMode::kBranching;
  QueryContext predicated;
  predicated.select_mode = SelectMode::kPredicated;
  Pred p = Pred::Between(100, 400);
  EXPECT_EQ(ScanSelect(&branching, col, p), ScanSelect(&predicated, col, p));
}

TEST(ScanSelectTest, MatchesOracle) {
  auto values = RandomValues(5000, -100, 100, 9);
  Column col = MakeColumn(values);
  QueryContext ctx;
  PositionList got = ScanSelect(&ctx, col, Pred::Ge(50));
  PositionList expected;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= 50) expected.push_back(static_cast<uint32_t>(i));
  }
  EXPECT_EQ(got, expected);
  ASSERT_EQ(ctx.stats.size(), 1u);
  EXPECT_EQ(ctx.stats[0].rows_in, 5000u);
  EXPECT_EQ(ctx.stats[0].rows_out, expected.size());
}

TEST(ScanSelectTest, NdpHookIsUsedWhenInstalled) {
  Column col = MakeColumn({1, 2, 3, 4});
  QueryContext ctx;
  bool called = false;
  ctx.ndp_select = [&](const Column&, const Pred&) -> Result<PositionList> {
    called = true;
    return PositionList{1, 3};
  };
  PositionList got = ScanSelect(&ctx, col, Pred::Gt(0));
  EXPECT_TRUE(called);
  EXPECT_EQ(got, (PositionList{1, 3}));
  EXPECT_EQ(ctx.stats[0].op, "scan_select[jafar]");
}

TEST(ScanSelectTest, NdpHookErrorFallsBackToCpu) {
  Column col = MakeColumn({1, 2, 3, 4});
  QueryContext ctx;
  ctx.ndp_select = [](const Column&, const Pred&) -> Result<PositionList> {
    return Status::FailedPrecondition("not pinned on a JAFAR DIMM");
  };
  PositionList got = ScanSelect(&ctx, col, Pred::Gt(2));
  EXPECT_EQ(got, (PositionList{2, 3}));
  EXPECT_EQ(ctx.stats[0].op, "scan_select");
}

TEST(RefineTest, NarrowsPositions) {
  Column col = MakeColumn({10, 20, 30, 40, 50});
  QueryContext ctx;
  PositionList in = {0, 2, 4};
  PositionList out = Refine(&ctx, col, Pred::Ge(30), in);
  EXPECT_EQ(out, (PositionList{2, 4}));
}

TEST(GatherTest, LateMaterialization) {
  Column col = MakeColumn({10, 20, 30, 40});
  QueryContext ctx;
  auto vals = Gather(&ctx, col, {3, 0, 2});
  EXPECT_EQ(vals, (std::vector<int64_t>{40, 10, 30}));
}

TEST(HashJoinTest, MatchesNestedLoopOracle) {
  auto lk = RandomValues(300, 0, 50, 2);
  auto rk = RandomValues(500, 0, 50, 3);
  Column left = MakeColumn(lk, "l");
  Column right = MakeColumn(rk, "r");
  PositionList lp(lk.size()), rp(rk.size());
  std::iota(lp.begin(), lp.end(), 0);
  std::iota(rp.begin(), rp.end(), 0);
  QueryContext ctx;
  JoinResult jr = HashJoin(&ctx, left, lp, right, rp);
  ASSERT_EQ(jr.left.size(), jr.right.size());
  // Oracle: count pairs.
  size_t expected = 0;
  for (int64_t a : lk) {
    for (int64_t b : rk) expected += (a == b);
  }
  EXPECT_EQ(jr.left.size(), expected);
  for (size_t i = 0; i < jr.left.size(); ++i) {
    EXPECT_EQ(lk[jr.left[i]], rk[jr.right[i]]);
  }
}

TEST(HashSemiJoinTest, SemiAndAntiPartitionProbe) {
  Column build = MakeColumn({1, 2, 3});
  Column probe = MakeColumn({0, 1, 2, 3, 4, 5});
  PositionList bp = {0, 1, 2};
  PositionList pp = {0, 1, 2, 3, 4, 5};
  QueryContext ctx;
  PositionList semi = HashSemiJoin(&ctx, build, bp, probe, pp, false);
  PositionList anti = HashSemiJoin(&ctx, build, bp, probe, pp, true);
  EXPECT_EQ(semi, (PositionList{1, 2, 3}));
  EXPECT_EQ(anti, (PositionList{0, 4, 5}));
  EXPECT_EQ(semi.size() + anti.size(), pp.size());
}

TEST(AggregateTest, AllFunctions) {
  QueryContext ctx;
  std::vector<int64_t> v = {4, -2, 7, 7, 0};
  EXPECT_EQ(Aggregate(&ctx, AggFn::kSum, v), 16);
  EXPECT_EQ(Aggregate(&ctx, AggFn::kMin, v), -2);
  EXPECT_EQ(Aggregate(&ctx, AggFn::kMax, v), 7);
  EXPECT_EQ(Aggregate(&ctx, AggFn::kCount, v), 5);
}

TEST(GroupAggregateTest, MultipleSpecs) {
  QueryContext ctx;
  std::vector<int64_t> keys = {1, 2, 1, 2, 1};
  std::vector<int64_t> vals = {10, 20, 30, 40, 50};
  auto groups = GroupAggregate(
      &ctx, keys,
      {{AggFn::kSum, &vals}, {AggFn::kCount, nullptr}, {AggFn::kMax, &vals}});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[1], (std::vector<int64_t>{90, 3, 50}));
  EXPECT_EQ(groups[2], (std::vector<int64_t>{60, 2, 40}));
}

TEST(BitmapConversionTest, RoundTrip) {
  PositionList pos = {0, 5, 63, 64, 100};
  BitVector bm = PositionsToBitmap(pos, 128);
  EXPECT_EQ(bm.CountOnes(), 5u);
  EXPECT_EQ(BitmapToPositions(bm), pos);
}

/// The µops a recorded trace replays as, by type.
struct ReplayedUops {
  uint64_t loads = 0, stores = 0, alus = 0;
};

ReplayedUops CountReplayed(const TraceRecorder& trace) {
  ReplayedUops n;
  cpu::ReplayStream replay(&trace.events());
  for (cpu::Uop u; replay.Next(&u);) {
    n.loads += u.type == cpu::UopType::kLoad;
    n.stores += u.type == cpu::UopType::kStore;
    n.alus += u.type == cpu::UopType::kAlu;
  }
  return n;
}

TEST(TraceRecorderTest, RecordsOperatorTraffic) {
  auto values = RandomValues(1000, 0, 99, 5);
  Column col = MakeColumn(values);
  TraceRecorder trace;
  QueryContext ctx;
  ctx.trace = &trace;
  PositionList pos = ScanSelect(&ctx, col, Pred::Lt(50));
  // One load per row plus one store per match; the scan's compute rides in
  // the accesses, so there is no standalone compute record.
  const ReplayedUops n = CountReplayed(trace);
  EXPECT_EQ(n.loads, 1000u);
  EXPECT_EQ(n.stores, pos.size());
  EXPECT_EQ(trace.total_accesses(), n.loads + n.stores);
  for (const cpu::TraceEvent& ev : trace.events()) {
    EXPECT_NE(ev.kind, cpu::TraceEvent::Kind::kCompute);
  }
}

TEST(TraceRecorderTest, SamplingKeepsComputeMemoryRatio) {
  auto values = RandomValues(10000, 0, 99, 6);
  Column col = MakeColumn(values);
  auto count = [&](uint32_t period) {
    TraceRecorder trace(period);
    QueryContext ctx;
    ctx.trace = &trace;
    (void)ScanSelect(&ctx, col, Pred::Lt(200));  // all match
    const ReplayedUops n = CountReplayed(trace);
    return std::pair<uint64_t, uint64_t>(n.loads, n.alus);
  };
  auto [full_loads, full_compute] = count(1);
  auto [s_loads, s_compute] = count(10);
  ASSERT_GT(full_compute, 0u);
  EXPECT_NEAR(static_cast<double>(s_loads) / full_loads, 0.1, 0.02);
  double full_ratio = static_cast<double>(full_compute) / full_loads;
  double s_ratio = static_cast<double>(s_compute) / s_loads;
  EXPECT_NEAR(s_ratio, full_ratio, full_ratio * 0.2);
}

TEST(TraceRecorderTest, ComputeGapFoldsIntoTheFollowingAccess) {
  TraceRecorder trace;
  trace.Compute(5);
  trace.Load(0x40);
  trace.Store(0x80);
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].kind, cpu::TraceEvent::Kind::kLoad);
  EXPECT_EQ(trace.events()[0].value, 0x40u);
  EXPECT_EQ(trace.events()[0].compute, 5u);
  EXPECT_EQ(trace.events()[1].compute, 0u);
}

TEST(TraceRecorderTest, GapWiderThanComputeFieldSpillsToStandaloneCompute) {
  TraceRecorder trace;
  trace.Compute(70000);
  trace.Load(0x40);
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].kind, cpu::TraceEvent::Kind::kCompute);
  EXPECT_EQ(trace.events()[0].value, 70000u);
  EXPECT_EQ(trace.events()[1].kind, cpu::TraceEvent::Kind::kLoad);
  EXPECT_EQ(trace.events()[1].value, 0x40u);
  EXPECT_EQ(trace.events()[1].compute, 0u);
}

TEST(TraceRecorderDeathTest, AddressBeyondRecordWidthAborts) {
  TraceRecorder trace;
  trace.Load(cpu::TraceEvent::kMaxValue);
  EXPECT_DEATH(trace.Load(uint64_t{1} << 46), "kMaxValue");
}

}  // namespace
}  // namespace ndp::db
