#include "cpu/branch_predictor.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ndp::cpu {
namespace {

TEST(BranchPredictorTest, LearnsAlwaysTaken) {
  BranchPredictor bp(BranchPredictorConfig{});
  for (int i = 0; i < 100; ++i) bp.PredictAndUpdate(0x400, true);
  // gshare warm-up touches one table entry per distinct history pattern (~9
  // for an all-taken stream with 8 history bits); after that it is perfect.
  EXPECT_LE(bp.mispredicts(), 12u);
  uint64_t after_warmup = bp.mispredicts();
  for (int i = 0; i < 1000; ++i) bp.PredictAndUpdate(0x400, true);
  EXPECT_EQ(bp.mispredicts(), after_warmup);
}

TEST(BranchPredictorTest, LearnsAlwaysNotTaken) {
  BranchPredictor bp(BranchPredictorConfig{});
  for (int i = 0; i < 100; ++i) bp.PredictAndUpdate(0x400, false);
  EXPECT_LE(bp.mispredicts(), 1u);
}

TEST(BranchPredictorTest, RandomBranchMispredictsHeavily) {
  BranchPredictor bp(BranchPredictorConfig{});
  Rng rng(3);
  const int n = 20000;
  for (int i = 0; i < n; ++i) bp.PredictAndUpdate(0x400, rng.NextBool(0.5));
  double rate = static_cast<double>(bp.mispredicts()) / n;
  EXPECT_GT(rate, 0.35);
  EXPECT_LT(rate, 0.65);
}

// The mispredict-vs-selectivity shape that drives the paper's §3.2 argument:
// rate must be low at the extremes and peak mid-range.
class SelectivityMispredictTest : public ::testing::TestWithParam<double> {};

TEST_P(SelectivityMispredictTest, RateBoundedByTwiceP1MinusP) {
  double p = GetParam();
  BranchPredictor bp(BranchPredictorConfig{});
  Rng rng(17);
  const int n = 50000;
  for (int i = 0; i < n; ++i) bp.PredictAndUpdate(0x400, rng.NextBool(p));
  double rate = static_cast<double>(bp.mispredicts()) / n;
  double q = std::min(p, 1 - p);
  // A 2-bit counter on a Bernoulli stream mispredicts at most ~2q(1-q)+eps
  // and at least ~q - eps.
  EXPECT_LE(rate, 2 * q * (1 - q) + 0.05);
  if (q > 0.01) {
    EXPECT_GE(rate, q * 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SelectivityMispredictTest,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0));

TEST(BranchPredictorTest, DistinctPcsDoNotAlias) {
  BranchPredictor bp(BranchPredictorConfig{});
  // Loop branch always taken; predicate branch always not-taken. With
  // separate table entries both should be learned.
  for (int i = 0; i < 200; ++i) {
    bp.PredictAndUpdate(0x400100, false);
    bp.PredictAndUpdate(0x400180, true);
  }
  EXPECT_LE(bp.mispredicts(), 10u);
}

TEST(BranchPredictorTest, ResetRestoresInitialState) {
  BranchPredictor bp(BranchPredictorConfig{});
  for (int i = 0; i < 50; ++i) bp.PredictAndUpdate(0x400, true);
  bp.Reset();
  EXPECT_EQ(bp.mispredicts(), 0u);
  EXPECT_EQ(bp.correct(), 0u);
  // First prediction after reset is weakly-not-taken.
  EXPECT_FALSE(bp.PredictAndUpdate(0x400, true));
}

}  // namespace
}  // namespace ndp::cpu
