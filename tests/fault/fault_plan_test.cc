#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/system.h"

namespace ndp::fault {
namespace {

TEST(FaultPlanTest, DefaultPlanIsInactive) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_TRUE(plan.Validate().ok());
}

TEST(FaultPlanTest, AnyNonzeroRateActivates) {
  FaultPlan plan;
  plan.corrupt_per_flush = 0.01;
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlanTest, ValidateRejectsOutOfRangeRates) {
  FaultPlan plan;
  plan.hang_per_job = 1.5;
  EXPECT_EQ(plan.Validate().code(), StatusCode::kInvalidArgument);
  plan.hang_per_job = -0.1;
  EXPECT_EQ(plan.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FaultPlanTest, SystemModelRejectsInactiveInvalidPlan) {
  // A negative or NaN rate reads as inactive, so the injector would never
  // see it; SystemModel must still refuse the plan.
  for (double bad : {-0.5, std::nan("")}) {
    core::PlatformConfig config = core::PlatformConfig::Gem5();
    config.fault_plan.hang_per_job = bad;
    ASSERT_FALSE(config.fault_plan.active());
    EXPECT_DEATH(core::SystemModel{config}, "fault_plan") << bad;
  }
}

}  // namespace
}  // namespace ndp::fault
