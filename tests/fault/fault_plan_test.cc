#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

namespace ndp::fault {
namespace {

// Scoped setenv: restores (unsets) the variable on destruction so plan tests
// cannot leak campaign configuration into each other or later suites.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

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

TEST(FaultPlanTest, FromJsonParsesAllFields) {
  auto doc = json::Value::Parse(
                 R"({"seed": 42, "ecc_ce_per_burst": 0.125,
                     "ecc_ue_per_burst": 0.25, "hang_per_job": 0.5,
                     "stall_per_burst": 0.0625, "corrupt_per_flush": 1.0,
                     "drop_per_completion": 0.75})")
                 .ValueOrDie();
  FaultPlan plan = FaultPlan::FromJson(doc).ValueOrDie();
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.ecc_ce_per_burst, 0.125);
  EXPECT_DOUBLE_EQ(plan.ecc_ue_per_burst, 0.25);
  EXPECT_DOUBLE_EQ(plan.hang_per_job, 0.5);
  EXPECT_DOUBLE_EQ(plan.stall_per_burst, 0.0625);
  EXPECT_DOUBLE_EQ(plan.corrupt_per_flush, 1.0);
  EXPECT_DOUBLE_EQ(plan.drop_per_completion, 0.75);
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlanTest, FromJsonRejectsUnknownFieldsAndBadRates) {
  auto unknown = json::Value::Parse(R"({"hang_rate": 0.5})").ValueOrDie();
  EXPECT_EQ(FaultPlan::FromJson(unknown).status().code(),
            StatusCode::kInvalidArgument);
  auto bad = json::Value::Parse(R"({"hang_per_job": 2.0})").ValueOrDie();
  EXPECT_EQ(FaultPlan::FromJson(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultPlanTest, FromJsonRejectsNonIntegerSeeds) {
  // A seed must survive the double -> uint64_t conversion exactly.
  for (const char* text : {R"({"seed": -1})", R"({"seed": 1.5})",
                           R"({"seed": 1e30})", R"({"seed": "7"})"}) {
    auto doc = json::Value::Parse(text).ValueOrDie();
    EXPECT_EQ(FaultPlan::FromJson(doc).status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
  auto max = json::Value::Parse(R"({"seed": 9007199254740992})").ValueOrDie();
  EXPECT_EQ(FaultPlan::FromJson(max).ValueOrDie().seed, 9007199254740992u);
}

TEST(FaultPlanTest, FromEnvReturnsBaseWhenNothingSet) {
  FaultPlan base;
  base.seed = 7;
  base.stall_per_burst = 0.5;
  FaultPlan got = FaultPlan::FromEnv(base).ValueOrDie();
  EXPECT_EQ(got.seed, 7u);
  EXPECT_DOUBLE_EQ(got.stall_per_burst, 0.5);
}

TEST(FaultPlanTest, EnvVariablesOverlayProgrammaticPlan) {
  FaultPlan base;
  base.seed = 7;
  base.hang_per_job = 0.25;
  ScopedEnv seed("NDP_FAULT_SEED", "99");
  ScopedEnv corrupt("NDP_FAULT_CORRUPT", "0.5");
  FaultPlan got = FaultPlan::FromEnv(base).ValueOrDie();
  EXPECT_EQ(got.seed, 99u);
  EXPECT_DOUBLE_EQ(got.corrupt_per_flush, 0.5);
  // Untouched fields keep the programmatic values.
  EXPECT_DOUBLE_EQ(got.hang_per_job, 0.25);
}

TEST(FaultPlanTest, MalformedEnvIsALoudError) {
  ScopedEnv bad("NDP_FAULT_HANG", "often");
  EXPECT_EQ(FaultPlan::FromEnv().status().code(),
            StatusCode::kInvalidArgument);
  ScopedEnv range("NDP_FAULT_DROP", "1.5");
  EXPECT_EQ(FaultPlan::FromEnv().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultPlanTest, NegativeEnvSeedIsRejected) {
  // strtoull would wrap "-1" to 2^64 - 1 without reporting an error.
  for (const char* text : {"-1", " -1"}) {
    ScopedEnv seed("NDP_FAULT_SEED", text);
    EXPECT_EQ(FaultPlan::FromEnv().status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
}

TEST(FaultPlanTest, PlanFileLoadsThenEnvOverrides) {
  std::string path = ::testing::TempDir() + "/fault_plan_test.json";
  {
    std::ofstream out(path);
    out << R"({"seed": 11, "stall_per_burst": 0.125})";
  }
  ScopedEnv plan_file("NDP_FAULT_PLAN", path);
  ScopedEnv stall("NDP_FAULT_STALL", "0.75");
  FaultPlan got = FaultPlan::FromEnv().ValueOrDie();
  EXPECT_EQ(got.seed, 11u);
  EXPECT_DOUBLE_EQ(got.stall_per_burst, 0.75);
}

TEST(FaultPlanTest, MissingPlanFileIsNotFound) {
  ScopedEnv plan_file("NDP_FAULT_PLAN", "/nonexistent/fault_plan.json");
  EXPECT_EQ(FaultPlan::FromEnv().status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ndp::fault
