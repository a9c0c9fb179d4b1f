#include "fault/fault_plan.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ndp::fault {

namespace {

Status CheckProbability(const char* name, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be a probability in [0, 1]");
  }
  return Status::OK();
}

/// Strict full-string parse (mirrors bench_util's EnvDouble discipline: a
/// typo must fail loudly, not silently configure a different campaign).
Result<double> ParseDouble(const char* name, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty() || errno == ERANGE) {
    return Status::InvalidArgument(std::string(name) + "='" + text +
                                   "' is not a number");
  }
  return v;
}

Result<uint64_t> ParseU64(const char* name, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  uint64_t v = std::strtoull(text.c_str(), &end, 10);
  // strtoull legally wraps a leading '-' instead of failing; reject it too.
  if (end != text.c_str() + text.size() || text.empty() || errno == ERANGE ||
      text.find('-') != std::string::npos) {
    return Status::InvalidArgument(std::string(name) + "='" + text +
                                   "' is not an unsigned integer");
  }
  return v;
}

/// Overlays one env-var probability onto `field` when the variable is set.
Status OverlayEnvRate(const char* name, double* field) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return Status::OK();
  auto v = ParseDouble(name, raw);
  NDP_RETURN_NOT_OK(v.status());
  NDP_RETURN_NOT_OK(CheckProbability(name, v.value()));
  *field = v.value();
  return Status::OK();
}

}  // namespace

Status FaultPlan::Validate() const {
  NDP_RETURN_NOT_OK(CheckProbability("ecc_ce_per_burst", ecc_ce_per_burst));
  NDP_RETURN_NOT_OK(CheckProbability("ecc_ue_per_burst", ecc_ue_per_burst));
  NDP_RETURN_NOT_OK(CheckProbability("hang_per_job", hang_per_job));
  NDP_RETURN_NOT_OK(CheckProbability("stall_per_burst", stall_per_burst));
  NDP_RETURN_NOT_OK(CheckProbability("corrupt_per_flush", corrupt_per_flush));
  NDP_RETURN_NOT_OK(
      CheckProbability("drop_per_completion", drop_per_completion));
  return Status::OK();
}

Result<FaultPlan> FaultPlan::FromJson(const json::Value& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("fault plan must be a JSON object");
  }
  FaultPlan plan;
  for (const auto& [key, value] : v.members()) {
    if (key == "seed") {
      // JSON numbers are doubles: only integers up to 2^53 convert exactly,
      // and casting a negative or out-of-range double is undefined.
      const double seed = value.is_number() ? value.AsNumber() : -1.0;
      if (!(seed >= 0.0 && seed <= 9007199254740992.0 &&
            seed == std::floor(seed))) {
        return Status::InvalidArgument(
            "fault plan 'seed' must be an integer in [0, 2^53]");
      }
      plan.seed = static_cast<uint64_t>(seed);
      continue;
    }
    double* field = nullptr;
    if (key == "ecc_ce_per_burst") field = &plan.ecc_ce_per_burst;
    else if (key == "ecc_ue_per_burst") field = &plan.ecc_ue_per_burst;
    else if (key == "hang_per_job") field = &plan.hang_per_job;
    else if (key == "stall_per_burst") field = &plan.stall_per_burst;
    else if (key == "corrupt_per_flush") field = &plan.corrupt_per_flush;
    else if (key == "drop_per_completion") field = &plan.drop_per_completion;
    if (field == nullptr) {
      return Status::InvalidArgument("unknown fault plan field '" + key + "'");
    }
    if (!value.is_number()) {
      return Status::InvalidArgument("fault plan '" + key +
                                     "' must be a number");
    }
    *field = value.AsNumber();
  }
  NDP_RETURN_NOT_OK(plan.Validate());
  return plan;
}

Result<FaultPlan> FaultPlan::FromEnv() { return FromEnv(FaultPlan{}); }

Result<FaultPlan> FaultPlan::FromEnv(FaultPlan base) {
  if (const char* path = std::getenv("NDP_FAULT_PLAN")) {
    std::ifstream in(path);
    if (!in) {
      return Status::NotFound(std::string("NDP_FAULT_PLAN file '") + path +
                              "' cannot be read");
    }
    std::ostringstream text;
    text << in.rdbuf();
    NDP_ASSIGN_OR_RETURN(json::Value doc, json::Value::Parse(text.str()));
    NDP_ASSIGN_OR_RETURN(base, FromJson(doc));
  }
  if (const char* raw = std::getenv("NDP_FAULT_SEED")) {
    NDP_ASSIGN_OR_RETURN(base.seed, ParseU64("NDP_FAULT_SEED", raw));
  }
  NDP_RETURN_NOT_OK(
      OverlayEnvRate("NDP_FAULT_ECC_CE", &base.ecc_ce_per_burst));
  NDP_RETURN_NOT_OK(
      OverlayEnvRate("NDP_FAULT_ECC_UE", &base.ecc_ue_per_burst));
  NDP_RETURN_NOT_OK(OverlayEnvRate("NDP_FAULT_HANG", &base.hang_per_job));
  NDP_RETURN_NOT_OK(OverlayEnvRate("NDP_FAULT_STALL", &base.stall_per_burst));
  NDP_RETURN_NOT_OK(
      OverlayEnvRate("NDP_FAULT_CORRUPT", &base.corrupt_per_flush));
  NDP_RETURN_NOT_OK(
      OverlayEnvRate("NDP_FAULT_DROP", &base.drop_per_completion));
  NDP_RETURN_NOT_OK(base.Validate());
  return base;
}

}  // namespace ndp::fault
