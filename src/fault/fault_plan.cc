#include "fault/fault_plan.h"

#include <string>

namespace ndp::fault {

namespace {

Status CheckProbability(const char* name, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be a probability in [0, 1]");
  }
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

}  // namespace ndp::fault
