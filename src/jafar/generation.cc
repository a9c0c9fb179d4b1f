#include "jafar/generation.h"

namespace ndp::jafar {

const char* DeviceGenerationToString(DeviceGeneration gen) {
  switch (gen) {
    case DeviceGeneration::kV1RankIo: return "v1_rank_io";
    case DeviceGeneration::kV2BankLevel: return "v2_bank_level";
  }
  return "?";
}

const char* DeviceGenerationNames() { return "v1_rank_io, v2_bank_level"; }

Result<DeviceGeneration> ParseDeviceGeneration(const std::string& name) {
  if (name == "v1_rank_io") return DeviceGeneration::kV1RankIo;
  if (name == "v2_bank_level") return DeviceGeneration::kV2BankLevel;
  return Status::InvalidArgument("unknown device generation '" + name +
                                 "' (valid: " + DeviceGenerationNames() + ")");
}

}  // namespace ndp::jafar
