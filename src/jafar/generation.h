// Device generations. The JAFAR shell (job admission, driver protocol,
// watchdog/retry/checksum, runtime lanes) is generation-neutral; what differs
// between generations is the datapath — where the comparators sit and which
// DRAM command flow feeds them. The generation is a first-class config field
// that flows from PlatformConfig/RuntimeConfig down to the Device constructor
// and up to the pushdown cost model.
#pragma once

#include <cstdint>
#include <string>

#include "util/status.h"

namespace ndp::jafar {

enum class DeviceGeneration : uint8_t {
  /// The source paper's datapath: one comparator stream at the DIMM IO
  /// buffer, fed by ordinary rank reads over the shared IO bus.
  kV1RankIo,
  /// Membrane-style bank-level filtering: one comparator per bank, fed by
  /// filter-mode reads that never leave the bank; match bits accumulate per
  /// bank and drain over the per-rank result bus on precharge.
  kV2BankLevel,
};

const char* DeviceGenerationToString(DeviceGeneration gen);

/// All valid generation names, comma-separated (for error messages and the
/// README knob table).
const char* DeviceGenerationNames();

/// Strict parse: exactly one of the valid names, else InvalidArgument whose
/// message lists them.
Result<DeviceGeneration> ParseDeviceGeneration(const std::string& name);

}  // namespace ndp::jafar
