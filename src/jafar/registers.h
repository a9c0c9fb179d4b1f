// Memory-mapped control-register block of a JAFAR unit (§2.2: "The CPU
// controls the operation of JAFAR via memory-mapped accelerator control
// registers and is currently notified of JAFAR operation completion by
// polling a shared memory location"). The driver writes the job description
// into these registers and then writes kGo to COMMAND; STATUS transitions
// BUSY -> DONE, and the same value is mirrored to the completion address for
// CPU polling.
#pragma once

#include <array>
#include <cstdint>

namespace ndp::jafar {

/// Register indices within the block (each register is 64 bits).
enum class Reg : uint32_t {
  kCommand = 0,    ///< write kGo* to launch
  kStatus,         ///< kIdle / kBusy / kDone / kError
  kColBase,        ///< input column/tuple physical base address
  kNumRows,        ///< rows (or tuples) to process
  kCompareOp,      ///< CompareOp for selects
  kRangeLow,
  kRangeHigh,
  kOutBase,        ///< output bitmap / result physical base address
  kFlagAddr,       ///< completion-poll address (0 = none)
  kAux0,           ///< aggregate kind / tuple_bytes / bitmap base
  kAux1,
  kNumRegisters,
};

/// COMMAND values: JobDescriptor's alternative index + 1 (jobs.h).
enum class Command : uint64_t {
  kNop = 0,
  kGoSelect = 1,
  kGoAggregate = 2,
  kGoProject = 3,
  kGoRowStore = 4,
  kGoSort = 5,
  kGoGroupBy = 6,
  kGoProbe = 7,
};

/// STATUS values.
enum class DeviceStatus : uint64_t { kIdle = 0, kBusy = 1, kDone = 2, kError = 3 };

/// \brief A plain register file; the Driver is its bus master.
class ControlRegisters {
 public:
  uint64_t Read(Reg r) const { return regs_[static_cast<uint32_t>(r)]; }
  void Write(Reg r, uint64_t v) { regs_[static_cast<uint32_t>(r)] = v; }

 private:
  std::array<uint64_t, static_cast<uint32_t>(Reg::kNumRegisters)> regs_ = {};
};

}  // namespace ndp::jafar
