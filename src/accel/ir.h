// Kernel IR for the pre-RTL accelerator model (Aladdin stand-in, paper §3.1).
// A kernel is the body of one loop iteration expressed as a list of typed
// operations with explicit intra-iteration and loop-carried dependences —
// the "C-style representation of the workload being accelerated" that Aladdin
// converts into a dynamic data dependence graph.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ndp::accel {

/// Operation classes. Each maps to a functional-unit resource class.
enum class OpCode : uint8_t {
  kLoad,      ///< read one word from the DRAM IO buffer
  kStore,     ///< write one word toward DRAM
  kCmp,       ///< integer comparison (ALU)
  kAdd,       ///< integer add/sub (ALU)
  kMul,       ///< integer multiply (multiplier)
  kBitOp,     ///< and/or/shift/bit-insert (combinational bit logic)
  kMux,       ///< select (combinational)
};

// ndp-lint: test-only-ok names ops in test failure messages
const char* OpCodeToString(OpCode code);

/// Functional-unit resource classes the scheduler arbitrates.
enum class Resource : uint8_t { kMemRead, kMemWrite, kAlu, kMultiplier, kBitLogic };

Resource ResourceFor(OpCode code);
/// Execution latency in accelerator cycles.
uint32_t LatencyFor(OpCode code);
/// Dynamic energy per operation, in femtojoules (coarse 40 nm-class numbers).
double EnergyFemtojoulesFor(OpCode code);

/// \brief One operation in the loop body.
struct IrOp {
  OpCode code;
  std::string label;
  /// Indices (into the body) of same-iteration producers this op consumes.
  std::vector<uint16_t> deps;
  /// Indices of previous-iteration producers (loop-carried dependences).
  std::vector<uint16_t> carried_deps;
};

/// \brief A loop kernel: the unit Aladdin models.
struct LoopKernel {
  std::string name;
  std::vector<IrOp> body;

  /// Validates dependence indices (same-iteration deps must point backwards).
  bool Validate(std::string* error) const;
};

/// Hardware resources available to the datapath.
struct DatapathResources {
  uint32_t mem_read_ports = 1;   ///< words per cycle from the IO buffer
  uint32_t mem_write_ports = 1;  ///< words per cycle toward DRAM
  uint32_t alus = 2;             ///< the paper's two parallel ALUs (§2.2)
  uint32_t multipliers = 0;
  uint32_t bit_units = 8;  ///< cheap combinational logic + the offset counter
  bool pipelined = true;  ///< successive iterations may overlap

  uint32_t CountFor(Resource r) const {
    switch (r) {
      case Resource::kMemRead: return mem_read_ports;
      case Resource::kMemWrite: return mem_write_ports;
      case Resource::kAlu: return alus;
      case Resource::kMultiplier: return multipliers;
      case Resource::kBitLogic: return bit_units;
    }
    return 0;
  }
};

// -- Kernel library: the datapaths JAFAR implements ---------------------------

/// The select/filter kernel of §2.2: per 64-bit word, two parallel range
/// compares, an AND, and a bit-insert into the output buffer, plus the carried
/// row-offset increment.
LoopKernel MakeSelectKernel();

/// §4 "Aggregations": sum/min/max via a loop-carried accumulator.
// ndp-lint: test-only-ok the engine-rate derivation (ROADMAP) will schedule it
LoopKernel MakeAggregateKernel();

/// §4 "Projections": stream words, select those whose position bit is set,
/// and emit them (load + bit-test + mux + store).
// ndp-lint: test-only-ok the engine-rate derivation (ROADMAP) will schedule it
LoopKernel MakeProjectKernel();

/// §4 row-store variant: k predicates applied to k attributes of one tuple
/// per iteration (k loads, k compares, AND-reduce, bit-insert).
// ndp-lint: test-only-ok the engine-rate derivation (ROADMAP) will schedule it
LoopKernel MakeRowStoreKernel(uint32_t num_predicates);

/// Semijoin probe (JSPIM-style): per 64-bit join key, `hash_count`
/// multiply-shift hash lanes each index the on-device Bloom filter SRAM
/// (mix → bit-index → SRAM word mux → bit test), AND-reduced into one
/// membership bit inserted into the output bitmap. Needs >= 1 multiplier;
/// the baseline select datapath has none, so probe-capable configs widen
/// the resource vector before scheduling.
LoopKernel MakeProbeKernel(uint32_t hash_count);

}  // namespace ndp::accel
