#include "accel/ir.h"

namespace ndp::accel {

const char* OpCodeToString(OpCode code) {
  switch (code) {
    case OpCode::kLoad: return "load";
    case OpCode::kStore: return "store";
    case OpCode::kCmp: return "cmp";
    case OpCode::kAdd: return "add";
    case OpCode::kMul: return "mul";
    case OpCode::kBitOp: return "bit";
    case OpCode::kMux: return "mux";
  }
  return "?";
}

Resource ResourceFor(OpCode code) {
  switch (code) {
    case OpCode::kLoad: return Resource::kMemRead;
    case OpCode::kStore: return Resource::kMemWrite;
    case OpCode::kCmp:
    case OpCode::kAdd: return Resource::kAlu;
    case OpCode::kMul: return Resource::kMultiplier;
    case OpCode::kBitOp:
    case OpCode::kMux: return Resource::kBitLogic;
  }
  return Resource::kAlu;
}

uint32_t LatencyFor(OpCode code) {
  switch (code) {
    case OpCode::kLoad: return 1;
    case OpCode::kStore: return 1;
    case OpCode::kCmp: return 1;
    case OpCode::kAdd: return 1;
    case OpCode::kMul: return 3;
    case OpCode::kBitOp: return 1;
    case OpCode::kMux: return 1;
  }
  return 1;
}

double EnergyFemtojoulesFor(OpCode code) {
  switch (code) {
    case OpCode::kLoad: return 120.0;   // IO-buffer read port
    case OpCode::kStore: return 140.0;
    case OpCode::kCmp: return 35.0;
    case OpCode::kAdd: return 40.0;
    case OpCode::kMul: return 520.0;
    case OpCode::kBitOp: return 8.0;
    case OpCode::kMux: return 6.0;
  }
  return 0.0;
}

bool LoopKernel::Validate(std::string* error) const {
  for (size_t i = 0; i < body.size(); ++i) {
    for (uint16_t d : body[i].deps) {
      if (d >= i) {
        if (error) {
          *error = "op " + std::to_string(i) + " (" + body[i].label +
                   ") has a forward/self same-iteration dependence on op " +
                   std::to_string(d);
        }
        return false;
      }
    }
    for (uint16_t d : body[i].carried_deps) {
      if (d >= body.size()) {
        if (error) {
          *error = "op " + std::to_string(i) +
                   " has an out-of-range carried dependence";
        }
        return false;
      }
    }
  }
  return true;
}

LoopKernel MakeSelectKernel() {
  LoopKernel k;
  k.name = "jafar_select_range";
  // 0: word = load(io_buffer)
  k.body.push_back({OpCode::kLoad, "load_word", {}, {}});
  // 1: ge = cmp(word, range_low)      -- ALU #1
  k.body.push_back({OpCode::kCmp, "cmp_low", {0}, {}});
  // 2: le = cmp(word, range_high)     -- ALU #2, parallel with op 1
  k.body.push_back({OpCode::kCmp, "cmp_high", {0}, {}});
  // 3: pass = ge & le
  k.body.push_back({OpCode::kBitOp, "and", {1, 2}, {}});
  // 4: out_bits = insert(out_bits, offset, pass)  -- carried output buffer
  k.body.push_back({OpCode::kBitOp, "bit_insert", {3}, {4}});
  // 5: offset = offset + 1            -- carried row offset (§2.2)
  k.body.push_back({OpCode::kBitOp, "offset_inc", {}, {5}});
  return k;
}

LoopKernel MakeAggregateKernel() {
  LoopKernel k;
  k.name = "jafar_aggregate_sum";
  k.body.push_back({OpCode::kLoad, "load_word", {}, {}});
  // acc = acc + word: loop-carried accumulate serializes on the ALU chain.
  k.body.push_back({OpCode::kAdd, "accumulate", {0}, {1}});
  return k;
}

LoopKernel MakeProjectKernel() {
  LoopKernel k;
  k.name = "jafar_project";
  k.body.push_back({OpCode::kLoad, "load_word", {}, {}});
  k.body.push_back({OpCode::kBitOp, "test_position_bit", {}, {}});
  k.body.push_back({OpCode::kMux, "select_word", {0, 1}, {}});
  k.body.push_back({OpCode::kStore, "emit", {2}, {}});
  return k;
}

LoopKernel MakeRowStoreKernel(uint32_t num_predicates) {
  LoopKernel k;
  k.name = "jafar_rowstore_select_x" + std::to_string(num_predicates);
  std::vector<uint16_t> cmp_ids;
  for (uint32_t p = 0; p < num_predicates; ++p) {
    uint16_t load_id = static_cast<uint16_t>(k.body.size());
    k.body.push_back({OpCode::kLoad, "load_attr" + std::to_string(p), {}, {}});
    k.body.push_back(
        {OpCode::kCmp, "cmp_attr" + std::to_string(p), {load_id}, {}});
    cmp_ids.push_back(static_cast<uint16_t>(k.body.size() - 1));
  }
  // AND-reduce the predicate results pairwise.
  while (cmp_ids.size() > 1) {
    std::vector<uint16_t> next;
    for (size_t i = 0; i + 1 < cmp_ids.size(); i += 2) {
      k.body.push_back({OpCode::kBitOp, "and_reduce",
                        {cmp_ids[i], cmp_ids[i + 1]}, {}});
      next.push_back(static_cast<uint16_t>(k.body.size() - 1));
    }
    if (cmp_ids.size() % 2 == 1) next.push_back(cmp_ids.back());
    cmp_ids = std::move(next);
  }
  uint16_t insert_id = static_cast<uint16_t>(k.body.size());
  k.body.push_back({OpCode::kBitOp, "bit_insert", {cmp_ids[0]}, {insert_id}});
  k.body.push_back(
      {OpCode::kBitOp, "offset_inc", {}, {static_cast<uint16_t>(insert_id + 1)}});
  return k;
}

LoopKernel MakeProbeKernel(uint32_t hash_count) {
  LoopKernel k;
  k.name = "jafar_probe_x" + std::to_string(hash_count);
  // 0: key = load(io_buffer)
  k.body.push_back({OpCode::kLoad, "load_key", {}, {}});
  std::vector<uint16_t> test_ids;
  for (uint32_t h = 0; h < hash_count; ++h) {
    // Multiply-shift hash lane: mix is the multiply, the bit-index shift and
    // mask are combinational, the SRAM word read is a wide mux over the
    // filter array, and the bit test extracts one membership bit.
    uint16_t mix_id = static_cast<uint16_t>(k.body.size());
    k.body.push_back({OpCode::kMul, "mix" + std::to_string(h), {0}, {}});
    k.body.push_back(
        {OpCode::kBitOp, "bit_index" + std::to_string(h), {mix_id}, {}});
    k.body.push_back({OpCode::kMux, "sram_word" + std::to_string(h),
                      {static_cast<uint16_t>(mix_id + 1)}, {}});
    k.body.push_back({OpCode::kCmp, "bit_test" + std::to_string(h),
                      {static_cast<uint16_t>(mix_id + 2)}, {}});
    test_ids.push_back(static_cast<uint16_t>(k.body.size() - 1));
  }
  // AND-reduce the per-hash membership bits pairwise (all must be set).
  while (test_ids.size() > 1) {
    std::vector<uint16_t> next;
    for (size_t i = 0; i + 1 < test_ids.size(); i += 2) {
      k.body.push_back({OpCode::kBitOp, "and_reduce",
                        {test_ids[i], test_ids[i + 1]}, {}});
      next.push_back(static_cast<uint16_t>(k.body.size() - 1));
    }
    if (test_ids.size() % 2 == 1) next.push_back(test_ids.back());
    test_ids = std::move(next);
  }
  uint16_t insert_id = static_cast<uint16_t>(k.body.size());
  k.body.push_back({OpCode::kBitOp, "bit_insert", {test_ids[0]}, {insert_id}});
  k.body.push_back(
      {OpCode::kBitOp, "offset_inc", {}, {static_cast<uint16_t>(insert_id + 1)}});
  return k;
}

}  // namespace ndp::accel
