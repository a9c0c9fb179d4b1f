#include "jafar/jobs.h"

#include <type_traits>

namespace ndp::jafar {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kLt: return "<";
    case CompareOp::kGt: return ">";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGe: return ">=";
    case CompareOp::kBetween: return "between";
  }
  return "?";
}

bool EvalCompare(CompareOp op, int64_t value, int64_t lo, int64_t hi) {
  switch (op) {
    case CompareOp::kEq: return value == lo;
    case CompareOp::kLt: return value < lo;
    case CompareOp::kGt: return value > lo;
    case CompareOp::kLe: return value <= lo;
    case CompareOp::kGe: return value >= lo;
    case CompareOp::kBetween: return value >= lo && value <= hi;
  }
  return false;
}

uint64_t JobRows(const JobDescriptor& job) {
  return std::visit(
      [](const auto& j) -> uint64_t {
        if constexpr (std::is_same_v<std::decay_t<decltype(j)>, RowStoreJob>) {
          return j.num_tuples;
        } else {
          return j.num_rows;
        }
      },
      job);
}

uint64_t ProbeMix64(uint64_t key, uint32_t hash_index) {
  // splitmix64 finalizer, salted per hash lane. Maps to the probe kernel's
  // kMul mix stage; the shifts/xors are the kBitOp bit-index stage.
  uint64_t x = key + 0x9E3779B97F4A7C15ull * (hash_index + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

uint64_t BloomBitIndex(uint64_t key, uint32_t hash_index,
                       uint64_t filter_words) {
  // filter_words is a power of two, so the modulo is a mask — the cheap
  // combinational form the bit-index stage implements.
  return ProbeMix64(key, hash_index) & (filter_words * 64 - 1);
}

}  // namespace ndp::jafar
