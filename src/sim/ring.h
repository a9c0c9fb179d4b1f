// Fixed-capacity FIFO ring over preallocated slots, for callers that must
// shed rather than buffer: TryPush refuses when the ring is full instead of
// growing. The serving ingress keeps one per simulated core so a traffic
// burst hits a hard boundary at the door, never a heap allocation.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/macros.h"

namespace ndp::sim {

template <typename T>
class Ring {
 public:
  explicit Ring(size_t capacity_pow2)
      : slots_(capacity_pow2), mask_(capacity_pow2 - 1) {
    NDP_CHECK_MSG(capacity_pow2 >= 2 && (capacity_pow2 & mask_) == 0,
                  "ring capacity must be a power of two");
  }

  /// Returns false, leaving the ring unchanged, when it is full.
  bool TryPush(T value) {
    if (head_ - tail_ == slots_.size()) return false;
    slots_[head_++ & mask_] = std::move(value);
    return true;
  }

  /// Pops in FIFO order; returns false when the ring is empty.
  bool Pop(T* out) {
    if (head_ == tail_) return false;
    *out = std::move(slots_[tail_++ & mask_]);
    return true;
  }

 private:
  std::vector<T> slots_;
  size_t mask_;
  size_t head_ = 0;  ///< total pushes
  size_t tail_ = 0;  ///< total pops
};

}  // namespace ndp::sim
