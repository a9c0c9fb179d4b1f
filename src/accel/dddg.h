// Dynamic data dependence graph: the kernel IR unrolled over concrete
// iterations, exactly as Aladdin traces a program into a DDDG before
// scheduling it onto constrained hardware (paper §3.1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "accel/ir.h"
#include "util/status.h"

namespace ndp::accel {

/// \brief One dynamic operation instance.
struct DddgNode {
  uint32_t iteration = 0;
  uint16_t op_index = 0;
  OpCode code = OpCode::kAdd;
};

/// \brief The unrolled graph.
class Dddg {
 public:
  /// Unrolls `kernel` over `iterations` iterations. Node id of (iter, op) is
  /// iter * body_size + op.
  static Result<Dddg> Build(const LoopKernel& kernel, uint32_t iterations);

  const std::vector<DddgNode>& nodes() const { return nodes_; }
  uint32_t iterations() const { return iterations_; }
  uint16_t body_size() const { return body_size_; }

  uint32_t NodeId(uint32_t iteration, uint16_t op) const {
    return iteration * body_size_ + op;
  }

  /// Node ids of `id`'s producers: same-iteration ones, then loop-carried.
  std::span<const uint32_t> preds(uint32_t id) const {
    return {pred_ids_.data() + first_pred_[id],
            pred_ids_.data() + first_pred_[id + 1]};
  }

 private:
  std::vector<DddgNode> nodes_;
  /// Every node's producers, flattened in node order: node i's are
  /// pred_ids_[first_pred_[i] .. first_pred_[i + 1]).
  std::vector<uint32_t> pred_ids_;
  std::vector<uint32_t> first_pred_;
  uint32_t iterations_ = 0;
  uint16_t body_size_ = 0;
};

}  // namespace ndp::accel
