#include "accel/dddg.h"

namespace ndp::accel {

Result<Dddg> Dddg::Build(const LoopKernel& kernel, uint32_t iterations) {
  std::string error;
  if (!kernel.Validate(&error)) {
    return Status::InvalidArgument("kernel '" + kernel.name + "': " + error);
  }
  if (iterations == 0) {
    return Status::InvalidArgument("iterations must be positive");
  }
  Dddg g;
  g.iterations_ = iterations;
  g.body_size_ = static_cast<uint16_t>(kernel.body.size());
  const size_t n = static_cast<size_t>(iterations) * kernel.body.size();
  g.nodes_.reserve(n);
  g.first_pred_.reserve(n + 1);
  g.first_pred_.push_back(0);
  for (uint32_t it = 0; it < iterations; ++it) {
    for (uint16_t op = 0; op < kernel.body.size(); ++op) {
      g.nodes_.push_back({it, op, kernel.body[op].code});
      for (uint16_t d : kernel.body[op].deps) {
        g.pred_ids_.push_back(g.NodeId(it, d));
      }
      if (it > 0) {
        for (uint16_t d : kernel.body[op].carried_deps) {
          g.pred_ids_.push_back(g.NodeId(it - 1, d));
        }
      }
      g.first_pred_.push_back(static_cast<uint32_t>(g.pred_ids_.size()));
    }
  }
  return g;
}

}  // namespace ndp::accel
