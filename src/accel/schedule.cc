#include "accel/schedule.h"

#include <algorithm>
#include <cstdio>
#include <queue>
#include <utility>
#include <vector>

#include "util/macros.h"

namespace ndp::accel {

std::string ScheduleResult::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cycles=%llu ii=%.3f words/cycle=%.3f ops=%llu energy=%.1f fJ",
                static_cast<unsigned long long>(total_cycles), steady_state_ii,
                words_per_cycle, static_cast<unsigned long long>(num_ops),
                dynamic_energy_fj);
  return buf;
}

Result<ScheduleResult> ScheduleKernel(const LoopKernel& kernel,
                                      const DatapathResources& resources,
                                      uint32_t iterations) {
  if (iterations < 2) {
    return Status::InvalidArgument("need >= 2 iterations to measure II");
  }
  std::vector<uint8_t> op_class;  // resource class of each body op
  op_class.reserve(kernel.body.size());
  for (const IrOp& op : kernel.body) {
    Resource r = ResourceFor(op.code);
    if (resources.CountFor(r) == 0) {
      return Status::FailedPrecondition(
          "kernel '" + kernel.name + "' needs a functional unit of class " +
          std::to_string(static_cast<int>(r)) + " but the datapath has none");
    }
    op_class.push_back(static_cast<uint8_t>(r));
  }
  NDP_ASSIGN_OR_RETURN(Dddg g, Dddg::Build(kernel, iterations));

  // Every latency is at least one cycle, so an op never becomes ready in the
  // cycle its producer issues. Aladdin's breadth-first cycle-by-cycle
  // traversal is then a list scheduler: each cycle, every resource class
  // issues its lowest-id (program-order) ready ops, up to its unit count. The
  // ops that lose a structural hazard simply stay in their class's ready
  // heap, so each node is pushed and popped once: O(n log n) in total.
  const auto& nodes = g.nodes();
  const size_t n = nodes.size();
  constexpr size_t kClasses = 5;
  uint32_t units[kClasses];
  for (size_t r = 0; r < kClasses; ++r) {
    units[r] = resources.CountFor(static_cast<Resource>(r));
  }

  // Successor lists, flattened: node i's successors are
  // succs[first_succ[i] .. first_succ[i + 1]). Counting into first_succ[p]
  // and taking the inclusive prefix sum leaves each entry at the end of its
  // run; filling backwards walks it down to the start.
  std::vector<uint32_t> pending_preds(n);
  std::vector<uint32_t> first_succ(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    pending_preds[i] = static_cast<uint32_t>(g.preds(i).size());
    for (uint32_t p : g.preds(i)) ++first_succ[p];
  }
  for (size_t i = 1; i <= n; ++i) first_succ[i] += first_succ[i - 1];
  std::vector<uint32_t> succs(first_succ[n]);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t p : g.preds(i)) {
      succs[--first_succ[p]] = static_cast<uint32_t>(i);
    }
  }

  // Nodes whose producers have issued, keyed by the cycle they may first
  // issue (ties by id), and per class the ready nodes in id order.
  using Entry = std::pair<uint64_t, uint32_t>;  // (ready cycle, node id)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> future;
  using IdHeap =
      std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>>;
  IdHeap ready[kClasses];

  // Non-pipelined datapaths: iteration i becomes eligible once iteration i-1
  // has fully issued and its last op has finished. Until then its ready
  // nodes wait here with the cycle their producers allowed.
  const uint32_t body = g.body_size();
  std::vector<uint64_t> iter_finish(g.iterations(), 0);
  std::vector<uint32_t> iter_remaining(g.iterations(), body);
  std::vector<uint64_t> held_since(resources.pipelined ? 0 : n, 0);
  auto release = [&](uint32_t id, uint64_t at) {
    const uint32_t it = nodes[id].iteration;
    if (resources.pipelined || it == 0) {
      future.emplace(at, id);
    } else if (iter_remaining[it - 1] > 0) {
      held_since[id] = at;
    } else {
      future.emplace(std::max(at, iter_finish[it - 1]), id);
    }
  };
  for (size_t i = 0; i < n; ++i) {
    if (pending_preds[i] == 0) release(static_cast<uint32_t>(i), 0);
  }

  uint64_t busy_slots[kClasses] = {};
  double energy = 0.0;
  uint64_t scheduled = 0;
  uint64_t makespan = 0;
  uint64_t cycle = 0;
  while (scheduled < n) {
    while (!future.empty() && future.top().first <= cycle) {
      const uint32_t id = future.top().second;
      future.pop();
      ready[op_class[nodes[id].op_index]].push(id);
    }
    bool waiting = false;
    for (size_t r = 0; r < kClasses; ++r) {
      for (uint32_t u = 0; u < units[r] && !ready[r].empty(); ++u) {
        const uint32_t id = ready[r].top();
        ready[r].pop();
        const DddgNode& node = nodes[id];
        const uint64_t f = cycle + LatencyFor(node.code);
        ++busy_slots[r];
        makespan = std::max(makespan, f);
        energy += EnergyFemtojoulesFor(node.code);
        ++scheduled;
        for (uint32_t k = first_succ[id]; k < first_succ[id + 1]; ++k) {
          if (--pending_preds[succs[k]] == 0) release(succs[k], f);
        }
        uint64_t& itf = iter_finish[node.iteration];
        itf = std::max(itf, f);
        if (--iter_remaining[node.iteration] == 0 && !resources.pipelined &&
            node.iteration + 1 < g.iterations()) {
          // The barrier lifts: release the next iteration's held nodes.
          for (uint16_t op = 0; op < body; ++op) {
            const uint32_t next = g.NodeId(node.iteration + 1, op);
            if (pending_preds[next] == 0) {
              future.emplace(std::max(held_since[next], itf), next);
            }
          }
        }
      }
      waiting |= !ready[r].empty();
    }
    if (waiting) {
      ++cycle;
    } else if (!future.empty()) {
      cycle = future.top().first;
    } else {
      break;
    }
  }
  NDP_CHECK_MSG(scheduled == n, "scheduler deadlock: cyclic dependence?");

  ScheduleResult result;
  result.total_cycles = makespan;
  result.num_ops = n;
  result.dynamic_energy_fj = energy;

  // Steady-state II from the completion times of the last iterations.
  const uint32_t half = g.iterations() / 2;
  const uint64_t mid_finish = iter_finish[half];
  const uint64_t last_finish = iter_finish[g.iterations() - 1];
  result.steady_state_ii = static_cast<double>(last_finish - mid_finish) /
                           static_cast<double>(g.iterations() - 1 - half);

  uint32_t loads_per_iter = 0;
  for (const IrOp& op : kernel.body) {
    if (op.code == OpCode::kLoad) ++loads_per_iter;
  }
  result.words_per_cycle =
      result.steady_state_ii > 0
          ? static_cast<double>(loads_per_iter) / result.steady_state_ii
          : 0.0;

  for (size_t r = 0; r < kClasses; ++r) {
    if (busy_slots[r] == 0) continue;
    double capacity = static_cast<double>(units[r]) *
                      static_cast<double>(std::max<uint64_t>(1, makespan));
    result.utilization[static_cast<Resource>(r)] =
        static_cast<double>(busy_slots[r]) / capacity;
  }
  return result;
}

DatapathSummary DatapathSummary::FromSchedule(const LoopKernel& kernel,
                                              const ScheduleResult& result) {
  DatapathSummary s;
  s.kernel_name = kernel.name;
  s.words_per_cycle = result.words_per_cycle;
  s.steady_state_ii = result.steady_state_ii;
  uint64_t loads = 0;
  for (const IrOp& op : kernel.body) {
    if (op.code == OpCode::kLoad) ++loads;
  }
  uint64_t iters = result.num_ops / std::max<size_t>(1, kernel.body.size());
  uint64_t words = loads * iters;
  s.energy_per_word_fj =
      words ? result.dynamic_energy_fj / static_cast<double>(words) : 0.0;
  return s;
}

}  // namespace ndp::accel
