#include "core/pushdown.h"

namespace ndp::core {

double CostModel::CpuSelectPs(const PlatformConfig& p, uint64_t rows,
                              double selectivity) {
  double cycle_ps = static_cast<double>(p.core.clock.period_ps());
  // Pipeline cost: ~7 µops/row at the issue width, plus bookkeeping for
  // qualifying rows and the mispredict tax (2p(1-p) of the penalty).
  double uops_per_row = 7.0 + 3.0 * selectivity;
  double pipeline = uops_per_row / p.core.issue_width +
                    2.0 * selectivity * (1.0 - selectivity) *
                        p.core.branch.mispredict_penalty_cycles;
  // Memory: one line fill per 8 rows, overlapped up to the L1 MSHR count but
  // ultimately bounded by one burst per tCCD on the channel.
  double line_fill_ps = static_cast<double>(p.dram_timing.tccd) *
                        static_cast<double>(p.dram_timing.tck_ps);
  double mem_per_row = line_fill_ps / 8.0;
  // Without prefetching the demand-miss latency is only partially hidden;
  // charge a latency term divided by the achievable MLP.
  double miss_ps = static_cast<double>(p.dram_timing.trcd + p.dram_timing.cl +
                                       p.dram_timing.tburst) *
                   static_cast<double>(p.dram_timing.tck_ps) / 4.0;
  bool prefetching = false;
  for (const auto& c : p.caches) prefetching |= c.prefetch_degree > 0;
  double latency_per_row = prefetching ? 0.0 : miss_ps / 8.0;
  return static_cast<double>(rows) *
         (pipeline * cycle_ps + std::max(mem_per_row, latency_per_row));
}

double CostModel::JafarSelectPs(const PlatformConfig& p, uint64_t rows) {
  double bus_ps = static_cast<double>(p.dram_timing.tck_ps);
  // One 8-word burst per tCCD, plus ~1/128 activations per burst and the
  // bitmap write-back (1 burst per 512 rows).
  double bursts = static_cast<double>(rows) / 8.0;
  double read_ps = bursts * p.dram_timing.tccd * bus_ps;
  double act_ps = bursts / 128.0 *
                  static_cast<double>(p.dram_timing.trcd + p.dram_timing.trp) *
                  bus_ps;
  double writeback_ps = static_cast<double>(rows) / 512.0 *
                        p.dram_timing.tccd * bus_ps;
  // Ownership hand-off + per-page invocation overhead.
  double ownership_ps = 2.0 * (p.dram_timing.tmrd + 8.0) * bus_ps;
  double pages = static_cast<double>(rows) * 8.0 / 4096.0;
  double invocation_ps = pages * 64.0 * bus_ps / 2.0;
  if (p.device_gen == jafar::DeviceGeneration::kV2BankLevel) {
    // Bank-level filtering: the per-bank comparator is an area-constrained
    // slice running at roughly half the IO burst rate, but banks_per_rank of
    // them stream concurrently and their reads never touch the data bus; in
    // exchange every row segment pays ARM/ACT/DISARM plus an accumulator
    // drain on the shared result bus (one cycle per 64 match bits), and the
    // device batches one row per bank into each invocation.
    double banks = static_cast<double>(p.dram_org.banks_per_rank);
    double row_bytes = static_cast<double>(p.dram_org.row_size_bytes);
    double filter_read_ps = bursts * 2.0 * p.dram_timing.tccd * bus_ps / banks;
    double segments = static_cast<double>(rows) * 8.0 / row_bytes;
    double drain_cycles = row_bytes / 8.0 / 64.0;
    double segment_ps = segments * (2.0 + drain_cycles) * bus_ps;
    double jobs = static_cast<double>(rows) * 8.0 / (banks * row_bytes);
    double invocation_v2_ps = jobs * 64.0 * bus_ps / 2.0;
    return filter_read_ps + act_ps + segment_ps + writeback_ps +
           ownership_ps + invocation_v2_ps;
  }
  return read_ps + act_ps + writeback_ps + ownership_ps + invocation_ps;
}

PushdownDecision PushdownPlanner::Decide(uint64_t rows,
                                         double selectivity) const {
  PushdownDecision d;
  const PlatformConfig& p = system_->config();
  d.cpu_estimate_ps = CostModel::CpuSelectPs(p, rows, selectivity);
  d.jafar_estimate_ps = CostModel::JafarSelectPs(p, rows);
  if (rows * 8 < 2 * 4096) {
    d.use_jafar = false;
    d.reason = "column smaller than two pages: invocation overhead dominates";
    return d;
  }
  d.use_jafar = d.jafar_estimate_ps < d.cpu_estimate_ps;
  d.reason = d.use_jafar ? "JAFAR estimate lower" : "CPU estimate lower";
  return d;
}

Status ValidatePushdownResult(const db::PositionList& positions,
                              uint64_t num_rows) {
  // A bitmap-derived result is strictly increasing and in range by
  // construction; anything else means a faulted/partial device result leaked
  // through recovery, and must be rejected (the caller re-runs on the CPU)
  // rather than silently double-counting rows.
  uint64_t prev = 0;
  bool first = true;
  for (uint32_t p : positions) {
    if (p >= num_rows || (!first && p <= prev)) {
      return Status::Internal(
          "pushdown result hygiene: positions not strictly increasing/in "
          "range — discarding partial device result");
    }
    prev = p;
    first = false;
  }
  return Status::OK();
}

Status PredToJafarRange(const db::Pred& pred, int64_t* lo, int64_t* hi) {
  switch (pred.op) {
    case db::Pred::Op::kBetween: *lo = pred.lo; *hi = pred.hi; break;
    case db::Pred::Op::kEq: *lo = pred.lo; *hi = pred.lo; break;
    case db::Pred::Op::kLe: *lo = INT64_MIN; *hi = pred.lo; break;
    case db::Pred::Op::kLt: *lo = INT64_MIN; *hi = pred.lo - 1; break;
    case db::Pred::Op::kGe: *lo = pred.lo; *hi = INT64_MAX; break;
    case db::Pred::Op::kGt: *lo = pred.lo + 1; *hi = INT64_MAX; break;
    default:
      return Status::Unimplemented("predicate not supported by JAFAR");
  }
  return Status::OK();
}

void PushdownPlanner::Install(db::QueryContext* ctx,
                              double default_selectivity) {
  db::NdpSelectHook raw = system_->MakePushdownHook();
  ctx->ndp_select = [this, raw, default_selectivity](
                        const db::Column& col,
                        const db::Pred& pred) -> Result<db::PositionList> {
    PushdownDecision d = Decide(col.size(), default_selectivity);
    if (!d.use_jafar) {
      return Status::FailedPrecondition("planner: " + d.reason);
    }
    NDP_ASSIGN_OR_RETURN(db::PositionList positions, raw(col, pred));
    NDP_RETURN_NOT_OK(ValidatePushdownResult(positions, col.size()));
    return positions;
  };
}

}  // namespace ndp::core
