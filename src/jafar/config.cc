#include "jafar/config.h"

#include <algorithm>
#include <cmath>

#include "jafar/jobs.h"
#include "util/macros.h"

namespace ndp::jafar {

DeviceConfig DeviceConfig::FromDatapath(const accel::DatapathSummary& datapath,
                                        const dram::DramTiming& timing) {
  DeviceConfig cfg;
  cfg.clock = sim::ClockDomain(timing.tck_ps / 2);  // 2x the data bus clock
  cfg.words_per_cycle = datapath.words_per_cycle;
  cfg.energy_per_word_fj = datapath.energy_per_word_fj;
  return cfg;
}

namespace {

/// Schedules the kProbeHashes-lane probe kernel on `resources`, widened to
/// at least one multiplier: the baseline select datapath carries none, and
/// the probe engine's hash lanes are exactly the hardware a probe-capable
/// generation adds. Mirrors the select derivation — the rate is scheduled,
/// never picked.
Result<accel::DatapathSummary> ScheduleProbe(
    const accel::DatapathResources& resources) {
  accel::DatapathResources probe_res = resources;
  probe_res.multipliers = std::max(1u, resources.multipliers);
  accel::LoopKernel kernel = accel::MakeProbeKernel(kProbeHashes);
  NDP_ASSIGN_OR_RETURN(accel::ScheduleResult sched,
                       accel::ScheduleKernel(kernel, probe_res, 128));
  return accel::DatapathSummary::FromSchedule(kernel, sched);
}

}  // namespace

Result<DeviceConfig> DeviceConfig::Derive(
    const dram::DramTiming& timing, const accel::DatapathResources& resources) {
  accel::LoopKernel kernel = accel::MakeSelectKernel();
  NDP_ASSIGN_OR_RETURN(accel::ScheduleResult sched,
                       accel::ScheduleKernel(kernel, resources, 128));
  DeviceConfig cfg = FromDatapath(
      accel::DatapathSummary::FromSchedule(kernel, sched), timing);
  NDP_ASSIGN_OR_RETURN(accel::DatapathSummary probe,
                       ScheduleProbe(resources));
  cfg.probe_words_per_cycle = probe.words_per_cycle;
  cfg.probe_energy_per_word_fj = probe.energy_per_word_fj;
  return cfg;
}

Result<DeviceConfig> DeviceConfig::DeriveBank(
    const dram::DramTiming& timing, const dram::DramOrganization& org,
    const accel::DatapathResources& rank_resources) {
  NDP_ASSIGN_OR_RETURN(DeviceConfig cfg, Derive(timing, rank_resources));
  cfg.generation = DeviceGeneration::kV2BankLevel;

  // Per-bank comparator: an area-constrained slice of the rank datapath (one
  // ALU, a quarter of the bit units, single memory port — the comparator sits
  // in each bank's peripheral logic where area is scarce). Scheduling the
  // same select kernel on the narrowed resources yields the per-bank rate.
  accel::DatapathResources bank_res = rank_resources;
  bank_res.alus = 1;
  bank_res.bit_units = std::max(1u, rank_resources.bit_units / 4);
  bank_res.mem_read_ports = 1;
  bank_res.mem_write_ports = 1;
  accel::LoopKernel kernel = accel::MakeSelectKernel();
  NDP_ASSIGN_OR_RETURN(accel::ScheduleResult sched,
                       accel::ScheduleKernel(kernel, bank_res, 128));
  accel::DatapathSummary bank =
      accel::DatapathSummary::FromSchedule(kernel, sched);
  cfg.bank_words_per_cycle = bank.words_per_cycle;
  cfg.bank_energy_per_word_fj = bank.energy_per_word_fj;
  NDP_ASSIGN_OR_RETURN(accel::DatapathSummary bank_probe,
                       ScheduleProbe(bank_res));
  cfg.bank_probe_words_per_cycle = bank_probe.words_per_cycle;
  cfg.bank_probe_energy_per_word_fj = bank_probe.energy_per_word_fj;

  // Command-flow timing in bus-clock cycles (JAFAR clock = 2x the bus clock,
  // so two JAFAR cycles fit per bus cycle).
  const uint32_t words_per_burst = org.BytesPerBurst() / cfg.elem_bytes;
  const uint64_t jafar_cycles_per_burst = static_cast<uint64_t>(
      std::ceil(static_cast<double>(words_per_burst) / bank.words_per_cycle));
  const uint32_t bus_cycles_per_burst =
      static_cast<uint32_t>((jafar_cycles_per_burst + 1) / 2);
  // RD pacing: the comparator must finish one burst before taking the next.
  cfg.bank_filter.min_rd_spacing_cycles = std::max(1u, bus_cycles_per_burst);
  // RD to last match bit latched: internal CAS plus the comparator pipeline.
  cfg.bank_filter.fill_latency_cycles = timing.cl + bus_cycles_per_burst;
  // Accumulator drain: one match bit per row element, 64 bits of result bus
  // per cycle.
  const uint32_t row_elems = org.row_size_bytes / cfg.elem_bytes;
  cfg.bank_filter.drain_cycles = std::max(1u, row_elems / 64);
  // One invocation must span a whole wave — one row in every bank — or the
  // per-bank chains degenerate to one segment per job and never overlap.
  cfg.scan_chunk_bytes =
      static_cast<uint64_t>(org.banks_per_rank) * org.row_size_bytes;
  return cfg;
}

uint64_t DeviceConfig::SortBlockCycles(uint32_t elems) const {
  NDP_CHECK(sort_comparators > 0);
  if (elems <= 1) return 1;
  // Round up to the next power of two (the network's natural size).
  uint32_t n = 1;
  uint32_t log2n = 0;
  while (n < elems) {
    n <<= 1;
    ++log2n;
  }
  uint64_t stages = static_cast<uint64_t>(log2n) * (log2n + 1) / 2;
  uint64_t exchanges_per_stage = n / 2;
  uint64_t cycles_per_stage =
      (exchanges_per_stage + sort_comparators - 1) / sort_comparators;
  return stages * cycles_per_stage;
}

sim::Tick DeviceConfig::BurstProcessingPs(uint32_t words) const {
  NDP_CHECK(words_per_cycle > 0);
  double cycles = std::ceil(static_cast<double>(words) / words_per_cycle);
  return static_cast<sim::Tick>(cycles) * clock.period_ps();
}

sim::Tick DeviceConfig::BankBurstProcessingPs(uint32_t words) const {
  NDP_CHECK(bank_words_per_cycle > 0);
  double cycles = std::ceil(static_cast<double>(words) / bank_words_per_cycle);
  return static_cast<sim::Tick>(cycles) * clock.period_ps();
}

sim::Tick DeviceConfig::ProbeBurstProcessingPs(uint32_t words) const {
  NDP_CHECK(probe_words_per_cycle > 0);
  double cycles = std::ceil(static_cast<double>(words) / probe_words_per_cycle);
  return static_cast<sim::Tick>(cycles) * clock.period_ps();
}

sim::Tick DeviceConfig::BankProbeBurstProcessingPs(uint32_t words) const {
  NDP_CHECK(bank_probe_words_per_cycle > 0);
  double cycles =
      std::ceil(static_cast<double>(words) / bank_probe_words_per_cycle);
  return static_cast<sim::Tick>(cycles) * clock.period_ps();
}

}  // namespace ndp::jafar
