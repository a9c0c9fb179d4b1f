// The three workloads and the metric tables every run reports.
#pragma once

#include <memory>
#include <vector>

#include "common.h"

namespace perfbench {

std::unique_ptr<Workload> MakeServe();
std::unique_ptr<Workload> MakeTpch();
std::unique_ptr<Workload> MakeContend();

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run, in this order (BENCHMARK.json end_to_end).
extern const std::vector<MetricDef> kEndToEnd;
/// Printed by every traced run (BENCHMARK.json per_layer). A layer a
/// workload does not exercise reads 0.
extern const std::vector<MetricDef> kPerLayer;

}  // namespace perfbench
