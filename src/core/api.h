// Umbrella header: the public API of the JAFAR-NDP library.
//
// Typical use (see examples/quickstart.cc):
//
//   ndp::core::SystemModel sys(ndp::core::PlatformConfig::Gem5());
//   ndp::db::Column col = ...;                       // your data
//   auto cpu = sys.RunCpuSelect(col, lo, hi, ndp::db::SelectMode::kBranching);
//   auto ndp = sys.RunJafarSelect(col, lo, hi);
//   double speedup = double(cpu.ValueOrDie().duration_ps) /
//                    double(ndp.ValueOrDie().duration_ps);
#pragma once

#include "core/platform.h"    // IWYU pragma: export
#include "core/profiling.h"   // IWYU pragma: export
#include "core/pushdown.h"    // IWYU pragma: export
#include "core/system.h"      // IWYU pragma: export
#include "db/operators.h"     // IWYU pragma: export
#include "db/table.h"         // IWYU pragma: export
#include "db/tpch.h"          // IWYU pragma: export
#include "db/tpch_queries.h"  // IWYU pragma: export
#include "jafar/driver.h"     // IWYU pragma: export
