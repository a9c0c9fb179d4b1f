// Builds a complete cache hierarchy (L1 [, L2 [, L3]]) in front of a DRAM
// port and owns all levels. Configured from core::PlatformConfig presets
// matching Table 1 of the paper.
#pragma once

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cache.h"
#include "cpu/dram_port.h"
#include "dram/dram_system.h"

namespace ndp::cpu {

/// \brief Owns the cache levels and the memory port beneath a core.
class CacheHierarchy {
 public:
  /// `levels` is ordered L1 first. `frontside_ps` is the LLC-to-controller
  /// latency (interconnect + controller pipeline). `stats` (optional) mounts
  /// each level's counters at "<prefix>.<lowercased level name>.*".
  CacheHierarchy(sim::EventQueue* eq, sim::ClockDomain cpu_clock,
                 std::vector<CacheConfig> levels, dram::DramSystem* dram,
                 sim::Tick frontside_ps, const StatsScope& stats = {})
      : port_(dram, frontside_ps) {
    MemSink* below = &port_;
    // Build from the last level upward so each cache points at the one below.
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
      std::string level_name = it->name;
      for (char& ch : level_name) ch = static_cast<char>(std::tolower(ch));
      caches_.push_back(std::make_unique<Cache>(
          eq, cpu_clock, *it, below,
          stats.Sub(level_name)));  // ndp: stats-scope(l1|l2|l3)
      below = caches_.back().get();
    }
    // caches_ is ordered LLC first; expose L1 as the top.
  }

  /// The level the core issues to.
  MemSink* top() { return caches_.empty() ? static_cast<MemSink*>(&port_)
                                          : caches_.back().get(); }

  /// Cache levels ordered L1 first.
  size_t num_levels() const { return caches_.size(); }
  Cache& level(size_t i) { return *caches_[caches_.size() - 1 - i]; }

  void InvalidateAll() {
    for (auto& c : caches_) c->InvalidateAll();
  }

 private:
  DramPort port_;
  std::vector<std::unique_ptr<Cache>> caches_;  ///< LLC first
};

}  // namespace ndp::cpu
