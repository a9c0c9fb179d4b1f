// Set-associative write-back, write-allocate cache with MSHRs and an optional
// next-line prefetcher. Timing-only: tags and dirty bits are modeled, data
// contents live in the functional BackingStore.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpu/mem_if.h"
#include "sim/event_queue.h"
#include "util/macros.h"
#include "util/stats_registry.h"

namespace ndp::cpu {

struct CacheConfig {
  std::string name = "L1";
  uint64_t size_bytes = 64 * 1024;
  uint32_t ways = 8;
  uint32_t hit_latency_cycles = 2;   ///< in the owning clock domain
  uint32_t mshrs = 8;                ///< max outstanding line fills
  uint32_t prefetch_degree = 0;      ///< next-line prefetches per demand miss
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;           ///< demand misses that allocated an MSHR
  uint64_t mshr_merges = 0;      ///< demand misses merged into a pending fill
  uint64_t writebacks = 0;
  uint64_t prefetches_issued = 0;
  uint64_t prefetch_hits = 0;    ///< demand accesses that hit a prefetched line
  uint64_t rejections = 0;       ///< TryAccess refused (backpressure)
};

/// \brief One cache level.
class Cache : public MemSink {
 public:
  /// `stats` (optional) mounts this level's hit/miss/MSHR/writeback counters
  /// into a registry under the scope's prefix.
  Cache(sim::EventQueue* eq, sim::ClockDomain clock, CacheConfig config,
        MemSink* next, const StatsScope& stats = {});
  NDP_DISALLOW_COPY_AND_ASSIGN(Cache);

  bool TryAccess(uint64_t addr, bool is_write,
                 std::function<void(sim::Tick)> on_complete) override;

  /// Drops all lines (dirty contents are NOT written back; test helper).
  void InvalidateAll();

  /// True when no fills or writebacks are in flight.
  // ndp-lint: test-only-ok tests assert no fill or writeback is in flight
  bool Quiescent() const { return mshr_.empty() && pending_writebacks_ == 0; }

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }

  /// Whether `addr`'s line is currently resident (test/inspection helper).
  // ndp-lint: test-only-ok residency probe for cache tests
  bool Contains(uint64_t addr) const;

 private:
  struct Line {
    uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;
    uint64_t lru = 0;  ///< higher = more recently used
  };
  struct Mshr {
    std::vector<std::pair<bool, std::function<void(sim::Tick)>>> waiters;
    bool issued = false;
    bool prefetch_only = true;
  };

  /// Every level caches 64 B lines, one DDR3 BL8 burst.
  static constexpr uint32_t kLineBytes = 64;
  static_assert((kLineBytes & (kLineBytes - 1)) == 0,
                "LineAddr masks with kLineBytes - 1");

  uint64_t LineAddr(uint64_t addr) const { return addr & ~uint64_t{kLineBytes - 1}; }
  uint32_t SetIndex(uint64_t line_addr) const {
    return static_cast<uint32_t>((line_addr / kLineBytes) % num_sets_);
  }
  Line* Lookup(uint64_t line_addr);
  const Line* Lookup(uint64_t line_addr) const;
  void IssueFill(uint64_t line_addr);
  void HandleFill(uint64_t line_addr, sim::Tick t);
  void Install(uint64_t line_addr, bool prefetched);
  void IssueWriteback(uint64_t line_addr);
  void MaybePrefetch(uint64_t line_addr);
  sim::Tick HitLatencyPs() const {
    return config_.hit_latency_cycles * clock_.period_ps();
  }

  sim::EventQueue* eq_;
  sim::ClockDomain clock_;
  CacheConfig config_;
  MemSink* next_;
  uint32_t num_sets_;
  std::vector<Line> lines_;  ///< num_sets_ x ways, row-major
  std::unordered_map<uint64_t, Mshr> mshr_;
  uint64_t lru_tick_ = 0;
  uint32_t pending_writebacks_ = 0;
  CacheStats stats_;
};

}  // namespace ndp::cpu
