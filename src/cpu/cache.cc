#include "cpu/cache.h"

#include <algorithm>

#include "util/logging.h"

namespace ndp::cpu {

namespace {

/// Demand misses one MSHR can merge before the cache pushes back.
constexpr uint32_t kMaxWaitersPerMshr = 16;

}  // namespace

Cache::Cache(sim::EventQueue* eq, sim::ClockDomain clock, CacheConfig config,
             MemSink* next, const StatsScope& stats)
    : eq_(eq), clock_(clock), config_(config), next_(next) {
  uint64_t lines = config_.size_bytes / kLineBytes;
  NDP_CHECK_MSG(lines % config_.ways == 0, "size/ways/line mismatch");
  num_sets_ = static_cast<uint32_t>(lines / config_.ways);
  lines_.resize(lines);
  stats.Counter("hits", &stats_.hits);
  stats.Counter("misses", &stats_.misses);
  stats.Counter("mshr_merges", &stats_.mshr_merges);
  stats.Counter("writebacks", &stats_.writebacks);
  stats.Counter("prefetches_issued", &stats_.prefetches_issued);
  stats.Counter("prefetch_hits", &stats_.prefetch_hits);
  stats.Counter("rejections", &stats_.rejections);
}

Cache::Line* Cache::Lookup(uint64_t line_addr) {
  uint32_t set = SetIndex(line_addr);
  Line* base = &lines_[static_cast<size_t>(set) * config_.ways];
  for (uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == line_addr) return &base[w];
  }
  return nullptr;
}

const Cache::Line* Cache::Lookup(uint64_t line_addr) const {
  return const_cast<Cache*>(this)->Lookup(line_addr);
}

bool Cache::Contains(uint64_t addr) const { return Lookup(LineAddr(addr)) != nullptr; }

bool Cache::TryAccess(uint64_t addr, bool is_write,
                      std::function<void(sim::Tick)> on_complete) {
  uint64_t line_addr = LineAddr(addr);
  if (Line* line = Lookup(line_addr)) {
    ++stats_.hits;
    if (line->prefetched) {
      ++stats_.prefetch_hits;
      line->prefetched = false;
    }
    line->lru = ++lru_tick_;
    if (is_write) line->dirty = true;
    if (on_complete) {
      eq_->ScheduleAfter(HitLatencyPs(), [cb = std::move(on_complete), this] {
        cb(eq_->Now());
      });
    }
    return true;
  }
  // Miss: merge into a pending fill if one exists for this line.
  auto it = mshr_.find(line_addr);
  if (it != mshr_.end()) {
    if (it->second.waiters.size() >= kMaxWaitersPerMshr) {
      ++stats_.rejections;
      return false;
    }
    ++stats_.mshr_merges;
    it->second.prefetch_only = false;
    it->second.waiters.emplace_back(is_write, std::move(on_complete));
    return true;
  }
  if (mshr_.size() >= config_.mshrs) {
    ++stats_.rejections;
    return false;
  }
  ++stats_.misses;
  Mshr& m = mshr_[line_addr];
  m.prefetch_only = false;
  m.waiters.emplace_back(is_write, std::move(on_complete));
  IssueFill(line_addr);
  MaybePrefetch(line_addr);
  return true;
}

void Cache::IssueFill(uint64_t line_addr) {
  auto it = mshr_.find(line_addr);
  if (it == mshr_.end() || it->second.issued) return;
  // Lookup latency before the miss propagates downstream.
  eq_->ScheduleAfter(HitLatencyPs(), [this, line_addr] {
    auto it2 = mshr_.find(line_addr);
    if (it2 == mshr_.end()) return;
    bool ok = next_->TryAccess(line_addr, /*is_write=*/false,
                               [this, line_addr](sim::Tick t) {
                                 HandleFill(line_addr, t);
                               });
    if (ok) {
      it2->second.issued = true;
    } else {
      // Downstream backpressure: retry after one cycle.
      eq_->ScheduleAfter(clock_.period_ps(), [this, line_addr] {
        auto it3 = mshr_.find(line_addr);
        if (it3 != mshr_.end()) {
          it3->second.issued = false;
          IssueFill(line_addr);
        }
      });
      it2->second.issued = true;  // suppress duplicate issue until retry fires
    }
  });
}

void Cache::HandleFill(uint64_t line_addr, sim::Tick t) {
  auto it = mshr_.find(line_addr);
  NDP_CHECK(it != mshr_.end());
  Mshr m = std::move(it->second);
  mshr_.erase(it);
  Install(line_addr, m.prefetch_only);
  Line* line = Lookup(line_addr);
  NDP_CHECK(line != nullptr);
  for (auto& [w_is_write, cb] : m.waiters) {
    if (w_is_write) line->dirty = true;
    if (cb) {
      eq_->ScheduleAfter(HitLatencyPs(),
                         [cb = std::move(cb), this] { cb(eq_->Now()); });
    }
  }
  (void)t;
}

void Cache::Install(uint64_t line_addr, bool prefetched) {
  uint32_t set = SetIndex(line_addr);
  Line* base = &lines_[static_cast<size_t>(set) * config_.ways];
  Line* victim = &base[0];
  for (uint32_t w = 0; w < config_.ways; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru < victim->lru) victim = &base[w];
  }
  if (victim->valid && victim->dirty) {
    ++stats_.writebacks;
    IssueWriteback(victim->tag);
  }
  victim->valid = true;
  victim->dirty = false;
  victim->prefetched = prefetched;
  victim->tag = line_addr;
  victim->lru = ++lru_tick_;
}

void Cache::IssueWriteback(uint64_t line_addr) {
  ++pending_writebacks_;
  if (next_->TryAccess(line_addr, /*is_write=*/true, nullptr)) {
    --pending_writebacks_;
    return;
  }
  eq_->ScheduleAfter(clock_.period_ps(), [this, line_addr] {
    --pending_writebacks_;
    IssueWriteback(line_addr);
  });
}

void Cache::MaybePrefetch(uint64_t line_addr) {
  for (uint32_t d = 1; d <= config_.prefetch_degree; ++d) {
    uint64_t pf = line_addr + static_cast<uint64_t>(d) * kLineBytes;
    if (Lookup(pf) != nullptr) continue;
    if (mshr_.count(pf) != 0) continue;
    if (mshr_.size() >= config_.mshrs) break;
    ++stats_.prefetches_issued;
    mshr_[pf];  // prefetch_only MSHR with no waiters
    IssueFill(pf);
  }
}

void Cache::InvalidateAll() {
  for (auto& l : lines_) l = Line{};
}

}  // namespace ndp::cpu
