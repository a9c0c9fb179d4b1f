#include "cpu/core.h"

#include <algorithm>

#include "util/macros.h"

namespace ndp::cpu {

Core::Core(sim::EventQueue* eq, CoreConfig config, MemSink* l1,
           const StatsScope& stats)
    : sim::TickingComponent(eq, config.clock),
      config_(config),
      l1_(l1),
      predictor_(config.branch) {
  NDP_CHECK(config_.rob_entries >= 4);
  NDP_CHECK(config_.rob_entries + config_.issue_width < kRingSize);
  stats.Counter("cycles", &stats_.cycles);
  stats.Counter("uops_retired", &stats_.uops_retired);
  stats.Counter("loads", &stats_.loads);
  stats.Counter("stores", &stats_.stores);
  stats.Counter("branches", &stats_.branches);
  stats.Counter("mispredicts", &stats_.mispredicts);
  stats.Counter("load_reject_cycles", &stats_.load_reject_cycles);
  stats.Counter("rob_full_cycles", &stats_.rob_full_cycles);
  stats.Counter("fetch_stall_cycles", &stats_.fetch_stall_cycles);
  stats.Gauge("max_retire_gap_ps", &stats_.max_retire_gap_ps);
}

Core::~Core() {
  if (drain_retry_.scheduled()) event_queue()->Cancel(&drain_retry_);
}

ndp::Status Core::Run(UopStream* stream, std::function<void(sim::Tick)> on_done) {
  if (stream_ != nullptr) {
    return ndp::Status::FailedPrecondition("core is already running a kernel");
  }
  stream_ = stream;
  on_done_ = std::move(on_done);
  stream_exhausted_ = false;
  pending_uop_.reset();
  fetch_stalled_until_ = 0;
  last_retire_tick_ = event_queue()->Now();
  // The gap gauge is a per-kernel maximum; counters accumulate across runs
  // (per-run figures come from snapshot deltas), but a max cannot be
  // delta'd, so it restarts with each kernel.
  stats_.max_retire_gap_ps = 0;
  Wake();
  return ndp::Status::OK();
}

std::optional<sim::Tick> Core::CompletionOf(uint64_t seq) const {
  if (ring_seq_[seq % kRingSize] == seq) return ring_completion_[seq % kRingSize];
  for (const RobEntry& e : rob_) {
    if (e.seq == seq) {
      if (e.completion_known) return e.completion;
      return std::nullopt;
    }
  }
  // Older than the ring: retired long ago.
  return sim::Tick{0};
}

void Core::ResolveCompletion(RobEntry* e) {
  if (e->completion_known) return;
  if (e->uop.type == UopType::kLoad) return;  // set by the cache callback
  sim::Tick base = e->dispatch;
  if (e->dep_seq) {
    auto dep = CompletionOf(*e->dep_seq);
    if (!dep) return;  // dependence not resolved yet
    base = std::max(base, *dep);
  }
  e->completion = base + e->uop.latency * clock().period_ps();
  e->completion_known = true;
}

bool Core::DispatchOne(sim::Tick now) {
  if (now < fetch_stalled_until_) {
    ++stats_.fetch_stall_cycles;
    return false;
  }
  if (rob_.size() >= config_.rob_entries) {
    ++stats_.rob_full_cycles;
    return false;
  }
  if (!pending_uop_) {
    Uop u;
    if (stream_exhausted_ || !stream_->Next(&u)) {
      stream_exhausted_ = true;
      return false;
    }
    pending_uop_ = u;
  }

  Uop& u = *pending_uop_;
  RobEntry e;
  e.uop = u;
  e.seq = next_seq_;
  e.dispatch = now;
  if (u.dep_distance > 0 && next_seq_ > u.dep_distance) {
    e.dep_seq = next_seq_ - u.dep_distance;
  }

  switch (u.type) {
    case UopType::kLoad: {
      uint64_t seq = e.seq;
      bool ok = l1_->TryAccess(u.addr, /*is_write=*/false,
                               [this, seq](sim::Tick t) {
                                 for (RobEntry& re : rob_) {
                                   if (re.seq == seq) {
                                     re.completion = t;
                                     re.completion_known = true;
                                     return;
                                   }
                                 }
                                 NDP_CHECK_MSG(false, "load completion lost");
                               });
      if (!ok) {
        ++stats_.load_reject_cycles;
        return false;  // backpressure; retry next cycle
      }
      ++stats_.loads;
      break;
    }
    case UopType::kStore: {
      if (outstanding_stores_ >= config_.store_buffer_entries) return false;
      ++outstanding_stores_;
      ++stats_.stores;
      // Post-retirement write drains through the cache with retry-on-reject.
      DrainStore(u.addr);
      e.completion = now + clock().period_ps();
      e.completion_known = true;
      break;
    }
    case UopType::kBranch: {
      ++stats_.branches;
      bool correct = predictor_.PredictAndUpdate(u.pc, u.taken);
      if (!correct) {
        ++stats_.mispredicts;
        // Front-end refill bubble only; in-flight work keeps executing.
        fetch_stalled_until_ =
            std::max(fetch_stalled_until_,
                     now + config_.branch.mispredict_penalty_cycles *
                               clock().period_ps());
      }
      break;
    }
    case UopType::kAlu:
    case UopType::kNop:
      break;
  }

  rob_.push_back(std::move(e));
  ResolveCompletion(&rob_.back());
  ++next_seq_;
  pending_uop_.reset();
  return true;
}

void Core::DrainStore(uint64_t addr) {
  if (l1_->TryAccess(addr, /*is_write=*/true, nullptr)) {
    --outstanding_stores_;
    return;
  }
  pending_drains_.push_back(addr);
  if (!drain_retry_.scheduled()) {
    event_queue()->Schedule(event_queue()->Now() + clock().period_ps(),
                            &drain_retry_);
  }
}

void Core::RetryDrains() {
  // Each pending store gets one L1 attempt per cycle, as when each carried
  // its own retry closure.
  for (size_t i = pending_drains_.size(); i > 0; --i) {
    uint64_t addr = pending_drains_.front();
    pending_drains_.pop_front();
    if (l1_->TryAccess(addr, /*is_write=*/true, nullptr)) {
      --outstanding_stores_;
    } else {
      pending_drains_.push_back(addr);
    }
  }
  if (!pending_drains_.empty()) {
    event_queue()->Schedule(event_queue()->Now() + clock().period_ps(),
                            &drain_retry_);
  }
}

void Core::FinishIfDone(sim::Tick now) {
  if (stream_exhausted_ && !pending_uop_ && rob_.empty() &&
      outstanding_stores_ == 0 && stream_ != nullptr) {
    stream_ = nullptr;
    auto cb = std::move(on_done_);
    on_done_ = nullptr;
    if (cb) cb(now);
  }
}

bool Core::Tick() {
  if (stream_ == nullptr) return false;
  sim::Tick now = event_queue()->Now();
  ++stats_.cycles;

  // Retire stage.
  for (uint32_t r = 0; r < config_.retire_width && !rob_.empty(); ++r) {
    RobEntry& head = rob_.front();
    ResolveCompletion(&head);
    if (!head.completion_known || head.completion > now) break;
    stats_.max_retire_gap_ps =
        std::max(stats_.max_retire_gap_ps, now - last_retire_tick_);
    last_retire_tick_ = now;
    ring_seq_[head.seq % kRingSize] = head.seq;
    ring_completion_[head.seq % kRingSize] = head.completion;
    ++stats_.uops_retired;
    rob_.pop_front();
  }

  // Dispatch stage.
  for (uint32_t d = 0; d < config_.issue_width; ++d) {
    if (!DispatchOne(now)) break;
  }

  FinishIfDone(now);
  return stream_ != nullptr;
}

}  // namespace ndp::cpu
