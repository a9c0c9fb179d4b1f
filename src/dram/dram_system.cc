#include "dram/dram_system.h"

namespace ndp::dram {

DramSystem::DramSystem(sim::EventQueue* eq, DramTiming timing,
                       DramOrganization org, InterleaveScheme scheme,
                       ControllerConfig ctrl_config, const StatsScope& stats,
                       sim::PartitionSet* partitions)
    : eq_(eq),
      partitions_(partitions),
      timing_(std::move(timing)),
      org_(org),
      mapper_(org, scheme),
      backing_(org.TotalBytes()) {
  if (partitions_ != nullptr) {
    // One partition per channel (extra partitions — e.g. a host partition —
    // may follow the channels).
    NDP_CHECK(partitions_->num_partitions() >= org.channels);
  }
  channels_.reserve(org.channels);
  controllers_.reserve(org.channels);
  for (uint32_t c = 0; c < org.channels; ++c) {
    channels_.push_back(std::make_unique<Channel>());
    channels_.back()->Configure(&timing_, &org_);
#ifdef NDP_PROTOCOL_CHECK
    // Refresh-interval legality is only meaningful when this system's
    // controller actually schedules refreshes.
    channels_.back()->protocol_checker().set_expect_refresh(
        ctrl_config.refresh_enabled);
#endif
    controllers_.push_back(std::make_unique<MemoryController>(
        event_queue(c), channels_.back().get(), &mapper_, ctrl_config,
        stats.Sub("ctrl" + std::to_string(c))));
    // Per-rank ECC scrub counters (fault-injection read path, src/fault).
    StatsScope ch_scope = stats.Sub("ch" + std::to_string(c));
    Channel* ch = channels_.back().get();
    for (uint32_t r = 0; r < ch->num_ranks(); ++r) {
      const Rank& rank = ch->rank(r);
      StatsScope rank_scope = ch_scope.Sub("rank" + std::to_string(r));
      rank_scope.Counter("ecc_corrected",
                         [&rank] { return rank.ecc_corrected(); });
      rank_scope.Counter("ecc_uncorrectable",
                         [&rank] { return rank.ecc_uncorrectable(); });
    }
  }
}

Status DramSystem::EnqueueRequest(const Request& req) {
  NDP_ASSIGN_OR_RETURN(DramLocation loc, mapper_.Decode(req.addr));
  return controllers_[loc.channel]->Enqueue(req);
}

bool DramSystem::CanAccept(const Request& req) const {
  auto loc = mapper_.Decode(req.addr);
  if (!loc.ok()) return false;
  const MemoryController& mc = *controllers_[loc.value().channel];
  return req.is_write ? mc.CanAcceptWrite() : mc.CanAcceptRead();
}

ControllerCounters DramSystem::TotalCounters() const {
  ControllerCounters total;
  for (const auto& mc : controllers_) {
    ControllerCounters c = mc->counters();
    total.reads_served += c.reads_served;
    total.writes_served += c.writes_served;
    total.row_hits += c.row_hits;
    total.row_misses += c.row_misses;
    total.row_conflicts += c.row_conflicts;
    total.read_queue_busy_ticks += c.read_queue_busy_ticks;
    total.write_queue_busy_ticks += c.write_queue_busy_ticks;
  }
  return total;
}

#ifdef NDP_PROTOCOL_CHECK
uint64_t DramSystem::TotalProtocolViolations() const {
  uint64_t total = 0;
  for (const auto& ch : channels_) {
    total += ch->protocol_checker().violations().size();
  }
  return total;
}
#endif

}  // namespace ndp::dram
