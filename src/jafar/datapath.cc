#include "jafar/datapath.h"

#include <utility>

#include "fault/injector.h"
#include "jafar/datapath_impl.h"
#include "jafar/device.h"
#include "util/macros.h"

namespace ndp::jafar {

// ---------------------------------------------------------------------------
// Shell forwarders. DatapathModel is Device's only friend; every concrete
// generation reaches the shell through these.

const DeviceConfig& DatapathModel::config() const { return dev_->config_; }

DeviceStats& DatapathModel::stats() { return dev_->stats_; }

sim::EventQueue* DatapathModel::eq() const { return dev_->eq_; }

uint32_t DatapathModel::rank_index() const { return dev_->rank_index_; }

uint32_t DatapathModel::channel_index() const { return dev_->channel_index_; }

dram::DramSystem& DatapathModel::dram() { return *dev_->dram_; }

dram::Channel& DatapathModel::channel() { return dev_->channel(); }

const dram::DramTiming& DatapathModel::timing() const { return dev_->timing(); }

sim::Tick DatapathModel::BusCycles(uint32_t n) const {
  return dev_->BusCycles(n);
}

bool DatapathModel::is_rowstore() const {
  return dev_->active_is<RowStoreJob>();
}

bool DatapathModel::is_probe() const { return dev_->active_is<ProbeJob>(); }

const SelectJob& DatapathModel::select_job() const {
  return dev_->active_job<SelectJob>();
}

const RowStoreJob& DatapathModel::rowstore_job() const {
  return dev_->active_job<RowStoreJob>();
}

const ProbeJob& DatapathModel::probe_job() const {
  return dev_->active_job<ProbeJob>();
}

bool DatapathModel::EvalProbeKey(int64_t key) const {
  return dev_->EvalProbeKey(key);
}

uint64_t DatapathModel::cursor_rows() const { return dev_->cursor_rows_; }

void DatapathModel::set_cursor_rows(uint64_t rows) {
  dev_->cursor_rows_ = rows;
}

sim::Tick DatapathModel::engine_ready_at() const {
  return dev_->engine_ready_at_;
}

void DatapathModel::set_engine_ready_at(sim::Tick t) {
  dev_->engine_ready_at_ = t;
}

void DatapathModel::add_matches(uint64_t n) { dev_->CountMatches(n); }

void DatapathModel::AppendBit(bool set) {
  dev_->pending_bits_.SetTo(dev_->pending_bit_count_++, set);
}

uint64_t DatapathModel::pending_bit_count() const {
  return dev_->pending_bit_count_;
}

void DatapathModel::IssueWhenReady(dram::Command cmd,
                                   std::function<void(sim::Tick)> next,
                                   std::function<void()> on_stale,
                                   bool defer_to_refresh) {
  dev_->IssueWhenReady(std::move(cmd), std::move(next), std::move(on_stale),
                       defer_to_refresh);
}

void DatapathModel::OpenRow(const dram::DramLocation& loc,
                            std::function<void()> next) {
  dev_->OpenRow(loc, std::move(next));
}

void DatapathModel::ReadBurst(uint64_t addr,
                              std::function<void(sim::Tick)> next) {
  dev_->ReadBurst(addr, std::move(next));
}

void DatapathModel::ReadBurstChain(uint64_t addr, uint64_t bursts,
                                   std::function<void(sim::Tick)> on_last_data) {
  dev_->ReadBurstChain(addr, bursts, std::move(on_last_data));
}

void DatapathModel::BeginProbe() {
  // Filter preload, shared by every generation: announce the load window to
  // the shadow checker, stream the Bloom image out of DRAM with ordinary
  // reads (the timing), latch it into the probe SRAM (the function), close
  // the window, and only then start the generation's scan sequencer.
  const ProbeJob& job = probe_job();
  channel().NoteProbeFilterLoadStart(rank_index(), eq()->Now());
  dev_->probe_sram_.assign(job.filter_words, 0);
  uint64_t bursts = (job.filter_words * 8 + 63) / 64;
  ReadBurstChain(job.filter_base, bursts, [this](sim::Tick) {
    const ProbeJob& j = probe_job();
    for (uint64_t w = 0; w < j.filter_words; ++w) {
      dev_->probe_sram_[w] = Read64(j.filter_base + w * 8);
    }
    channel().NoteProbeFilterLoadDone(rank_index());
    BeginScan();
  });
}

void DatapathModel::FlushBitmap(std::function<void()> next) {
  dev_->FlushBitmap(std::move(next));
}

void DatapathModel::FinishJob() { dev_->FinishJob(); }

void DatapathModel::FailJob(Status st) { dev_->FailJob(std::move(st)); }

void DatapathModel::ScheduleAtGuarded(sim::Tick t, std::function<void()> fn) {
  dev_->ScheduleAtGuarded(t, std::move(fn));
}

void DatapathModel::ScheduleAfterGuarded(sim::Tick delta,
                                         std::function<void()> fn) {
  dev_->ScheduleAfterGuarded(delta, std::move(fn));
}

int64_t DatapathModel::ReadValue(uint64_t addr) const {
  return dev_->ReadValue(addr);
}

uint64_t DatapathModel::Read64(uint64_t addr) const {
  return dev_->dram_->backing_store().Read64(addr);
}

bool DatapathModel::DrawStallAtBurst() {
#ifdef NDP_FAULT_INJECT
  if (dev_->injector_ != nullptr) return dev_->injector_->DrawStallAtBurst();
#endif
  return false;
}

bool DatapathModel::HandleReadFault(uint64_t burst_addr) {
#ifdef NDP_FAULT_INJECT
  if (dev_->injector_ != nullptr) return dev_->HandleReadFault(burst_addr);
#endif
  (void)burst_addr;
  return true;
}

bool DatapathModel::RefreshClaims() const {
  return dev_->dram_->controller(dev_->channel_index_)
      .RefreshClaims(dev_->rank_index_);
}

// ---------------------------------------------------------------------------
// Factory: the ONE sanctioned generation-dispatch site.

std::unique_ptr<DatapathModel> MakeDatapathModel(DeviceGeneration gen,
                                                 Device* dev) {
  switch (gen) {  // ndp-lint: generation-dispatch-ok (this is the factory)
    case DeviceGeneration::kV1RankIo:
      return MakeV1RankIoDatapath(dev);
    case DeviceGeneration::kV2BankLevel:
      return MakeV2BankLevelDatapath(dev);
  }
  NDP_CHECK_MSG(false, "unknown device generation");
  return nullptr;
}

}  // namespace ndp::jafar
