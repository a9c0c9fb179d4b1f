// Adapter from the cache hierarchy's MemSink interface to the DRAM system:
// aligns accesses to burst (cache line) granularity and applies a fixed
// front-side latency representing interconnect + controller pipeline.
#pragma once

#include <cstdint>

#include "cpu/mem_if.h"
#include "dram/dram_system.h"
#include "util/macros.h"

namespace ndp::cpu {

/// \brief Last-level-cache-to-memory port.
class DramPort : public MemSink {
 public:
  /// `frontside_ps`: one-way interconnect latency added to each request
  /// before it reaches the controller queues (and not on the return path,
  /// where it is folded into the same constant for simplicity).
  DramPort(dram::DramSystem* dram, sim::Tick frontside_ps,
           dram::RequesterId requester = dram::RequesterId::kCpu)
      : dram_(dram), frontside_ps_(frontside_ps), requester_(requester) {}

  bool TryAccess(uint64_t addr, bool is_write,
                 std::function<void(sim::Tick)> on_complete) override {
    uint64_t line = addr & ~uint64_t{63};
    dram::Request req;
    req.addr = line;
    req.is_write = is_write;
    req.requester = requester_;
    req.on_complete = std::move(on_complete);
    if (!dram_->CanAccept(req)) return false;
    if (frontside_ps_ == 0) {
      return dram_->EnqueueRequest(req).ok();
    }
    dram_->event_queue()->ScheduleAfter(frontside_ps_, Deliver{this, req});
    return true;
  }

 private:
  /// Hands a request to its controller at the end of the frontside window.
  /// The queue had room when checked; if another agent filled it within the
  /// window, the request waits for the controller's next freed slot.
  struct Deliver {
    DramPort* port;
    dram::Request req;
    void operator()() const {
      Status s = port->dram_->EnqueueRequest(req);
      if (s.ok()) return;
      NDP_CHECK(s.code() == StatusCode::kResourceExhausted);
      uint32_t c = port->dram_->mapper().Decode(req.addr).ValueOrDie().channel;
      port->dram_->controller(c).WaitForSpace(req.is_write, *this);
    }
  };

  dram::DramSystem* dram_;
  sim::Tick frontside_ps_;
  dram::RequesterId requester_;
};

}  // namespace ndp::cpu
