#include "dram/controller.h"

#include <gtest/gtest.h>

#include <vector>

#include "cpu/dram_port.h"
#include "dram/dram_system.h"

namespace ndp::dram {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  void SetUp() override { Rebuild(ControllerConfig{}); }

  void Rebuild(ControllerConfig cfg) {
    dram_.reset();  // components cancel their event nodes; queue must outlive them
    eq_ = std::make_unique<sim::EventQueue>();
    DramOrganization org;
    org.ranks_per_channel = 2;
    org.rows_per_bank = 1024;
    dram_ = std::make_unique<DramSystem>(eq_.get(), DramTiming::DDR3_1600(),
                                         org, InterleaveScheme::kContiguous,
                                         cfg);
  }

  sim::Tick Cyc(uint32_t n) const { return n * dram_->timing().tck_ps; }

  /// Issues a read and runs the sim until it completes; returns latency.
  sim::Tick TimedRead(uint64_t addr) {
    bool done = false;
    sim::Tick start = eq_->Now();
    sim::Tick end = 0;
    Request req;
    req.addr = addr;
    req.on_complete = [&](sim::Tick t) {
      done = true;
      end = t;
    };
    EXPECT_TRUE(dram_->EnqueueRequest(req).ok());
    EXPECT_TRUE(eq_->RunUntilTrue([&] { return done; }));
    return end - start;
  }

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<DramSystem> dram_;
};

TEST_F(ControllerTest, ColdReadLatencyIsActPlusCasPlusBurst) {
  const DramTiming& t = dram_->timing();
  sim::Tick lat = TimedRead(0);
  // ACT at cycle 0 is not possible before the controller's first tick; allow
  // a one-cycle scheduling quantum.
  sim::Tick ideal = Cyc(t.trcd + t.cl + t.tburst);
  EXPECT_GE(lat, ideal);
  EXPECT_LE(lat, ideal + Cyc(2));
}

TEST_F(ControllerTest, RowHitIsFasterThanRowMiss) {
  sim::Tick miss = TimedRead(0);
  sim::Tick hit = TimedRead(64);  // same row, next burst
  const DramTiming& t = dram_->timing();
  EXPECT_LT(hit, miss);
  EXPECT_LE(hit, Cyc(t.cl + t.tburst) + Cyc(2));
  auto c = dram_->TotalCounters();
  EXPECT_EQ(c.reads_served, 2u);
  EXPECT_EQ(c.row_hits, 1u);
}

TEST_F(ControllerTest, RowConflictRequiresPrechargeActivate) {
  (void)TimedRead(0);
  // Same bank, different row: conflict path PRE + ACT + RD.
  uint64_t other_row = 8192ull * 16;  // 16 banks ahead = same bank, row+2
  auto loc0 = dram_->mapper().Decode(0).ValueOrDie();
  auto loc1 = dram_->mapper().Decode(other_row).ValueOrDie();
  ASSERT_EQ(loc0.bank, loc1.bank);
  ASSERT_EQ(loc0.rank, loc1.rank);
  ASSERT_NE(loc0.row, loc1.row);
  sim::Tick conflict = TimedRead(other_row);
  const DramTiming& t = dram_->timing();
  EXPECT_GE(conflict, Cyc(t.trp + t.trcd + t.cl + t.tburst));
  EXPECT_EQ(dram_->TotalCounters().row_conflicts, 1u);
}

TEST_F(ControllerTest, FrFcfsPrefersRowHits) {
  // Queue: conflict-row request first, then a row-hit request. FR-FCFS should
  // complete the row hit before the conflicting one.
  (void)TimedRead(0);  // open row 0 of bank 0
  std::vector<int> completion_order;
  bool both = false;
  int completed = 0;
  Request conflict;
  conflict.addr = 8192ull * 16;  // same bank, different row
  conflict.on_complete = [&](sim::Tick) {
    completion_order.push_back(1);
    both = ++completed == 2;
  };
  Request hit;
  hit.addr = 128;  // open row
  hit.on_complete = [&](sim::Tick) {
    completion_order.push_back(2);
    both = ++completed == 2;
  };
  ASSERT_TRUE(dram_->EnqueueRequest(conflict).ok());
  ASSERT_TRUE(dram_->EnqueueRequest(hit).ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return both; }));
  EXPECT_EQ(completion_order, (std::vector<int>{2, 1}));
}

TEST_F(ControllerTest, WritesAreDrainedWhenReadsIdle) {
  Request wr;
  wr.addr = 4096;
  wr.is_write = true;
  bool done = false;
  wr.on_complete = [&](sim::Tick) { done = true; };
  ASSERT_TRUE(dram_->EnqueueRequest(wr).ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
  EXPECT_EQ(dram_->TotalCounters().writes_served, 1u);
}

TEST_F(ControllerTest, BusyCountersMatchPaperDefinition) {
  // One isolated read: RC_busy should cover queue-entry to issue; afterwards
  // both queues empty -> no further busy time accrues.
  (void)TimedRead(0);
  auto c1 = dram_->TotalCounters();
  EXPECT_GT(c1.read_queue_busy_ticks, 0u);
  EXPECT_EQ(c1.write_queue_busy_ticks, 0u);
  sim::Tick busy_after_read = c1.read_queue_busy_ticks;
  // Let simulated time pass with no traffic: busy time must not grow.
  eq_->RunUntil(eq_->Now() + Cyc(1000));
  auto c2 = dram_->TotalCounters();
  EXPECT_EQ(c2.read_queue_busy_ticks, busy_after_read);
}

TEST_F(ControllerTest, QueueCapacityBackpressure) {
  Request r;
  for (size_t i = 0; i < MemoryController::kQueueCapacity; ++i) {
    r.addr = i * 64;
    ASSERT_TRUE(dram_->EnqueueRequest(r).ok());
  }
  r.addr = MemoryController::kQueueCapacity * 64;
  Status full = dram_->EnqueueRequest(r);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(full.message(), "queue full");  // no allocation per refusal
  EXPECT_FALSE(dram_->CanAccept(r));
  // The write queue is separate, and an address past the installed capacity
  // still fails as out of range at the controller.
  r.is_write = true;
  EXPECT_TRUE(dram_->controller(0).Enqueue(r).ok());
  r.addr = dram_->organization().TotalBytes();
  EXPECT_EQ(dram_->controller(0).Enqueue(r).code(), StatusCode::kOutOfRange);
}

TEST_F(ControllerTest, WaitersTakeFreedSlotsInFifoOrder) {
  MemoryController& mc = dram_->controller(0);
  Request r;
  for (size_t i = 0; i < MemoryController::kQueueCapacity; ++i) {
    r.addr = i * 64;
    ASSERT_TRUE(mc.Enqueue(r).ok());
  }
  ASSERT_EQ(mc.Enqueue(r).code(), StatusCode::kResourceExhausted);

  // Three read waiters, each re-offering one read; one write waiter that no
  // read dequeue may wake.
  std::vector<int> order;
  std::vector<uint64_t> served_at_wake;
  for (int w = 0; w < 3; ++w) {
    mc.WaitForSpace(/*is_write=*/false, [&, w] {
      order.push_back(w);
      // Woken in the tick its slot frees: the dequeue that freed it is the
      // latest read served, and nothing else has taken the slot.
      served_at_wake.push_back(mc.counters().reads_served);
      Request again;
      again.addr = (MemoryController::kQueueCapacity + w) * 64;
      EXPECT_TRUE(mc.Enqueue(again).ok());
      EXPECT_FALSE(mc.CanAcceptRead());
    });
  }
  int write_wakes = 0;
  mc.WaitForSpace(/*is_write=*/true, [&] { ++write_wakes; });

  ASSERT_TRUE(eq_->RunUntilTrue([&] { return order.size() == 3; }));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(served_at_wake, (std::vector<uint64_t>{1, 2, 3}));
  eq_->RunUntil(eq_->Now() + Cyc(2000));
  EXPECT_EQ(mc.counters().reads_served, MemoryController::kQueueCapacity + 3);
  EXPECT_EQ(order.size(), 3u);  // each waiter fired once
  EXPECT_EQ(write_wakes, 0);
}

TEST_F(ControllerTest, DramPortRequestRefusedAfterFrontsideWaitsForSlot) {
  // The port checks for room, then delivers 10 ns later; other traffic fills
  // the read queue in between, so the delivery waits for a freed slot.
  cpu::DramPort port(dram_.get(), /*frontside_ps=*/10'000);
  sim::Tick done_at = 0;
  ASSERT_TRUE(port.TryAccess(MemoryController::kQueueCapacity * 64,
                             /*is_write=*/false,
                             [&](sim::Tick t) { done_at = t; }));
  Request r;
  for (size_t i = 0; i < MemoryController::kQueueCapacity; ++i) {
    r.addr = i * 64;
    ASSERT_TRUE(dram_->EnqueueRequest(r).ok());
  }
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done_at != 0; }));
  EXPECT_EQ(dram_->controller(0).counters().reads_served,
            MemoryController::kQueueCapacity + 1);
}

TEST_F(ControllerTest, RefreshEventuallyIssues) {
  // Run past several tREFI intervals with no traffic; refresh must fire.
  const DramTiming& t = dram_->timing();
  eq_->RunUntil(Cyc(t.trefi * 3));
  uint64_t refreshes = 0;
  for (uint32_t r = 0; r < dram_->channel(0).num_ranks(); ++r) {
    refreshes += dram_->channel(0).rank(r).refreshes_issued();
  }
  EXPECT_GE(refreshes, 2u);
}

TEST_F(ControllerTest, RefreshDisabledMeansNoRefreshCommands) {
  ControllerConfig cfg;
  cfg.refresh_enabled = false;
  Rebuild(cfg);
  eq_->RunUntil(Cyc(dram_->timing().trefi * 3));
  EXPECT_EQ(dram_->channel(0).rank(0).refreshes_issued(), 0u);
}

TEST_F(ControllerTest, OwnershipTransferBlocksAndResumesRequests) {
  // Hand rank 0 to the accelerator, enqueue a read to it, verify it does not
  // complete, return ownership, verify it completes.
  MemoryController& mc = dram_->controller(0);
  bool granted = false;
  mc.TransferOwnership(0, RankOwner::kAccelerator,
                       [&](sim::Tick) { granted = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return granted; }));
  EXPECT_EQ(dram_->channel(0).rank(0).owner(), RankOwner::kAccelerator);

  bool read_done = false;
  Request r;
  r.addr = 0;  // rank 0
  r.on_complete = [&](sim::Tick) { read_done = true; };
  ASSERT_TRUE(dram_->EnqueueRequest(r).ok());
  eq_->RunUntil(eq_->Now() + Cyc(500));
  EXPECT_FALSE(read_done);  // held while JAFAR owns the rank

  bool returned = false;
  mc.TransferOwnership(0, RankOwner::kHost, [&](sim::Tick) { returned = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return read_done; }));
  EXPECT_TRUE(returned);
}

TEST_F(ControllerTest, RequestsToOtherRankProceedDuringOwnership) {
  MemoryController& mc = dram_->controller(0);
  bool granted = false;
  mc.TransferOwnership(0, RankOwner::kAccelerator,
                       [&](sim::Tick) { granted = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return granted; }));
  // Rank 1 is still host-owned; a read to it must complete normally. Ranks
  // are contiguous regions in the rank:row:bank:col layout.
  uint64_t rank1_addr = dram_->organization().BytesPerRank();
  ASSERT_EQ(dram_->mapper().Decode(rank1_addr).ValueOrDie().rank, 1u);
  bool done = false;
  Request r;
  r.addr = rank1_addr;
  r.on_complete = [&](sim::Tick) { done = true; };
  ASSERT_TRUE(dram_->EnqueueRequest(r).ok());
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done; }));
}

TEST_F(ControllerTest, IdleHistogramRecordsGapsBetweenBursts) {
  (void)TimedRead(0);
  // Leave a deliberate gap, then another request: the gap should land in the
  // idle-period histogram.
  eq_->RunUntil(eq_->Now() + Cyc(600));
  (void)TimedRead(64);
  const Histogram& h = dram_->controller(0).idle_period_histogram();
  EXPECT_GE(h.stats().count(), 1u);
  EXPECT_GT(h.stats().max(), 500.0);  // cycles
}

TEST_F(ControllerTest, SequentialStreamIsRowHitDominated) {
  // 64 sequential bursts: expect 1 activate and 63 row hits per row span.
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    Request r;
    r.addr = static_cast<uint64_t>(i) * 64;
    r.on_complete = [&](sim::Tick) { ++completed; };
    ASSERT_TRUE(dram_->EnqueueRequest(r).ok());
    // Run a little to avoid overflowing the queue.
    eq_->RunUntil(eq_->Now() + Cyc(8));
  }
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return completed == 64; }));
  auto c = dram_->TotalCounters();
  EXPECT_EQ(c.reads_served, 64u);
  EXPECT_GE(c.row_hits, 60u);
  EXPECT_LE(c.row_misses, 2u);
}

TEST_F(ControllerTest, ClosedPagePolicyPrechargesIdleRows) {
  ControllerConfig cfg;
  cfg.page_policy = PagePolicy::kClosed;
  cfg.refresh_enabled = false;
  Rebuild(cfg);
  (void)TimedRead(0);
  // With no queued request wanting the row, the controller closes it.
  eq_->RunUntil(eq_->Now() + Cyc(200));
  EXPECT_FALSE(dram_->channel(0).rank(0).bank(0).has_open_row());
  // A second read to the same row is now a plain row miss (ACT+RD), slower
  // than an open-page row hit but with no precharge on its critical path.
  const DramTiming& t = dram_->timing();
  sim::Tick lat = TimedRead(64);
  EXPECT_GE(lat, Cyc(t.trcd + t.cl + t.tburst));
  EXPECT_LE(lat, Cyc(t.trcd + t.cl + t.tburst) + Cyc(3));
}

TEST_F(ControllerTest, ClosedPageKeepsRowsWantedByQueuedRequests) {
  ControllerConfig cfg;
  cfg.page_policy = PagePolicy::kClosed;
  cfg.refresh_enabled = false;
  Rebuild(cfg);
  // Back-to-back requests to one row: the row must not be closed between
  // them (the policy checks the queues), so the second is a row hit.
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    Request r;
    r.addr = static_cast<uint64_t>(i) * 64;
    r.on_complete = [&](sim::Tick) { ++completed; };
    ASSERT_TRUE(dram_->EnqueueRequest(r).ok());
  }
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return completed == 8; }));
  auto c = dram_->TotalCounters();
  EXPECT_EQ(c.row_hits, 7u);
  EXPECT_EQ(c.row_misses, 1u);
}

TEST_F(ControllerTest, RefreshStealsBackAcceleratorOwnedRank) {
  // Hand rank 0 to the accelerator, then let the simulation idle. Refresh of
  // the owned rank is postponed — but only up to the JEDEC budget: with one
  // tREFI of the 8 x tREFI postponement allowance left, the controller must
  // steal the rank back and refresh anyway (DESIGN.md §7). Rank 1 stays
  // host-owned and refreshes on its normal cadence throughout.
  bool transferred = false;
  dram_->controller(0).TransferOwnership(0, RankOwner::kAccelerator,
                                         [&](sim::Tick) { transferred = true; });
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return transferred; }));
  ASSERT_EQ(dram_->channel(0).rank(0).owner(), RankOwner::kAccelerator);

  const uint32_t trefi = dram_->timing().trefi;
  // Rank 0 is due at 1 x tREFI; its emergency deadline is 8 x tREFI. Just
  // before it, the postponement must still be in effect.
  eq_->RunUntil(Cyc(8 * trefi) - Cyc(10));
  EXPECT_EQ(dram_->channel(0).rank(0).refreshes_issued(), 0u);
  EXPECT_GE(dram_->channel(0).rank(1).refreshes_issued(), 5u);

  // Past the deadline the steal-back REF must have landed despite the rank
  // still being accelerator-owned.
  eq_->RunUntil(Cyc(8 * trefi) + Cyc(dram_->timing().trfc + 20));
  EXPECT_GE(dram_->channel(0).rank(0).refreshes_issued(), 1u);
  EXPECT_EQ(dram_->channel(0).rank(0).owner(), RankOwner::kAccelerator);
}

}  // namespace
}  // namespace ndp::dram
