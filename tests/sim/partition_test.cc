// PartitionSet unit tests: the conservative epoch protocol (lookahead
// delivery, fixed drain order, no-past delivery), a reproducible
// cross-partition schedule, and the per-partition stats mounts; plus the
// fixed-capacity ring the serving ingress sheds on.
#include "sim/partition.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/ring.h"
#include "util/stats_registry.h"

namespace ndp::sim {
namespace {

TEST(RingTest, FifoThroughWraparound) {
  Ring<int> q(/*capacity_pow2=*/4);
  int out = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.TryPush(round * 10 + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q.Pop(&out));
      EXPECT_EQ(out, round * 10 + i);
    }
  }
  EXPECT_FALSE(q.Pop(&out));
}

TEST(RingTest, TryPushRefusesAtCapacity) {
  Ring<int> q(/*capacity_pow2=*/4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  // Full ring: TryPush refuses instead of growing.
  EXPECT_FALSE(q.TryPush(99));
  EXPECT_FALSE(q.TryPush(100));
  int out = 0;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 0);
  // One slot freed, one accepted — still bounded, still FIFO.
  EXPECT_TRUE(q.TryPush(4));
  EXPECT_FALSE(q.TryPush(5));
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.Pop(&out));
}

TEST(PartitionSetTest, SendDeliversAfterLookahead) {
  PartitionSet set(2, /*lookahead_ps=*/100, /*cycle_ps=*/100);
  std::vector<Tick> deliveries;
  set.queue(0).ScheduleAt(50, [&] {
    set.Send(0, 1, /*extra_delay_ps=*/0,
             [&] { deliveries.push_back(set.queue(1).Now()); });
    set.Send(0, 1, /*extra_delay_ps=*/25,
             [&] { deliveries.push_back(set.queue(1).Now()); });
  });
  set.RunUntil(1000);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 150u);  // send time + lookahead
  EXPECT_EQ(deliveries[1], 175u);  // + extra delay
  EXPECT_GE(set.epochs(), 1u);
}

TEST(PartitionSetTest, SameTimeDeliveriesRunInSourceOrder) {
  PartitionSet set(3, /*lookahead_ps=*/100, /*cycle_ps=*/100);
  std::vector<int> order;
  // Pushed in reverse source order and due at the same time: the drain
  // (source-minor per destination, FIFO per edge) breaks the tie, not the
  // push order.
  set.Send(2, 0, 0, [&] { order.push_back(2); });
  set.Send(1, 0, 0, [&] { order.push_back(1); });
  set.Send(1, 0, 0, [&] { order.push_back(11); });
  set.RunUntil(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2}));
}

TEST(PartitionSetTest, RunUntilAdvancesEveryPartition) {
  PartitionSet set(3, 10, 10);
  bool ran = false;
  set.queue(2).ScheduleAt(500, [&] { ran = true; });
  set.RunUntil(2000);
  EXPECT_TRUE(ran);
  for (uint32_t p = 0; p < 3; ++p) EXPECT_EQ(set.queue(p).Now(), 2000u);
}

TEST(PartitionSetTest, RunUntilTruePredicateSeenAtBarrier) {
  PartitionSet set(2, 10, 10);
  int pings = 0;
  // Ping-pong: each delivery re-sends to the other partition.
  std::function<void(uint32_t, uint32_t)> volley = [&](uint32_t src,
                                                       uint32_t dst) {
    ++pings;
    if (pings < 7) set.Send(src, dst, 0, [&, dst, src] { volley(dst, src); });
  };
  set.queue(0).ScheduleAt(1, [&] { volley(0, 1); });
  EXPECT_TRUE(set.RunUntilTrue([&] { return pings >= 7; }));
  EXPECT_EQ(pings, 7);
  // An unsatisfiable predicate drains everything and reports false.
  EXPECT_FALSE(set.RunUntilTrue([&] { return pings >= 100; }));
}

TEST(PartitionSetTest, StatsMountEpochsAndPerPartitionCounters) {
  StatsRegistry registry;
  PartitionSet set(2, 10, 10);
  set.RegisterStats(StatsScope(&registry, "sim"));
  set.queue(0).ScheduleAt(5, [] {});
  set.queue(1).ScheduleAt(15, [] {});
  set.RunUntil(100);
  EXPECT_GT(registry.ReadValue("sim.epochs"), 0.0);
  EXPECT_EQ(registry.ReadValue("sim.part0.events"), 1.0);
  EXPECT_EQ(registry.ReadValue("sim.part1.events"), 1.0);
  // Partition 1 idled while partition 0's window ran (and vice versa), so at
  // least one of them accumulated barrier stall.
  double stall = registry.ReadValue("sim.part0.barrier_stall_cycles") +
                 registry.ReadValue("sim.part1.barrier_stall_cycles");
  EXPECT_GT(stall, 0.0);
}

/// Runs a deterministic cross-partition workload and returns its execution
/// log: per-partition sequences (what ran where, at what time, in what
/// order), concatenated in partition order after the run.
std::vector<std::string> RunPingPongWorkload() {
  PartitionSet set(4, /*lookahead_ps=*/1250, /*cycle_ps=*/1250);
  std::vector<std::vector<std::string>> plogs(4);
  // Fan-out tree keyed purely by hop id (children 2id+1 / 2id+2, pruned by
  // id arithmetic): termination and shape are functions of the ids alone.
  std::function<void(uint32_t, int64_t)> hop = [&](uint32_t at, int64_t id) {
    plogs[at].push_back("@" + std::to_string(set.queue(at).Now()) + "#" +
                        std::to_string(id));
    if (id > 2000) return;
    uint32_t a = (at + 1 + static_cast<uint32_t>(id % 3)) % 4;
    uint32_t b = (at + 2) % 4;
    set.Send(at, a, (id % 7) * 100, [&, a, id] { hop(a, id * 2 + 1); });
    if (id % 3 == 0) {
      set.Send(at, b, 0, [&, b, id] { hop(b, id * 2 + 2); });
    }
  };
  for (uint32_t p = 0; p < 4; ++p) {
    set.queue(p).ScheduleAt(p * 17 + 1,
                            [&, p] { hop(p, static_cast<int64_t>(p)); });
  }
  EXPECT_FALSE(set.RunUntilTrue([] { return false; }));  // drain everything
  std::vector<std::string> log;
  for (uint32_t p = 0; p < 4; ++p) {
    for (std::string& s : plogs[p]) {
      log.push_back("p" + std::to_string(p) + s);
    }
  }
  return log;
}

/// FNV-1a over the log lines, each terminated by a newline.
uint64_t Digest(const std::vector<std::string>& log) {
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& line : log) {
    for (char c : line + "\n") {
      h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    }
  }
  return h;
}

TEST(PartitionSetTest, PingPongScheduleIsPinned) {
  // The digest pins the whole schedule: where every hop ran, at what time,
  // and in what order.
  std::vector<std::string> log = RunPingPongWorkload();
  ASSERT_EQ(log.size(), 130u);
  EXPECT_EQ(log.front(), "p0@1#0");
  EXPECT_EQ(Digest(log), 0x3f77314c73ccd578ULL);
}

}  // namespace
}  // namespace ndp::sim
