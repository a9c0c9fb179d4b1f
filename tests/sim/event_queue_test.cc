#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/ticking.h"

namespace ndp::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.ScheduleAt(30, [&] { order.push_back(3); });
  eq.ScheduleAt(10, [&] { order.push_back(1); });
  eq.ScheduleAt(20, [&] { order.push_back(2); });
  eq.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.Now(), 30u);
}

TEST(EventQueueTest, FifoTieBreakAtSameTick) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eq.ScheduleAt(100, [&order, i] { order.push_back(i); });
  }
  eq.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ScheduleAfterIsRelative) {
  EventQueue eq;
  Tick fired_at = 0;
  eq.ScheduleAt(50, [&] {
    eq.ScheduleAfter(25, [&] { fired_at = eq.Now(); });
  });
  eq.RunUntilEmpty();
  EXPECT_EQ(fired_at, 75u);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue eq;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) eq.ScheduleAfter(5, chain);
  };
  eq.ScheduleAt(0, chain);
  uint64_t executed = eq.RunUntilEmpty();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(executed, 10u);
  EXPECT_EQ(eq.Now(), 45u);
}

TEST(EventQueueTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventQueue eq;
  int fired = 0;
  eq.ScheduleAt(10, [&] { ++fired; });
  eq.ScheduleAt(20, [&] { ++fired; });
  eq.ScheduleAt(30, [&] { ++fired; });
  eq.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.Now(), 20u);
  eq.RunUntilEmpty();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueueTest, RunUntilTrueStopsOnPredicate) {
  EventQueue eq;
  int x = 0;
  for (int i = 1; i <= 10; ++i) {
    eq.ScheduleAt(static_cast<Tick>(i * 10), [&x] { ++x; });
  }
  bool satisfied = eq.RunUntilTrue([&] { return x >= 4; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(x, 4);
  EXPECT_EQ(eq.Now(), 40u);
}

TEST(EventQueueTest, RunUntilTrueReportsFailureOnDrain) {
  EventQueue eq;
  eq.ScheduleAt(5, [] {});
  bool satisfied = eq.RunUntilTrue([] { return false; });
  EXPECT_FALSE(satisfied);
  EXPECT_TRUE(eq.empty());
}

/// Background upkeep that reschedules itself forever, like a refresh wake.
struct Upkeep {
  explicit Upkeep(EventQueue* q) : eq(q) { eq->Schedule(100, &node); }
  ~Upkeep() {
    if (node.scheduled()) eq->Cancel(&node);
  }
  void Fire() {
    ++fired;
    eq->Schedule(eq->Now() + 100, &node);
  }
  EventQueue* eq;
  int fired = 0;
  MemberEventNode<Upkeep, &Upkeep::Fire> node{this, /*background=*/true};
};

TEST(EventQueueTest, RunUntilTrueStopsWhenOnlyBackgroundEventsRemain) {
  EventQueue eq;
  Upkeep upkeep(&eq);
  bool ran = false;
  eq.ScheduleAt(250, [&] { ran = true; });
  // Background events interleave with foreground ones in time order, but
  // once the last foreground event ran the wait is over.
  EXPECT_FALSE(eq.RunUntilTrue([] { return false; }));
  EXPECT_TRUE(ran);
  EXPECT_EQ(upkeep.fired, 2);
  EXPECT_EQ(eq.Now(), 250u);
  EXPECT_TRUE(upkeep.node.scheduled());
  EXPECT_TRUE(eq.foreground_empty());
  EXPECT_FALSE(eq.empty());
  // A satisfied predicate still wins over an all-background queue.
  EXPECT_TRUE(eq.RunUntilTrue([] { return true; }));
}

TEST(EventQueueDeathTest, SchedulingIntoThePastAborts) {
  EventQueue eq;
  eq.ScheduleAt(100, [] {});
  eq.RunUntilEmpty();
  EXPECT_DEATH(eq.ScheduleAt(50, [] {}), "cannot schedule into the past");
}

}  // namespace
}  // namespace ndp::sim
