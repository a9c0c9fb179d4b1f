// Soak tests: the runtime's host memory must track the work in flight, not
// the work ever submitted. A serving process and a query engine both run for
// as long as the database does, so a per-request allocation that is never
// freed is a leak that only a long run shows.
//
// This binary replaces global operator new/delete with a live-allocation
// counter. Each test runs the same workload twice, one run ten times as long
// as the other, and compares the allocations still live after each: the
// difference must stay within a small constant however many requests ran.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "core/ingress.h"
#include "core/runtime.h"
#include "db/operators.h"
#include "util/rng.h"

namespace {
std::atomic<int64_t> g_live_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocations.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace ndp::core {
namespace {

int64_t LiveAllocations() {
  return g_live_allocations.load(std::memory_order_relaxed);
}

/// Growth allowed between the short and the long run: lazily sized
/// containers (wheel buckets, deque blocks) may settle a little higher in a
/// longer run, but never by anything that scales with the request count.
constexpr int64_t kSlack = 64;

db::Column RandomColumn(size_t n, uint64_t seed) {
  db::Column col = db::Column::Int64("v");
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) col.Append(rng.NextInRange(0, 999'999));
  return col;
}

jafar::DeviceConfig Config() {
  return jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                     accel::DatapathResources{})
      .ValueOrDie();
}

// -- Serving path -------------------------------------------------------------

/// A governed policy with a small slot pool and a cheap CPU fallback, so a
/// run near saturation exercises every outcome: NDP completions, brownout
/// fallbacks, sheds at the door and by the governor, and deadline misses.
IngressConfig SoakIngressConfig() {
  IngressConfig cfg;
  cfg.rings = 2;
  cfg.ring_capacity = 64;
  cfg.slots = 64;
  cfg.burst = 16;
  cfg.governor_poll_bus_cycles = 2'000;
  cfg.brownout_ndp_inflight = 8;
  cfg.cpu_scan_bus_cycles_per_row = 1;
  return cfg;
}

std::vector<TenantSpec> SoakTenants() {
  TenantSpec interactive;
  interactive.name = "interactive";
  interactive.priority = JobPriority::kInteractive;
  interactive.deadline_ps = 30'000'000;
  TenantSpec batch;
  batch.name = "batch";
  batch.priority = JobPriority::kBatch;
  batch.deadline_ps = 120'000'000;
  return {interactive, batch};
}

struct ServingTally {
  int64_t live_growth = 0;  ///< live allocations after the run minus before
  uint64_t issued = 0;
  uint64_t callbacks = 0;
  uint64_t ok = 0;
  uint64_t cpu_fallback = 0;
  uint64_t shed = 0;
  uint64_t late = 0;
  uint64_t failed = 0;
};

/// Drives `requests` selects through a ServingIngress over a 4-device array
/// in alternating light and overloaded phases, then drains.
ServingTally RunServing(uint64_t requests) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(1024, 91);
  PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  std::vector<TenantSpec> tenants = SoakTenants();
  ServingIngress ingress(&runtime, &array, SoakIngressConfig(), tenants);
  EXPECT_EQ(ingress.AddTable(&col, &placed), 0u);
  sim::EventQueue& eq = array.eq();

  ServingTally tally;
  auto on_done = [&tally](const ServingResult& r) {
    ++tally.callbacks;
    switch (r.outcome) {
      case ServeOutcome::kOk: ++tally.ok; break;
      case ServeOutcome::kOkCpuFallback: ++tally.cpu_fallback; break;
      case ServeOutcome::kShedRingFull:
      case ServeOutcome::kShedSlotsExhausted:
      case ServeOutcome::kShedLowPriority:
      case ServeOutcome::kShedRetryBudget: ++tally.shed; break;
      case ServeOutcome::kExpiredAtAdmission:
      case ServeOutcome::kDeadlineExceeded: ++tally.late; break;
      case ServeOutcome::kFailed: ++tally.failed; break;
    }
  };
  Rng rng(92);
  std::function<void()> issue = [&] {
    const uint64_t i = tally.issued++;
    ServingRequest req;
    req.tenant = rng.NextInRange(0, 9) < 6 ? 0 : 1;
    req.table = 0;
    req.lo = rng.NextInRange(0, 900'000);
    req.hi = req.lo + 50'000;
    req.deadline_ps = eq.Now() + tenants[req.tenant].deadline_ps;
    ingress.Enqueue(static_cast<uint32_t>(i % 2), req, on_done);
    if (tally.issued == requests) return;
    // Phases of 500 requests: light (one per 8 us), then overloaded (one
    // per 0.5 us), so the governor climbs to brownout and back each cycle.
    const bool overload = (tally.issued / 500) % 2 == 1;
    eq.ScheduleAfter(overload ? 500'000 : 8'000'000, issue);
  };

  ingress.Start();
  const int64_t before = LiveAllocations();
  eq.ScheduleAfter(1'000'000, issue);
  EXPECT_TRUE(array.RunUntilTrue([&] { return tally.issued == requests; }));
  ingress.Stop();
  EXPECT_TRUE(ingress.Drain().ok());
  EXPECT_TRUE(runtime.Drain().ok());
  tally.live_growth = LiveAllocations() - before;
  return tally;
}

TEST(SoakTest, ServingHostMemoryStaysFlatOverTwentyThousandRequests) {
  ServingTally shorter = RunServing(2'000);
  ServingTally longer = RunServing(20'000);
  for (const ServingTally* t : {&shorter, &longer}) {
    EXPECT_EQ(t->callbacks, t->issued) << "one terminal outcome per request";
    EXPECT_EQ(t->issued,
              t->ok + t->cpu_fallback + t->shed + t->late + t->failed);
  }
  // The long run must actually reach every path the serving door has.
  EXPECT_GT(longer.ok, 0u);
  EXPECT_GT(longer.cpu_fallback, 0u);
  EXPECT_GT(longer.shed, 0u);
  EXPECT_LE(longer.live_growth, shorter.live_growth + kSlack)
      << "live allocations grew with the number of requests served: "
      << shorter.live_growth << " after " << shorter.issued << ", "
      << longer.live_growth << " after " << longer.issued;
}

// -- Pushdown hook ------------------------------------------------------------

/// Calls the runtime's pushdown hook `calls` times and returns the live
/// allocations left behind.
int64_t RunPushdownHook(uint64_t calls) {
  DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, Config());
  NdpRuntime runtime(&array, RuntimeConfig{});
  db::Column col = RandomColumn(4096, 93);
  db::NdpSelectHook hook = runtime.MakePushdownHook();
  // The first call places the column (cached for every later call).
  EXPECT_TRUE(hook(col, db::Pred::Between(0, 10)).ok());
  const int64_t before = LiveAllocations();
  for (uint64_t i = 0; i < calls; ++i) {
    const int64_t lo = static_cast<int64_t>(i % 20) * 50'000;
    Result<db::PositionList> rows =
        hook(col, db::Pred::Between(lo, lo + 49'999));
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  }
  return LiveAllocations() - before;
}

TEST(SoakTest, PushdownHookLeavesNothingBehind) {
  const int64_t shorter = RunPushdownHook(50);
  const int64_t longer = RunPushdownHook(500);
  EXPECT_LE(longer, shorter + kSlack)
      << "live allocations grew with the number of hook calls: " << shorter
      << " after 50, " << longer << " after 500";
}

}  // namespace
}  // namespace ndp::core
