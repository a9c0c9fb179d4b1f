// Round-trip property of the trace record format: whatever the recorder is
// fed, ReplayStream yields exactly the per-access µops it would without any
// folding — each kept access's compute gap as independent ALU µops, then the
// access. The generator interleaves strided lanes so that kRun records form,
// break and restart.
#include <gtest/gtest.h>

#include <vector>

#include "cpu/kernels.h"
#include "db/trace.h"
#include "util/rng.h"

namespace ndp::db {
namespace {

using cpu::TraceEvent;
using cpu::Uop;
using cpu::UopType;

/// One access as fed to the recorder, and as replay must yield it: `gap`
/// ALU µops, then the load or store.
struct Access {
  uint64_t gap = 0;
  UopType type = UopType::kLoad;
  uint64_t addr = 0;
  bool operator==(const Access&) const = default;
};

/// One strided lane of a loop: its address advances by `stride` (modulo the
/// 46-bit record field) on every iteration.
struct Lane {
  UopType type = UopType::kLoad;
  uint64_t addr = 0;
  uint64_t stride = 0;
  uint64_t gap = 0;
};

UopType PickType(Rng* rng) {
  return rng->NextBounded(2) == 1 ? UopType::kStore : UopType::kLoad;
}

uint64_t PickGap(Rng* rng) {
  const uint32_t r = rng->NextBounded(16);
  if (r == 0) return TraceEvent::kMaxCompute;
  if (r == 1) return 70000;  // wider than the compute field: a kCompute
  return r < 8 ? rng->NextBounded(40) : 0;
}

uint64_t PickAddr(Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0:
      return 0;
    case 1:
      return TraceEvent::kMaxValue;
    default:
      return rng->NextU64() & TraceEvent::kMaxValue;
  }
}

/// Loops of 1-6 interleaved strided lanes (periods 3, 5 and 6 are ones the
/// encoder never targets), with the occasional stray access or one-off gap
/// in the middle of a loop.
std::vector<Access> GenerateAccesses(uint64_t seed) {
  Rng rng(seed);
  std::vector<Access> out;
  for (int loop = 0; loop < 25; ++loop) {
    std::vector<Lane> lanes(1 + rng.NextBounded(6));
    for (Lane& lane : lanes) {
      lane.type = PickType(&rng);
      lane.addr = PickAddr(&rng);
      const int64_t stride =
          static_cast<int64_t>(rng.NextBounded(4097)) - 2048;  // may be < 0
      lane.stride = static_cast<uint64_t>(stride * 8);
      lane.gap = PickGap(&rng);
    }
    const uint32_t iterations = rng.NextBounded(40);
    for (uint32_t i = 0; i < iterations; ++i) {
      for (Lane& lane : lanes) {
        const uint32_t r = rng.NextBounded(50);
        if (r == 0) out.push_back({0, PickType(&rng), PickAddr(&rng)});
        const uint64_t gap = r == 1 ? PickGap(&rng) : lane.gap;
        out.push_back({gap, lane.type, lane.addr});
        lane.addr = (lane.addr + lane.stride) & TraceEvent::kMaxValue;
      }
    }
  }
  return out;
}

std::vector<Access> Drain(cpu::UopStream* s) {
  std::vector<Access> out;
  uint64_t alus = 0;
  uint64_t odd_fields = 0;  // µops with a field a replayed µop never sets
  for (Uop u; s->Next(&u);) {
    odd_fields += u.pc != 0 || u.taken || u.latency != 1 ||
                  u.dep_distance != 0 ||
                  (u.type == UopType::kAlu && u.addr != 0);
    if (u.type == UopType::kAlu) {
      ++alus;
    } else {
      out.push_back({alus, u.type, u.addr});
      alus = 0;
    }
  }
  EXPECT_EQ(odd_fields, 0u);
  EXPECT_EQ(alus, 0u) << "compute after the last access";
  return out;
}

TEST(TraceRunRoundTripTest, ReplayYieldsTheHandExpandedAccesses) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const std::vector<Access> accesses = GenerateAccesses(seed);
    for (uint32_t period : {1u, 10u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " sample_period "
                                      << period);
      TraceRecorder trace(period);
      // Mirrors TraceRecorder's deterministic sampler to know which
      // accesses it keeps; a skipped access drops its compute with it.
      Rng sampler(0x7ace5eedULL);
      std::vector<Access> expected;
      for (const Access& a : accesses) {
        trace.Compute(a.gap);
        a.type == UopType::kStore ? trace.Store(a.addr) : trace.Load(a.addr);
        if (period == 1 || sampler.NextBounded(period) == 0) {
          expected.push_back(a);
        }
      }
      ASSERT_EQ(trace.total_accesses(), accesses.size());
      cpu::ReplayStream replay(&trace.events());
      const std::vector<Access> got = Drain(&replay);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i]) << "access " << i;
      }
      Uop u;
      EXPECT_FALSE(replay.Next(&u));
      if (period == 1) {  // runs formed: fewer records than accesses
        EXPECT_LT(trace.events().size(), expected.size());
      }
    }
  }
}

TEST(TraceRunRoundTripTest, StridedLanesFoldIntoAFewRecords) {
  for (uint32_t lanes : {1u, 2u, 4u}) {
    TraceRecorder trace;
    for (uint64_t i = 0; i < 1000; ++i) {
      for (uint64_t l = 0; l < lanes; ++l) {
        trace.Compute(l + 3);
        // Lane l walks down from its own base at a stride of its own.
        const uint64_t addr = (l + 1) * 0x100000 - i * 8 * (l + 1);
        l % 2 == 0 ? trace.Load(addr) : trace.Store(addr);
      }
    }
    // Plain records until each lane has two accesses behind it, then one
    // run for the rest of the loop.
    EXPECT_LE(trace.events().size(), 2 * lanes + 1) << lanes << " lanes";
  }
}

}  // namespace
}  // namespace ndp::db
