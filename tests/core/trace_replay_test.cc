// Pins what a recorded TPC-H trace replays as, independent of how the trace
// is stored: every µop ReplayStream yields and the simulated duration of
// SystemModel::ReplayTrace. A change to the record format must leave the
// digest unchanged.
#include <gtest/gtest.h>

#include "core/system.h"
#include "cpu/kernels.h"
#include "db/tpch.h"
#include "db/tpch_queries.h"
#include "db/trace.h"

namespace ndp::core {
namespace {

// FNV-1a over each field of each µop, the µop count, and the duration of
// replaying the same trace through a platform.
class TraceReplayDigestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db::tpch::TpchConfig cfg;
    cfg.scale = 0.01;
    cfg.seed = 1;
    db::tpch::Generate(cfg, &catalog_);
  }

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  void AddQuery(int q, uint32_t sample_period, uint32_t compute_scale,
                const PlatformConfig& platform) {
    db::TraceRecorder trace(sample_period, compute_scale);
    db::QueryContext ctx;
    ctx.trace = &trace;
    Mix(static_cast<uint64_t>(
        db::tpch::RunQueryByNumber(&ctx, &catalog_, q).ValueOrDie()));

    cpu::ReplayStream stream(&trace.events());
    uint64_t uops = 0;
    for (cpu::Uop u; stream.Next(&u); ++uops) {
      Mix(static_cast<uint64_t>(u.type));
      Mix(u.addr);
      Mix(u.pc);
      Mix(u.taken);
      Mix(u.latency);
      Mix(u.dep_distance);
    }
    Mix(uops);
    cpu::Uop u;
    EXPECT_FALSE(stream.Next(&u)) << "Q" << q << " restarted after its end";

    SystemModel sys(platform);
    Mix(sys.ReplayTrace(trace.events()).ValueOrDie().duration_ps);
  }

  static db::Catalog catalog_;
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

db::Catalog TraceReplayDigestTest::catalog_;

TEST_F(TraceReplayDigestTest, TpchTracesReplayMatchesGolden) {
  // perfbench tpch's CPU-only traces: every access, tight-loop compute.
  for (int q : {1, 3, 6, 18, 22}) AddQuery(q, 1, 1, PlatformConfig::Gem5());
  // A Figure 4 recorder: sampled, with interpreter-scaled compute.
  AddQuery(1, 10, 24, PlatformConfig::Xeon());
  EXPECT_EQ(hash_, 0xad87599a16e519e8ull);
}

}  // namespace
}  // namespace ndp::core
