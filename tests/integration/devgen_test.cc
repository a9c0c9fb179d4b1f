// Device-generation tests (v1: the scan kinds on the
// Device::Step stream loop, v2: Device::BankScan).
//
//   * Equivalence: the v2 bank-level datapath must be functionally identical
//     to the v1 rank-IO datapath — same match count and byte-identical result
//     bitmap — and both must agree with a scalar CPU oracle. Timing may (and
//     should) differ; answers may not. Beyond the 64-bit select, a bare
//     Device of each generation runs a row-store, a packed 32-bit select and
//     a Bloom probe job, with each generation's duration pinned.
//   * Device digest: every job kind on a bare device of each generation, with
//     refresh on, in polite mode beside host traffic (v1 only: v2 rejects
//     it) and under two seeded fault plans, folded into one golden hash
//     (completions, DeviceStats, writeback checksum, output bytes, simulated
//     time, stats dump). A sequencing change in jafar::Device moves it.
//   * Strict name parsing: ParseDeviceGeneration (what NDP_DEVICE_GEN goes
//     through in the bench harness) accepts exactly the published generation
//     names; a typo is an error listing them, never a silent fallback.
//   * Determinism: for BOTH generations, a partitioned run's full stats dump
//     plus final simulated time is byte-identical across two runs on freshly
//     built arrays. The v2 command flow (ARM/DISARM, accumulator drains on
//     the per-rank result bus) adds cross-partition traffic that must stay on
//     the conservative-barrier rails like everything else.
//   * Violation injection: the ProtocolChecker's v2 filter-flow rules
//     (kBankArm, kDrainTooEarly, kResultBus, kRefreshArmed) each get a
//     deliberate protocol error asserting the checker flags exactly that
//     rule, plus a legal ARM..drain..DISARM sequence asserting silence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/dimm_array.h"
#include "dram/command.h"
#include "dram/dram_system.h"
#include "dram/protocol_checker.h"
#include "dram/request.h"
#include "dram/timing.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "jafar/device.h"
#include "jafar/generation.h"
#include "util/rng.h"
#include "util/stats_registry.h"

namespace ndp {
namespace {

db::Column RandomColumn(size_t n, uint64_t seed) {
  db::Column col = db::Column::Int64("v");
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) col.Append(rng.NextInRange(0, 999999));
  return col;
}

uint64_t Oracle(const db::Column& col, int64_t lo, int64_t hi) {
  uint64_t n = 0;
  for (size_t i = 0; i < col.size(); ++i) n += col[i] >= lo && col[i] <= hi;
  return n;
}

/// Derives the device config for `gen` against the organization DimmArray
/// builds internally (default banks/row size, the given rows_per_bank).
jafar::DeviceConfig ConfigFor(jafar::DeviceGeneration gen,
                              uint32_t rows_per_bank) {
  const dram::DramTiming timing = dram::DramTiming::DDR3_1600();
  if (gen == jafar::DeviceGeneration::kV2BankLevel) {
    dram::DramOrganization org;
    org.rows_per_bank = rows_per_bank;
    return jafar::DeviceConfig::DeriveBank(timing, org,
                                           accel::DatapathResources{})
        .ValueOrDie();
  }
  return jafar::DeviceConfig::Derive(timing, accel::DatapathResources{})
      .ValueOrDie();
}

core::DimmArray MakeArray(jafar::DeviceGeneration gen, uint32_t channels,
                          bool partitioned) {
  constexpr uint32_t kRowsPerBank = 8192;
  return core::DimmArray(dram::DramTiming::DDR3_1600(), channels,
                         /*ranks_per_channel=*/1, ConfigFor(gen, kRowsPerBank),
                         kRowsPerBank, partitioned);
}

// -- Generation equivalence ---------------------------------------------------

TEST(DevGenEquivalenceTest, V2BitmapAndMatchesIdenticalToV1) {
  db::Column col = RandomColumn(80'000, 41);
  const uint64_t oracle = Oracle(col, 150'000, 800'000);
  auto run = [&](jafar::DeviceGeneration gen) {
    core::DimmArray array = MakeArray(gen, 2, /*partitioned=*/false);
    array.AcquireAllOwnership();
    core::PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
    return array.RunParallelSelect(placed, 150'000, 800'000).ValueOrDie();
  };
  core::DimmArray::ParallelResult v1 =
      run(jafar::DeviceGeneration::kV1RankIo);
  core::DimmArray::ParallelResult v2 =
      run(jafar::DeviceGeneration::kV2BankLevel);
  EXPECT_EQ(v1.matches, oracle);
  EXPECT_EQ(v2.matches, oracle);
  ASSERT_EQ(v1.bitmap.size(), v2.bitmap.size());
  for (uint64_t w = 0; w < (col.size() + 63) / 64; ++w) {
    ASSERT_EQ(v1.bitmap.Word(w), v2.bitmap.Word(w)) << "word " << w;
  }
}

TEST(DevGenEquivalenceTest, SystemModelAgreesWithCpuForBothGenerations) {
  db::Column col = RandomColumn(48'000, 43);
  for (jafar::DeviceGeneration gen : {jafar::DeviceGeneration::kV1RankIo,
                                      jafar::DeviceGeneration::kV2BankLevel}) {
    core::PlatformConfig plat = core::PlatformConfig::Gem5();
    plat.device_gen = gen;
    core::SystemModel sys(plat);
    auto cpu = sys.RunCpuSelect(col, 0, 420'000, db::SelectMode::kBranching)
                   .ValueOrDie();
    auto jaf = sys.RunJafarSelect(col, 0, 420'000).ValueOrDie();
    EXPECT_EQ(jaf.matches, cpu.matches)
        << jafar::DeviceGenerationToString(gen);
    EXPECT_EQ(jaf.matches, Oracle(col, 0, 420'000));
  }
}

// -- Bare-device equivalence: row-store, packed 32-bit and probe jobs --------

/// One Device of `gen` on a single-channel, two-rank DIMM with refresh off,
/// owning rank 0.
class BareDevice {
 public:
  BareDevice(jafar::DeviceGeneration gen, uint32_t elem_bytes) {
    const dram::DramTiming timing = dram::DramTiming::DDR3_1600();
    dram::DramOrganization org;
    org.ranks_per_channel = 2;
    org.rows_per_bank = 1024;
    dram::ControllerConfig mc;
    mc.refresh_enabled = false;
    dram_ = std::make_unique<dram::DramSystem>(
        &eq_, timing, org, dram::InterleaveScheme::kContiguous, mc);
    jafar::DeviceConfig cfg =
        gen == jafar::DeviceGeneration::kV2BankLevel
            ? jafar::DeviceConfig::DeriveBank(timing, org,
                                              accel::DatapathResources{})
                  .ValueOrDie()
            : jafar::DeviceConfig::Derive(timing, accel::DatapathResources{})
                  .ValueOrDie();
    cfg.elem_bytes = elem_bytes;
    device_ = std::make_unique<jafar::Device>(dram_.get(), 0, 0, cfg);
    bool granted = false;
    dram_->controller(0).TransferOwnership(
        0, dram::RankOwner::kAccelerator, [&](sim::Tick) { granted = true; });
    EXPECT_TRUE(eq_.RunUntilTrue([&] { return granted; }));
  }

  dram::BackingStore& store() { return dram_->backing_store(); }

  /// Runs `job` to completion; returns its matches, its duration and the
  /// `rows`-bit bitmap it wrote at `out_base`.
  struct Outcome {
    uint64_t matches = 0;
    sim::Tick duration_ps = 0;
    std::vector<uint64_t> bitmap;
  };
  Outcome Run(const jafar::JobDescriptor& job, uint64_t out_base,
              uint64_t rows) {
    Outcome out;
    bool done = false;
    const sim::Tick start = eq_.Now();
    Status st = device_->Start(job, [&](const jafar::Completion& c) {
      EXPECT_TRUE(c.status.ok()) << c.status.ToString();
      done = true;
      out.matches = c.matches;
      out.duration_ps = c.completed_at - start;
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(eq_.RunUntilTrue([&] { return done; }));
    for (uint64_t w = 0; w < (rows + 63) / 64; ++w) {
      uint64_t word = store().Read64(out_base + w * 8);
      if ((w + 1) * 64 > rows) word &= (uint64_t{1} << (rows % 64)) - 1;
      out.bitmap.push_back(word);
    }
    return out;
  }

 private:
  sim::EventQueue eq_;
  std::unique_ptr<dram::DramSystem> dram_;
  std::unique_ptr<jafar::Device> device_;
};

constexpr uint64_t kBareIn = 0;
constexpr uint64_t kBareOut = 8 << 20;
constexpr uint64_t kBareFilter = 12 << 20;

/// Loads the same data into a bare device of each generation, runs `job` on
/// both, and checks matches against `oracle`, the two bitmaps against each
/// other, and each generation's duration against its pinned value.
void ExpectGenerationsAgree(uint32_t elem_bytes,
                            const std::function<void(dram::BackingStore&)>& load,
                            const jafar::JobDescriptor& job, uint64_t oracle,
                            sim::Tick v1_ps, sim::Tick v2_ps) {
  const uint64_t rows = jafar::JobRows(job);
  BareDevice v1dev(jafar::DeviceGeneration::kV1RankIo, elem_bytes);
  BareDevice v2dev(jafar::DeviceGeneration::kV2BankLevel, elem_bytes);
  load(v1dev.store());
  load(v2dev.store());
  BareDevice::Outcome v1 = v1dev.Run(job, kBareOut, rows);
  BareDevice::Outcome v2 = v2dev.Run(job, kBareOut, rows);
  EXPECT_EQ(v1.matches, oracle);
  EXPECT_EQ(v2.matches, oracle);
  EXPECT_EQ(v1.bitmap, v2.bitmap);
  // Pinned so a sequencing change in either generation shows up here.
  EXPECT_EQ(v1.duration_ps, v1_ps);
  EXPECT_EQ(v2.duration_ps, v2_ps);
}

TEST(DevGenBareDeviceTest, RowStoreTwoPredicatesAgree) {
  constexpr uint64_t kTuples = 20'000;
  constexpr uint32_t kTupleBytes = 24;
  Rng rng(53);
  std::vector<int64_t> tuples(kTuples * 3);
  for (int64_t& v : tuples) v = rng.NextInRange(0, 999);
  uint64_t oracle = 0;
  for (uint64_t t = 0; t < kTuples; ++t) {
    oracle += tuples[t * 3] >= 200 && tuples[t * 3] <= 700 &&
              tuples[t * 3 + 2] < 400;
  }
  jafar::RowStoreJob job;
  job.tuple_base = kBareIn;
  job.num_tuples = kTuples;
  job.tuple_bytes = kTupleBytes;
  job.predicates = {
      {0, jafar::CompareOp::kBetween, 200, 700},
      {16, jafar::CompareOp::kLt, 400, 0},
  };
  job.out_base = kBareOut;
  ExpectGenerationsAgree(
      8,
      [&](dram::BackingStore& s) {
        s.Write(kBareIn, tuples.data(), tuples.size() * 8);
      },
      job, oracle, /*v1_ps=*/39412500, /*v2_ps=*/11833750);
}

TEST(DevGenBareDeviceTest, Packed32BitSelectAgrees) {
  constexpr uint64_t kRows = 16'384;
  Rng rng(59);
  std::vector<int32_t> values(kRows);
  for (int32_t& v : values) {
    v = static_cast<int32_t>(rng.NextInRange(-100'000, 100'000));
  }
  uint64_t oracle = 0;
  for (int32_t v : values) oracle += v >= -20'000 && v <= 45'000;
  jafar::SelectJob job;
  job.col_base = kBareIn;
  job.num_rows = kRows;
  job.range_low = -20'000;
  job.range_high = 45'000;
  job.out_base = kBareOut;
  ExpectGenerationsAgree(
      4,
      [&](dram::BackingStore& s) {
        s.Write(kBareIn, values.data(), values.size() * 4);
      },
      job, oracle, /*v1_ps=*/5471250, /*v2_ps=*/1661250);
}

TEST(DevGenBareDeviceTest, TwoHashProbeAgrees) {
  constexpr uint64_t kRows = 8'192;
  constexpr uint64_t kFilterWords = 256;
  constexpr uint32_t kHashes = 2;
  Rng rng(61);
  std::vector<uint64_t> filter(kFilterWords, 0);
  for (int i = 0; i < 300; ++i) {
    uint64_t key = static_cast<uint64_t>(rng.NextInRange(0, 99'999));
    for (uint32_t h = 0; h < kHashes; ++h) {
      uint64_t bit = jafar::BloomBitIndex(key, h, kFilterWords);
      filter[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
  std::vector<int64_t> keys(kRows);
  uint64_t oracle = 0;
  for (int64_t& k : keys) {
    k = rng.NextInRange(0, 99'999);
    bool pass = true;
    for (uint32_t h = 0; h < kHashes; ++h) {
      uint64_t bit =
          jafar::BloomBitIndex(static_cast<uint64_t>(k), h, kFilterWords);
      pass = pass && ((filter[bit / 64] >> (bit % 64)) & 1);
    }
    oracle += pass;
  }
  jafar::ProbeJob job;
  job.col_base = kBareIn;
  job.num_rows = kRows;
  job.out_base = kBareOut;
  job.filter_base = kBareFilter;
  job.filter_words = kFilterWords;
  job.hash_count = kHashes;
  ExpectGenerationsAgree(
      8,
      [&](dram::BackingStore& s) {
        s.Write(kBareIn, keys.data(), keys.size() * 8);
        s.Write(kBareFilter, filter.data(), filter.size() * 8);
      },
      job, oracle, /*v1_ps=*/10676250, /*v2_ps=*/1751250);
}

// -- Device digest: every job kind, both generations, with and without faults -

/// One bare device (refresh on, two ranks) run through a fixed job list; the
/// digest folds everything the device exposes after each job. A sequencing
/// change anywhere in jafar::Device moves the golden value.
class DeviceDigestTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kCol = 0;          // 64-bit column (or packed halves)
  static constexpr uint64_t kKeys = 1 << 20;   // group-by keys in [0, 300)
  static constexpr uint64_t kTuples = 2 << 20;  // 24-byte row-store tuples
  static constexpr uint64_t kFilter = 3 << 20;  // Bloom image
  static constexpr uint64_t kBitmap = 4 << 20;  // pre-filter bitmap
  static constexpr uint64_t kOut = 8 << 20;
  static constexpr uint64_t kRows = 24'000;
  static constexpr uint64_t kTupleCount = 5'003;
  static constexpr uint64_t kFilterWords = 256;
  // Each job is aborted 40 us after Start, near the driver watchdog's 50 us
  // base: a stuck job that held the rank much longer would starve refresh
  // past the 9 x tREFI bound the protocol-check build enforces.
  static constexpr sim::Tick kDeadlinePs = 40'000'000;

  struct Rig {
    Rig(jafar::DeviceGeneration gen, uint32_t elem_bytes, bool polite,
        const fault::FaultPlan* plan) {
      const dram::DramTiming timing = dram::DramTiming::DDR3_1600();
      dram::DramOrganization org;
      org.ranks_per_channel = 2;
      org.rows_per_bank = 1024;
      dram = std::make_unique<dram::DramSystem>(
          &eq, timing, org, dram::InterleaveScheme::kContiguous,
          dram::ControllerConfig{}, StatsScope(&stats, "dram"));
      jafar::DeviceConfig cfg =
          gen == jafar::DeviceGeneration::kV2BankLevel
              ? jafar::DeviceConfig::DeriveBank(timing, org,
                                                accel::DatapathResources{})
                    .ValueOrDie()
              : jafar::DeviceConfig::Derive(timing, accel::DatapathResources{})
                    .ValueOrDie();
      cfg.elem_bytes = elem_bytes;
      cfg.require_ownership = !polite;
      device = std::make_unique<jafar::Device>(dram.get(), 0, 0, cfg,
                                               StatsScope(&stats, "jafar"));
      if (plan != nullptr) {
        injector = std::make_unique<fault::FaultInjector>(
            *plan, StatsScope(&stats, "fault"));
        device->set_fault_injector(injector.get());
      }
      if (!polite) {
        bool granted = false;
        dram->controller(0).TransferOwnership(
            0, dram::RankOwner::kAccelerator,
            [&](sim::Tick) { granted = true; });
        EXPECT_TRUE(eq.RunUntilTrue([&] { return granted; }));
      }
    }

    sim::EventQueue eq;
    StatsRegistry stats;
    std::unique_ptr<dram::DramSystem> dram;
    std::unique_ptr<jafar::Device> device;
    std::unique_ptr<fault::FaultInjector> injector;
  };

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  static void Load(dram::BackingStore& s, uint32_t elem_bytes) {
    Rng rng(71);
    if (elem_bytes == 4) {
      std::vector<int32_t> col(kRows);
      for (int32_t& v : col) {
        v = static_cast<int32_t>(rng.NextInRange(-100'000, 100'000));
      }
      s.Write(kCol, col.data(), col.size() * 4);
    } else {
      std::vector<int64_t> col(kRows);
      for (int64_t& v : col) v = rng.NextInRange(0, 999'999);
      s.Write(kCol, col.data(), col.size() * 8);
    }
    std::vector<int64_t> keys(kRows);
    for (int64_t& k : keys) k = rng.NextInRange(0, 299);
    s.Write(kKeys, keys.data(), keys.size() * 8);
    std::vector<int64_t> tuples(kTupleCount * 3);
    for (int64_t& v : tuples) v = rng.NextInRange(0, 999);
    s.Write(kTuples, tuples.data(), tuples.size() * 8);
    std::vector<uint64_t> filter(kFilterWords);
    for (uint64_t& w : filter) w = rng.NextU64() & rng.NextU64();
    s.Write(kFilter, filter.data(), filter.size() * 8);
    std::vector<uint64_t> bitmap((kRows + 63) / 64);
    for (uint64_t& w : bitmap) w = rng.NextU64();
    s.Write(kBitmap, bitmap.data(), bitmap.size() * 8);
  }

  static std::vector<jafar::JobDescriptor> Jobs() {
    std::vector<jafar::JobDescriptor> jobs;
    jafar::SelectJob sel;  // fills the 4096-bit output buffer mid-scan
    sel.col_base = kCol;
    sel.num_rows = 10'003;
    sel.range_low = -50'000;
    sel.range_high = 700'000;
    sel.out_base = kOut;
    jobs.push_back(sel);
    sel.num_rows = 3'001;  // masked writeback, one-sided predicate
    sel.op = jafar::CompareOp::kLt;
    sel.range_low = 300'000;
    sel.masked_writeback = true;
    sel.writeback_mask = 0x5555'5555'5555'5555ull;
    jobs.push_back(sel);
    jafar::RowStoreJob rs;
    rs.tuple_base = kTuples;
    rs.num_tuples = kTupleCount;
    rs.tuple_bytes = 24;
    rs.predicates = {{0, jafar::CompareOp::kBetween, 200, 700},
                     {16, jafar::CompareOp::kLt, 400, 0}};
    rs.out_base = kOut;
    jobs.push_back(rs);
    jafar::ProbeJob probe;
    probe.col_base = kCol;
    probe.num_rows = 6'001;
    probe.out_base = kOut;
    probe.filter_base = kFilter;
    probe.filter_words = kFilterWords;
    probe.hash_count = 2;
    jobs.push_back(probe);
    for (uint64_t bitmap : {uint64_t{0}, kBitmap}) {
      jafar::AggregateJob agg;  // partial final burst (3,003 % 8 == 3)
      agg.col_base = kCol;
      agg.num_rows = 3'003;
      agg.kind = bitmap ? jafar::AggKind::kMax : jafar::AggKind::kSum;
      agg.bitmap_base = bitmap;
      agg.out_addr = kOut + 8;
      jobs.push_back(agg);
      jafar::GroupByJob gb;  // last chunk 452 rows; keys 0..9 outside window
      gb.key_base = kKeys;
      gb.val_base = kCol;
      gb.num_rows = 2'500;
      gb.kind = bitmap ? jafar::AggKind::kCount : jafar::AggKind::kSum;
      gb.key_offset = 10;
      gb.bitmap_base = bitmap;
      gb.out_base = kOut;
      jobs.push_back(gb);
    }
    jafar::ProjectJob proj;  // ~10k values through a 512-value buffer
    proj.col_base = kCol;
    proj.num_rows = 20'003;
    proj.bitmap_base = kBitmap;
    proj.out_base = kOut;
    jobs.push_back(proj);
    jafar::SortJob sort;  // blocks of 1024, 1024, 452
    sort.col_base = kCol;
    sort.num_rows = 2'500;
    sort.out_base = kOut;
    jobs.push_back(sort);
    sort.num_rows = 1'500;
    sort.descending = true;
    jobs.push_back(sort);
    return jobs;
  }

  /// Runs every job on a fresh rig and folds the outcome into the digest.
  void RunRig(jafar::DeviceGeneration gen, uint32_t elem_bytes, bool polite,
              const fault::FaultPlan* plan) {
    Rig rig(gen, elem_bytes, polite, plan);
    dram::BackingStore& store = rig.dram->backing_store();
    Load(store, elem_bytes);
    // Polite mode shares the channel with a stream of host reads to rank 1.
    const uint64_t rank1 = rig.dram->organization().BytesPerRank();
    uint64_t host_issued = 0;
    std::function<void()> pump = [&] {
      if (host_issued >= 4000) return;
      dram::Request r;
      r.addr = rank1 + (host_issued % 1024) * 64;
      r.on_complete = [&](sim::Tick) { pump(); };
      if (rig.dram->EnqueueRequest(r).ok()) ++host_issued;
    };
    const std::vector<uint64_t> zeros(kRows, 0);
    for (const jafar::JobDescriptor& job : Jobs()) {
      store.Write(kOut, zeros.data(), zeros.size() * 8);
      if (polite) {
        for (int i = 0; i < 8; ++i) pump();
      }
      bool called = false;
      jafar::Completion done;
      Status st = rig.device->Start(job, [&](const jafar::Completion& c) {
        called = true;
        done = c;
      });
      Mix(static_cast<uint64_t>(st.code()));
      // Stepped by hand, not RunUntilTrue: a stuck job leaves only refresh
      // pending, and the digest pins the run to its full deadline.
      const sim::Tick deadline = rig.eq.Now() + kDeadlinePs;
      while (!called && rig.device->busy() && rig.eq.Now() < deadline &&
             rig.eq.Step()) {
      }
      rig.device->AbortJob();  // no-op unless stalled, hung or late
      Mix(called);
      Mix(static_cast<uint64_t>(done.status.code()));
      Mix(done.matches);
      Mix(done.completed_at);
      Mix(done.pages);
      const jafar::DeviceStats& s = rig.device->stats();
      for (uint64_t v :
           {s.jobs_completed, s.jobs_failed, s.rows_processed, s.matches,
            s.bursts_read, s.bursts_written, s.activates, s.data_wait_ps,
            s.engine_busy_ps, s.total_busy_ps, s.polite_backoffs,
            s.refresh_backoffs}) {
        Mix(v);
      }
      uint64_t energy_bits;
      std::memcpy(&energy_bits, &s.energy_fj, 8);
      Mix(energy_bits);
      Mix(rig.device->last_result_checksum());
      for (uint64_t w = 0; w < kRows; ++w) Mix(store.Read64(kOut + w * 8));
      Mix(rig.eq.Now());
    }
    for (char c : rig.stats.Snapshot().ToText()) {
      Mix(static_cast<uint8_t>(c));
    }
  }

  uint64_t hash_ = 0xcbf29ce484222325ull;
};

TEST_F(DeviceDigestTest, EveryJobKindOnBothGenerationsMatchesGolden) {
  fault::FaultPlan faults;
  faults.ecc_ce_per_burst = 0.01;
  faults.ecc_ue_per_burst = 0.0001;
  faults.hang_per_job = 0.03;
  faults.stall_per_burst = 0.0001;
  faults.corrupt_per_flush = 0.2;
  faults.drop_per_completion = 0.1;
  fault::FaultPlan other = faults;
  other.seed = 7;
  for (jafar::DeviceGeneration gen : {jafar::DeviceGeneration::kV1RankIo,
                                      jafar::DeviceGeneration::kV2BankLevel}) {
    for (const fault::FaultPlan* plan : {static_cast<fault::FaultPlan*>(nullptr),
                                         &faults, &other}) {
      RunRig(gen, /*elem_bytes=*/8, /*polite=*/false, plan);
      RunRig(gen, /*elem_bytes=*/4, /*polite=*/false, plan);
      // v2 rejects polite mode at Start, so its rows hash the rejection.
      RunRig(gen, /*elem_bytes=*/8, /*polite=*/true, plan);
    }
  }
  EXPECT_EQ(hash_, 0x886aedc8280b00b7ull);
}

// A v2 device's armed-bank waves cannot yield the rank mid-wave, so polite
// mode (no rank ownership) would back off forever; Start refuses it instead.
using DeviceOwnershipTest = DeviceDigestTest;

TEST_F(DeviceOwnershipTest, BankLevelRejectsEveryJobWithoutRankOwnership) {
  Rig rig(jafar::DeviceGeneration::kV2BankLevel, /*elem_bytes=*/8,
          /*polite=*/true, /*plan=*/nullptr);
  for (const jafar::JobDescriptor& job : Jobs()) {
    Status st = rig.device->Start(job, nullptr);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_FALSE(rig.device->busy());
  }
}

// -- Strict generation-name parsing ------------------------------------------
// bench::EnvGenerations parses NDP_DEVICE_GEN with ParseDeviceGeneration.

TEST(DevGenConfigTest, EnvAcceptsPublishedNamesOnly) {
  auto v1 = jafar::ParseDeviceGeneration("v1_rank_io");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1.value(), jafar::DeviceGeneration::kV1RankIo);
  auto v2 = jafar::ParseDeviceGeneration("v2_bank_level");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value(), jafar::DeviceGeneration::kV2BankLevel);
  for (const char* near_miss : {"", "v1", "V1_RANK_IO", " v1_rank_io"}) {
    EXPECT_FALSE(jafar::ParseDeviceGeneration(near_miss).ok()) << near_miss;
  }
}

TEST(DevGenConfigTest, UnknownNameFailsListingValidOnes) {
  auto gen = jafar::ParseDeviceGeneration("v3_vault_level");
  ASSERT_FALSE(gen.ok());
  // The error must name the valid generations — a typo'd knob that silently
  // fell back would invalidate a whole sweep.
  EXPECT_NE(gen.status().ToString().find("v1_rank_io"), std::string::npos);
  EXPECT_NE(gen.status().ToString().find("v2_bank_level"), std::string::npos);
}

TEST(DevGenConfigTest, V2ConfigDerivesValidFilterTiming) {
  dram::DramOrganization org;
  jafar::DeviceConfig cfg = ConfigFor(jafar::DeviceGeneration::kV2BankLevel,
                                      org.rows_per_bank);
  EXPECT_TRUE(cfg.bank_filter.valid());
  EXPECT_GT(cfg.bank_words_per_cycle, 0.0);
  EXPECT_GT(cfg.bank_energy_per_word_fj, 0.0);
  // One invocation must cover a whole wave (one row in every bank) or the
  // bank parallelism the generation exists for can never materialize.
  EXPECT_EQ(cfg.scan_chunk_bytes,
            static_cast<uint64_t>(org.banks_per_rank) * org.row_size_bytes);
}

// -- Run-to-run determinism, both generations ---------------------------------

/// Partitioned 4-channel run for one generation; returns the full registry
/// dump plus the final simulated time.
std::string RunPartitionedWorkload(jafar::DeviceGeneration gen) {
  core::DimmArray array = MakeArray(gen, 4, /*partitioned=*/true);
  array.AcquireAllOwnership();
  db::Column col = RandomColumn(64'000, 47);
  core::PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  auto result =
      array.RunParallelSelect(placed, 200'000, 900'000).ValueOrDie();
  EXPECT_EQ(result.matches, Oracle(col, 200'000, 900'000));
  return array.stats().Snapshot().ToText() + "\nnow=" +
         std::to_string(array.eq().Now());
}

class DevGenDeterminismTest
    : public ::testing::TestWithParam<jafar::DeviceGeneration> {};

TEST_P(DevGenDeterminismTest, DumpIsByteIdenticalAcrossRuns) {
  std::string first = RunPartitionedWorkload(GetParam());
  EXPECT_EQ(RunPartitionedWorkload(GetParam()), first)
      << "second run diverged for "
      << jafar::DeviceGenerationToString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    BothGenerations, DevGenDeterminismTest,
    ::testing::Values(jafar::DeviceGeneration::kV1RankIo,
                      jafar::DeviceGeneration::kV2BankLevel),
    [](const ::testing::TestParamInfo<jafar::DeviceGeneration>& param) {
      return std::string(jafar::DeviceGenerationToString(param.param));
    });

// -- ProtocolChecker violation injection (v2 filter-flow rules) ---------------

/// Standalone checker with the v2 filter timing installed on rank 0. Command
/// times are chosen so the JEDEC windows (tRCD=11, tRAS=28, tRTP=6) are
/// honoured and only the filter rule under test trips.
class FilterCheckerTest : public ::testing::Test {
 protected:
  void Init(uint32_t fill_latency, uint32_t min_rd_spacing,
            uint32_t drain_cycles) {
    filter_.fill_latency_cycles = fill_latency;
    filter_.min_rd_spacing_cycles = min_rd_spacing;
    filter_.drain_cycles = drain_cycles;
    checker_.Configure(&timing_, &org_);
    checker_.set_bank_filter_timing(0, &filter_);
  }

  sim::Tick C(uint64_t cycles) const { return cycles * timing_.tck_ps; }

  void Arm(uint64_t cycle, uint32_t bank) {
    checker_.Observe(dram::Command{dram::CommandType::kBankArm, 0, bank},
                     C(cycle));
  }
  void Disarm(uint64_t cycle, uint32_t bank) {
    checker_.Observe(dram::Command{dram::CommandType::kBankDisarm, 0, bank},
                     C(cycle));
  }
  void Act(uint64_t cycle, uint32_t bank, uint32_t row = 0) {
    checker_.Observe(dram::Command{dram::CommandType::kActivate, 0, bank, row},
                     C(cycle));
  }
  void Rd(uint64_t cycle, uint32_t bank, uint32_t row = 0) {
    checker_.Observe(dram::Command{dram::CommandType::kRead, 0, bank, row},
                     C(cycle));
  }
  void Pre(uint64_t cycle, uint32_t bank) {
    checker_.Observe(dram::Command{dram::CommandType::kPrecharge, 0, bank},
                     C(cycle));
  }
  void Ref(uint64_t cycle) {
    checker_.Observe(dram::Command{dram::CommandType::kRefresh, 0}, C(cycle));
  }

  void ExpectOnly(dram::TimingRule rule) {
    ASSERT_EQ(checker_.violations().size(), 1u) << checker_.Report();
    EXPECT_EQ(checker_.violations()[0].rule, rule) << checker_.Report();
  }

  dram::DramTiming timing_ = dram::DramTiming::DDR3_1600();
  dram::DramOrganization org_;
  dram::BankFilterTiming filter_;
  dram::ProtocolChecker checker_;
};

TEST_F(FilterCheckerTest, LegalFilterFlowStaysSilent) {
  Init(/*fill=*/8, /*spacing=*/8, /*drain=*/16);
  Arm(0, 0);
  Act(2, 0);
  Rd(13, 0);   // >= ACT + tRCD(11)
  Rd(21, 0);   // >= previous filter RD + spacing(8)
  Pre(40, 0);  // >= ACT + tRAS(28=30), >= RD + tRTP, >= fill_ready(29): drains
  Disarm(60, 0);
  EXPECT_EQ(checker_.violations().size(), 0u) << checker_.Report();
}

TEST_F(FilterCheckerTest, ArmWithoutFilterTimingFlagged) {
  // No set_bank_filter_timing: the rank has no comparator timing installed,
  // so ARM itself is the violation.
  checker_.Configure(&timing_, &org_);
  Arm(0, 0);
  ExpectOnly(dram::TimingRule::kBankArm);
}

TEST_F(FilterCheckerTest, DoubleArmFlagged) {
  Init(8, 8, 16);
  Arm(0, 0);
  Arm(4, 0);
  ExpectOnly(dram::TimingRule::kBankArm);
}

TEST_F(FilterCheckerTest, DisarmOfUnarmedBankFlagged) {
  Init(8, 8, 16);
  Disarm(0, 0);
  ExpectOnly(dram::TimingRule::kBankArm);
}

TEST_F(FilterCheckerTest, FilterReadFasterThanComparatorFlagged) {
  Init(/*fill=*/8, /*spacing=*/8, /*drain=*/16);
  Arm(0, 0);
  Act(2, 0);
  Rd(13, 0);
  Rd(17, 0);  // 4 < spacing(8): faster than the per-bank comparator drains it
  ExpectOnly(dram::TimingRule::kTccd);
}

TEST_F(FilterCheckerTest, DrainBeforeMatchBitsLatchedFlagged) {
  // Slow comparator: the last RD's match bits latch at 13 + 64 = cycle 77,
  // but the PRE lands at 41 — legal by every JEDEC window (tRAS ends at 30,
  // tRTP at 19), illegal only as an accumulator drain.
  Init(/*fill=*/64, /*spacing=*/8, /*drain=*/16);
  Arm(0, 0);
  Act(2, 0);
  Rd(13, 0);
  Pre(41, 0);
  ExpectOnly(dram::TimingRule::kDrainTooEarly);
}

TEST_F(FilterCheckerTest, OverlappingDrainsOnResultBusFlagged) {
  // Two armed banks drain back to back: bank 0's PRE at 33 occupies the
  // per-rank result bus until 33 + 16 = 49, so bank 1's PRE at 40 overlaps.
  Init(/*fill=*/4, /*spacing=*/8, /*drain=*/16);
  Arm(0, 0);
  Arm(1, 1);
  Act(2, 0);
  Act(10, 1);
  Rd(13, 0);
  Rd(21, 1);
  Pre(33, 0);
  Pre(40, 1);
  ExpectOnly(dram::TimingRule::kResultBus);
}

TEST_F(FilterCheckerTest, RefreshToRankWithArmedBankFlagged) {
  Init(8, 8, 16);
  Arm(0, 0);
  Ref(10);
  ExpectOnly(dram::TimingRule::kRefreshArmed);
}

TEST_F(FilterCheckerTest, FilterResetClearsShadowArmedState) {
  // A device job abort disarms the banks out of band; after the mirrored
  // NoteBankFilterReset a refresh is legal again and a fresh ARM is not a
  // double arm.
  Init(8, 8, 16);
  Arm(0, 0);
  checker_.NoteBankFilterReset(0);
  Ref(10);
  Arm(220, 0);  // after tRFC(208) from the REF
  EXPECT_EQ(checker_.violations().size(), 0u) << checker_.Report();
}

}  // namespace
}  // namespace ndp
