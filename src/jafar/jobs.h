// Job descriptors for the operations JAFAR can execute: the select of §2.2
// plus the §4 extensions (aggregation, projection, row-store multi-predicate
// filters, sort, group-by, semijoin probe). A job always targets physically
// contiguous data within one rank — the driver (and ultimately the OS, per §4
// "Memory Management") guarantees this by pinning and translating pages
// before invocation. Every kind travels the same path: a JobDescriptor goes
// down through Driver::Submit and Device::Start, and one Completion comes
// back up.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "sim/time.h"
#include "util/status.h"

namespace ndp::jafar {

/// Predicate comparison operators supported by the filter datapath (§2.2:
/// =, <, >, <=, >= — ranges use both ALUs).
enum class CompareOp : uint8_t {
  kEq,
  kLt,
  kGt,
  kLe,
  kGe,
  kBetween,  ///< range_low <= x <= range_high (inclusive, Figure 2)
};

// ndp-lint: test-only-ok names predicates in test failure messages
const char* CompareOpToString(CompareOp op);

/// Evaluates `op` on a value (host-side golden semantics, also used by the
/// device's functional model).
bool EvalCompare(CompareOp op, int64_t value, int64_t lo, int64_t hi);

/// \brief Select: filter a column, produce a bitmap (Figure 2's API shape).
struct SelectJob {
  uint64_t col_base = 0;    ///< physical address of the column data
  uint64_t num_rows = 0;
  CompareOp op = CompareOp::kBetween;
  int64_t range_low = 0;
  int64_t range_high = 0;
  uint64_t out_base = 0;    ///< physical address of the output bitmap
  /// Word-granularity interleave handling (§2.2): when true, bitmap
  /// write-back merges under a mask instead of overwriting whole words.
  bool masked_writeback = false;
  uint64_t writeback_mask = ~uint64_t{0};
  /// Completion-poll word (§2.2): the driver stores its done flag here once
  /// every page of the select finished (0 = none). The device ignores it.
  uint64_t flag_addr = 0;
};

/// Aggregation kinds (§4 "Aggregations").
enum class AggKind : uint8_t { kSum, kMin, kMax, kCount };

/// The fold identity of `kind`: what an accumulator holds before any row.
inline int64_t AggIdentity(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kCount: return 0;
    case AggKind::kMin: return INT64_MAX;
    case AggKind::kMax: return INT64_MIN;
  }
  return 0;
}

/// Folds `v` into the accumulator `acc` of `kind`. `v` is one row's
/// contribution (a count row contributes 1) or another partial of the same
/// kind: sums and counts add, min and max keep the extreme.
inline int64_t AggMerge(AggKind kind, int64_t acc, int64_t v) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kCount: return acc + v;
    case AggKind::kMin: return v < acc ? v : acc;
    case AggKind::kMax: return v > acc ? v : acc;
  }
  return acc;
}

/// \brief Aggregate a column into a single 64-bit result written to out_addr.
struct AggregateJob {
  uint64_t col_base = 0;
  uint64_t num_rows = 0;
  AggKind kind = AggKind::kSum;
  /// Optional pre-filter: aggregate only rows whose bitmap bit is set
  /// (bitmap_base == 0 means aggregate everything).
  uint64_t bitmap_base = 0;
  uint64_t out_addr = 0;
};

/// \brief Projection (§4 "Projections"): emit col[i] for every set bit of a
/// selection bitmap, densely packed at out_base.
struct ProjectJob {
  uint64_t col_base = 0;
  uint64_t num_rows = 0;
  uint64_t bitmap_base = 0;
  uint64_t out_base = 0;
};

/// \brief Grouped aggregation (§4 "Aggregations": "due to hardware
/// restrictions, there must be a limit to the number of hash buckets JAFAR
/// can support, which suggests that a hierarchical aggregation approach will
/// be required"). Keys are small integers (dictionary codes); the device
/// aggregates groups in [key_offset, key_offset + DeviceConfig::
/// groupby_buckets); rows outside the window are skipped, so the host can
/// cover a larger key domain with several passes — the hierarchical scheme.
struct GroupByJob {
  uint64_t key_base = 0;   ///< group-key column (int64 codes)
  uint64_t val_base = 0;   ///< value column
  uint64_t num_rows = 0;
  AggKind kind = AggKind::kSum;
  int64_t key_offset = 0;  ///< first key handled by this pass
  /// Optional pre-filter: only rows whose bitmap bit is set contribute
  /// (0 = aggregate everything). Lets a JAFAR select feed a JAFAR group-by
  /// without the data ever leaving memory — TPC-H Q1's filter + group-by.
  uint64_t bitmap_base = 0;
  /// Result layout at out_base: per bucket b, two 64-bit words
  /// {aggregate, count} for key key_offset + b.
  uint64_t out_base = 0;
};

/// Bloom hash lanes the probe datapath instantiates. DeviceConfig::Derive
/// schedules MakeProbeKernel(kProbeHashes), and the runtime's filter builder
/// hashes with the same lanes.
inline constexpr uint32_t kProbeHashes = 2;

/// \brief Semijoin probe (JSPIM-style join pushdown): stream the join-key
/// column through `hash_count` multiply-shift Bloom hash lanes against a
/// filter image preloaded into device SRAM from DRAM, and emit one candidate
/// bit per row. The filter admits no false negatives, so the bitmap is a
/// superset of the true semijoin — the host refines candidates against the
/// exact build-key set to make the result bit-identical to the CPU oracle.
struct ProbeJob {
  uint64_t col_base = 0;      ///< join-key column (int64 values)
  uint64_t num_rows = 0;
  uint64_t out_base = 0;      ///< candidate bitmap, one bit per row
  uint64_t filter_base = 0;   ///< Bloom filter image in this device's rank
  uint64_t filter_words = 0;  ///< image size in 64-bit words (power of two)
  uint32_t hash_count = kProbeHashes;  ///< Start rejects any other count
};

/// Finalizer of the probe datapath's multiply-shift lane h (host-side golden
/// semantics, shared with the device functional model and the runtime's
/// filter builder — all three must hash identically or the no-false-negative
/// property silently breaks).
uint64_t ProbeMix64(uint64_t key, uint32_t hash_index);

/// Bit index of hash lane `hash_index` for `key` in a filter of
/// `filter_words` 64-bit words (filter_words must be a power of two).
uint64_t BloomBitIndex(uint64_t key, uint32_t hash_index,
                       uint64_t filter_words);

/// \brief Sort (§4 "Sorting"): a fixed-function bitonic sorter over blocks of
/// `kSortBlockElems` elements ("ASIC sorters are generally
/// costly in area, so implementations are typically limited to sorting a
/// small number of elements at a time; larger datasets use divide and
/// conquer"). The device emits sorted runs of one block each at out_base; run
/// merging is left to the host (or a later device pass).
struct SortJob {
  uint64_t col_base = 0;
  uint64_t num_rows = 0;
  uint64_t out_base = 0;
  bool descending = false;
};

/// One conjunct of a row-store filter.
struct RowPredicate {
  uint32_t attr_offset_bytes = 0;  ///< offset of the attribute within a tuple
  CompareOp op = CompareOp::kBetween;
  int64_t range_low = 0;
  int64_t range_high = 0;
};

/// \brief Row-store select (§4 "NDP in Row-Stores and Hybrids"): apply a
/// conjunction of predicates to each fixed-width tuple.
struct RowStoreJob {
  uint64_t tuple_base = 0;
  uint64_t num_tuples = 0;
  uint32_t tuple_bytes = 0;  ///< must be a multiple of 8
  std::vector<RowPredicate> predicates;
  uint64_t out_base = 0;  ///< bitmap, one bit per tuple
};

/// \brief One job of any kind: what the CPU hands the device before GO
/// (§2.2).
using JobDescriptor = std::variant<SelectJob, AggregateJob, ProjectJob,
                                   RowStoreJob, SortJob, GroupByJob, ProbeJob>;

/// Rows (row-store: tuples) the job streams.
uint64_t JobRows(const JobDescriptor& job);

/// \brief Outcome of one job, delivered exactly once through its completion
/// callback: per invocation by the device, per Submit by the driver.
struct Completion {
  Status status;  ///< OK, or why the job failed
  /// Rows the device counted; 0 on failure. Select, row-store and probe:
  /// set result bits. Aggregate and group-by: rows folded. Project: values
  /// emitted. Sort: 0.
  uint64_t matches = 0;
  sim::Tick completed_at = 0;
  uint64_t pages = 0;  ///< device invocations that succeeded
};

}  // namespace ndp::jafar
