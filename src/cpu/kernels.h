// µop stream generators for the workloads the paper runs on the CPU. The
// loop kernels — the select scan (branching and predicated variants, §3.2),
// aggregation, projection, group-by, hash probe (§4) and merge sort — derive
// from LoopStream and write each loop iteration's µops as straight-line code.
// ReplayStream replays recorded database operator traces (Figure 4
// profiling), and ConcatStream runs streams back to back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "cpu/uop.h"
#include "util/macros.h"

namespace ndp::cpu {

/// Distinct PC values so branch-predictor entries do not alias between the
/// data-dependent predicate branch and the well-predicted loop-back branch.
constexpr uint64_t kPredicateBranchPc = 0x400100;
constexpr uint64_t kLoopBranchPc = 0x400180;

/// \brief Base of the scalar loop kernels. A kernel implements
/// EmitIteration, which appends one iteration's µops in program order with
/// the Alu/Load/Store/Branch helpers (a µop that only runs on some rows is a
/// plain `if`); Next hands them out one at a time. Every µop has latency 1.
class LoopStream : public UopStream {
 public:
  bool Next(Uop* uop) final;

 protected:
  /// Appends iteration `i`'s µops, or returns false (appending nothing) when
  /// `i` is past the last iteration.
  virtual bool EmitIteration(uint64_t i) = 0;

  void Alu(uint8_t dep = 0) {
    Push({.type = UopType::kAlu, .dep_distance = dep});
  }
  void Load(uint64_t addr, uint8_t dep = 0) {
    Push({.type = UopType::kLoad, .addr = addr, .dep_distance = dep});
  }
  void Store(uint64_t addr) { Push({.type = UopType::kStore, .addr = addr}); }
  void Branch(uint64_t pc, bool taken, uint8_t dep = 0) {
    Push({.type = UopType::kBranch, .pc = pc, .taken = taken,
          .dep_distance = dep});
  }

 private:
  /// The longest iteration is a passing row of the branching select.
  static constexpr uint8_t kMaxUops = 11;

  void Push(const Uop& u) {
    NDP_CHECK(len_ < kMaxUops);
    buf_[len_++] = u;
  }

  Uop buf_[kMaxUops];
  uint8_t len_ = 0, pos_ = 0;
  uint64_t iter_ = 0;
};

/// \brief CPU select over an integer column: `out[] = positions where
/// lo <= col[i] <= hi`, producing a position list.
///
/// Branching variant (the paper's default, "we do not use predication"):
///   load col[i]; cmp lo; cmp hi; and; branch;   [store pos; count++] if pass
/// Predicated variant (§3.2 discussion):
///   load col[i]; cmp lo; cmp hi; and; store pos; count += pass
class SelectScanStream : public LoopStream {
 public:
  SelectScanStream(const int64_t* values, uint64_t num_rows, int64_t lo,
                   int64_t hi, uint64_t col_base_addr, uint64_t out_base_addr,
                   bool predicated, uint32_t elem_bytes = 8)
      : values_(values),
        num_rows_(num_rows),
        lo_(lo),
        hi_(hi),
        col_base_(col_base_addr),
        out_base_(out_base_addr),
        predicated_(predicated),
        elem_bytes_(elem_bytes) {}

  uint64_t matches() const { return matches_; }

 private:
  bool EmitIteration(uint64_t row) override;

  const int64_t* values_;
  uint64_t num_rows_;
  int64_t lo_, hi_;
  uint64_t col_base_, out_base_;
  bool predicated_;
  uint32_t elem_bytes_;
  uint64_t matches_ = 0;
};

/// \brief CPU aggregation over an integer column (sum/min/max have identical
/// µop structure): load; accumulate (loop-carried dependence); loop overhead.
class AggregateScanStream : public LoopStream {
 public:
  AggregateScanStream(uint64_t num_rows, uint64_t col_base_addr,
                      uint32_t elem_bytes = 8)
      : num_rows_(num_rows), col_base_(col_base_addr), elem_bytes_(elem_bytes) {}

 private:
  bool EmitIteration(uint64_t row) override;

  uint64_t num_rows_;
  uint64_t col_base_;
  uint32_t elem_bytes_;
};

/// \brief CPU projection (tuple reconstruction, §4): gather col[pos[j]] for a
/// position list — the dependent-load pattern of late materialization.
class ProjectGatherStream : public LoopStream {
 public:
  ProjectGatherStream(const uint32_t* positions, uint64_t num_positions,
                      uint64_t pos_base_addr, uint64_t col_base_addr,
                      uint64_t out_base_addr, uint32_t elem_bytes = 8)
      : positions_(positions),
        num_positions_(num_positions),
        pos_base_(pos_base_addr),
        col_base_(col_base_addr),
        out_base_(out_base_addr),
        elem_bytes_(elem_bytes) {}

 private:
  bool EmitIteration(uint64_t j) override;

  const uint32_t* positions_;
  uint64_t num_positions_;
  uint64_t pos_base_, col_base_, out_base_;
  uint32_t elem_bytes_;
};

/// \brief CPU hash group-by: per row, load the key and value, hash, a
/// data-dependent load of the bucket line, accumulate, store back — the
/// classic dependent-access pattern of hash aggregation. CPU baseline for
/// the §4 grouped-aggregation engine ablation.
class GroupByScanStream : public LoopStream {
 public:
  GroupByScanStream(const int64_t* keys, uint64_t num_rows,
                    uint64_t key_base_addr, uint64_t val_base_addr,
                    uint64_t ht_base_addr, uint32_t num_buckets)
      : keys_(keys),
        num_rows_(num_rows),
        key_base_(key_base_addr),
        val_base_(val_base_addr),
        ht_base_(ht_base_addr),
        num_buckets_(num_buckets) {}

 private:
  bool EmitIteration(uint64_t row) override;

  const int64_t* keys_;
  uint64_t num_rows_;
  uint64_t key_base_, val_base_, ht_base_;
  uint32_t num_buckets_;
};

/// \brief CPU hash semijoin probe: per probe row, load the key, hash, a
/// data-dependent load of the hash-table line, compare, and a data-dependent
/// match branch with a conditional position store — the CPU baseline the
/// device Bloom-probe job competes against in the abl_join ablation.
/// `hit_flags[i]` (nullable, 0/1) drives the branch outcome and the store, so
/// the simulated branch behaviour follows the real join's selectivity.
class HashProbeStream : public LoopStream {
 public:
  HashProbeStream(const int64_t* keys, uint64_t num_rows,
                  uint64_t key_base_addr, uint64_t ht_base_addr,
                  uint64_t out_base_addr, uint32_t num_buckets,
                  const uint8_t* hit_flags = nullptr)
      : keys_(keys),
        num_rows_(num_rows),
        key_base_(key_base_addr),
        ht_base_(ht_base_addr),
        out_base_(out_base_addr),
        num_buckets_(num_buckets),
        hit_flags_(hit_flags) {}

  uint64_t matches() const { return matches_; }

 private:
  bool EmitIteration(uint64_t row) override;

  const int64_t* keys_;
  uint64_t num_rows_;
  uint64_t key_base_, ht_base_, out_base_;
  uint32_t num_buckets_;
  const uint8_t* hit_flags_;
  uint64_t matches_ = 0;
};

/// \brief CPU bottom-up merge sort over `num_rows` elements: log2(n) passes,
/// each streaming two input runs and one output run. Per output element: a
/// run load, a compare, a data-dependent branch (the classic ~50%-mispredict
/// merge branch on random keys), a store, and cursor bookkeeping. Used as the
/// CPU baseline for the §4 sorting accelerator ablation.
class MergeSortStream : public LoopStream {
 public:
  MergeSortStream(uint64_t num_rows, uint64_t src_base, uint64_t dst_base,
                  uint64_t branch_seed = 0x5eed)
      : num_rows_(num_rows),
        src_base_(src_base),
        dst_base_(dst_base),
        rng_state_(branch_seed | 1) {
    passes_ = 0;
    while ((uint64_t{1} << passes_) < num_rows_) ++passes_;
  }

  uint32_t passes() const { return passes_; }

 private:
  /// Iteration `n` is element `n % num_rows` of pass `n / num_rows`.
  bool EmitIteration(uint64_t n) override;

  bool NextBit() {  // xorshift: models the data-dependent branch outcome
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    return rng_state_ & 1;
  }

  uint64_t num_rows_;
  uint64_t src_base_, dst_base_;
  uint64_t rng_state_;
  uint32_t passes_ = 0;
};

/// One record of a recorded operator trace (see db::TraceRecorder), packed
/// into one 64-bit word. A kLoad/kStore is one access: its address in
/// `value` and the ALU µops that run before it in `compute`. A standalone
/// kCompute carries a µop count in `value` (used when a gap overflows
/// `compute`). A kRun stands for `value` accesses, each of which repeats the
/// access `compute` positions earlier in the decoded stream (see
/// TraceHistory::Predict).
struct TraceEvent {
  enum class Kind : uint8_t { kCompute, kLoad, kStore, kRun };
  static constexpr uint64_t kMaxValue = (uint64_t{1} << 46) - 1;
  static constexpr uint64_t kMaxCompute = (uint64_t{1} << 16) - 1;

  /// Aborts rather than truncate a field that does not fit.
  constexpr TraceEvent(Kind k, uint64_t v, uint64_t c = 0)
      : kind(k), value(v), compute(c) {
    NDP_CHECK(v <= kMaxValue);
    NDP_CHECK(c <= kMaxCompute);
  }

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;

  Kind kind : 2;
  uint64_t value : 46;    ///< µop count for kCompute, run length for kRun,
                          ///< address otherwise
  uint64_t compute : 16;  ///< µops before a kLoad/kStore, period of a kRun;
                          ///< 0 for kCompute
};
static_assert(sizeof(TraceEvent) == 8);

/// \brief The last accesses of a trace, as both its encoder
/// (db::TraceRecorder) and its decoder (ReplayStream) see them, so the two
/// cannot disagree on what a kRun record expands to.
class TraceHistory {
 public:
  /// The run periods the encoder tries, shortest first: a plain scan, two
  /// interleaved lanes (load + store), and four (a gather's loads + store).
  static constexpr uint32_t kRunPeriods[] = {1, 2, 4};

  /// Appends one decoded kLoad/kStore.
  void Push(const TraceEvent& access) { ring_[head_++ % kSize] = access; }

  /// The access that repeats the one `k` back: same kind and compute gap,
  /// its address advanced by that access's own stride, a[-k] + (a[-k] -
  /// a[-2k]), in uint64 and then modulo the 46-bit field (the bit-field
  /// store truncates). Slots not yet pushed hold a kCompute of value 0: a
  /// prediction from one equals no access, and a missing a[-2k] reads as 0.
  TraceEvent Predict(uint32_t k) const {
    TraceEvent next = Back(k);
    next.value = next.value + (next.value - Back(2 * k).value);
    return next;
  }

 private:
  static constexpr uint32_t kSize = 8;
  static_assert(2 * kRunPeriods[std::size(kRunPeriods) - 1] <= kSize);

  /// The access `k` back, k in [1, kSize]; any other k wraps the ring.
  const TraceEvent& Back(uint32_t k) const {
    return ring_[(head_ - k) % kSize];
  }

  static constexpr TraceEvent kNone{TraceEvent::Kind::kCompute, 0};
  TraceEvent ring_[kSize] = {kNone, kNone, kNone, kNone,
                             kNone, kNone, kNone, kNone};
  uint32_t head_ = 0;
};

/// \brief Concatenates child streams back to back (e.g., per-block scans of a
/// zone-map-pruned select). Does not own the children.
class ConcatStream : public UopStream {
 public:
  explicit ConcatStream(std::vector<UopStream*> children)
      : children_(std::move(children)) {}

  bool Next(Uop* uop) override {
    while (i_ < children_.size()) {
      if (children_[i_]->Next(uop)) return true;
      ++i_;
    }
    return false;
  }

 private:
  std::vector<UopStream*> children_;
  size_t i_ = 0;
};

/// \brief Replays a recorded database operator trace as a µop stream.
class ReplayStream : public UopStream {
 public:
  explicit ReplayStream(const std::vector<TraceEvent>* events)
      : events_(events) {}

  bool Next(Uop* uop) override;

 private:
  const std::vector<TraceEvent>* events_;
  size_t i_ = 0;
  TraceHistory history_;
  uint64_t run_left_ = 0;  ///< accesses of the open kRun not yet decoded
  uint32_t run_period_ = 0;
  uint64_t compute_left_ = 0;
  TraceEvent pending_{TraceEvent::Kind::kCompute, 0};
  bool access_pending_ = false;  ///< pending_ runs once its gap drains
};

}  // namespace ndp::cpu
