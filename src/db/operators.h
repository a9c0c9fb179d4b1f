// Bulk-processing relational operators of the prototype column-store
// (paper §3.1: "an in-house prototype column-store capable of performing
// select-project-join queries using bulk processing"). Operators are
// column-at-a-time (MonetDB-style): each consumes and produces full
// position lists / value vectors, which is what makes late materialization
// and JAFAR select pushdown natural.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "db/column.h"
#include "db/trace.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace ndp::db {

/// Predicate over int64 values (dictionary codes included).
struct Pred {
  enum class Op : uint8_t { kBetween, kEq, kNe, kLt, kGt, kLe, kGe };
  Op op = Op::kBetween;
  int64_t lo = 0;
  int64_t hi = 0;

  static Pred Between(int64_t lo, int64_t hi) {
    return Pred{Op::kBetween, lo, hi};
  }
  static Pred Eq(int64_t v) { return Pred{Op::kEq, v, v}; }
  // ndp-lint: test-only-ok completes the Pred factory set tests use
  static Pred Ne(int64_t v) { return Pred{Op::kNe, v, v}; }
  static Pred Lt(int64_t v) { return Pred{Op::kLt, v, 0}; }
  static Pred Gt(int64_t v) { return Pred{Op::kGt, v, 0}; }
  static Pred Le(int64_t v) { return Pred{Op::kLe, v, 0}; }
  // ndp-lint: test-only-ok completes the Pred factory set tests use
  static Pred Ge(int64_t v) { return Pred{Op::kGe, v, 0}; }

  bool Eval(int64_t v) const {
    switch (op) {
      case Op::kBetween: return v >= lo && v <= hi;
      case Op::kEq: return v == lo;
      case Op::kNe: return v != lo;
      case Op::kLt: return v < lo;
      case Op::kGt: return v > lo;
      case Op::kLe: return v <= lo;
      case Op::kGe: return v >= lo;
    }
    return false;
  }
};

/// CPU select implementation style (§3.2 discusses branching vs. predication).
enum class SelectMode : uint8_t { kBranching, kPredicated };

/// Row positions, the currency of late materialization.
using PositionList = std::vector<uint32_t>;

/// Per-operator accounting, also used to sanity-check plans in tests.
struct OperatorStats {
  std::string op;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
};

/// Signature of an NDP select pushdown hook (wired by ndp::core): given a
/// column and predicate, return the qualifying positions, or an error to fall
/// back to the CPU path.
using NdpSelectHook =
    std::function<Result<PositionList>(const Column&, const Pred&)>;

/// Batched variant: all conjuncts of one scan submitted concurrently (the
/// multi-query runtime overlaps their leases), returning one position list
/// per input pair in order. An error falls the whole scan back to the
/// single-predicate / CPU path.
using NdpSelectBatchHook = std::function<Result<std::vector<PositionList>>(
    const std::vector<std::pair<const Column*, Pred>>&)>;

/// Semijoin pushdown hook (wired by ndp::core): given the build side
/// (column + qualifying positions) and the probe side, return the probe
/// positions whose key exists among the build keys — bit-identical to the
/// CPU HashSemiJoin. An error falls the join back to the CPU path.
using NdpSemiJoinHook = std::function<Result<PositionList>(
    const Column& build_col, const PositionList& build_pos,
    const Column& probe_col, const PositionList& probe_pos)>;

/// Full-column group-by pushdown hook: SUM of val_col grouped by key_col,
/// returning key -> {sum, count} (count backs AVG and COUNT aggregates).
using NdpGroupByHook =
    std::function<Result<std::map<int64_t, std::pair<int64_t, int64_t>>>(
        const Column& key_col, const Column& val_col)>;

/// \brief Shared execution state: tracing, pushdown, stats.
struct QueryContext {
  TraceRecorder* trace = nullptr;      ///< optional memory-trace recording
  SelectMode select_mode = SelectMode::kBranching;
  NdpSelectHook ndp_select;            ///< optional JAFAR pushdown
  NdpSelectBatchHook ndp_select_batch; ///< optional concurrent-conjunct form
  NdpSemiJoinHook ndp_semi_join;       ///< optional semijoin probe pushdown
  NdpGroupByHook ndp_group_by;         ///< optional group-by pushdown
  std::vector<OperatorStats> stats;

  void Record(std::string op, uint64_t in, uint64_t out) {
    stats.push_back(OperatorStats{std::move(op), in, out});
  }
};

// -- Selection ----------------------------------------------------------------

/// Full-column select: returns positions where `pred` holds. Uses the NDP
/// hook when installed (falling back to CPU execution on error).
PositionList ScanSelect(QueryContext* ctx, const Column& col, const Pred& pred);

/// Refining select: evaluates `pred` on `col` only at `positions` (the
/// conjunct pattern of column-store plans).
PositionList Refine(QueryContext* ctx, const Column& col, const Pred& pred,
                    const PositionList& positions);

// -- Projection (tuple reconstruction, §4 "Projections") ----------------------

/// Gathers col[p] for each position p — the late-materialization fetch.
std::vector<int64_t> Gather(QueryContext* ctx, const Column& col,
                            const PositionList& positions);

// -- Join ----------------------------------------------------------------------

/// Result of an equi-join: parallel position lists into the two inputs.
struct JoinResult {
  PositionList left;
  PositionList right;
};

/// Hash equi-join of left_col[left_pos] with right_col[right_pos]. The left
/// side is built into a hash table; the right side probes.
JoinResult HashJoin(QueryContext* ctx, const Column& left_col,
                    const PositionList& left_pos, const Column& right_col,
                    const PositionList& right_pos);

/// Semi-join: positions of `probe_pos` whose key exists in the built side.
PositionList HashSemiJoin(QueryContext* ctx, const Column& build_col,
                          const PositionList& build_pos,
                          const Column& probe_col,
                          const PositionList& probe_pos, bool anti = false);

// -- Aggregation ----------------------------------------------------------------

enum class AggFn : uint8_t { kSum, kMin, kMax, kCount, kAvgNum };

/// Scalar aggregate over a gathered value vector.
int64_t Aggregate(QueryContext* ctx, AggFn fn, const std::vector<int64_t>& v);

/// One aggregate output of a group-by.
struct AggSpec {
  AggFn fn;
  const std::vector<int64_t>* input;  ///< aligned with the group keys;
                                      ///< nullptr allowed for kCount
};

/// Hash group-by: keys[i] identifies row i's group. Returns group -> one
/// int64 per spec (kAvgNum returns the sum; divide by the kCount spec).
std::map<int64_t, std::vector<int64_t>> GroupAggregate(
    QueryContext* ctx, const std::vector<int64_t>& keys,
    const std::vector<AggSpec>& specs);

/// Full-column SUM group-by: key_col[i] identifies row i's group, the value
/// is val_col[i]; returns key -> {sum, count}. Uses the NDP group-by hook
/// when installed (falling back to the CPU loop on error) — the shape TPC-H
/// Q18's lineitem-by-orderkey aggregation pushes down.
std::map<int64_t, std::pair<int64_t, int64_t>> GroupSumFullColumn(
    QueryContext* ctx, const Column& key_col, const Column& val_col);

// -- Sort -----------------------------------------------------------------------

/// K-way merges sorted runs into one sorted vector — the host-side half of
/// the §4 divide-and-conquer sorting story (the device emits block-sorted
/// runs, the CPU merges them).
std::vector<int64_t> MergeSortedRuns(QueryContext* ctx,
                                     const std::vector<std::vector<int64_t>>& runs);

// -- Utilities -------------------------------------------------------------------

BitVector PositionsToBitmap(const PositionList& positions, size_t num_rows);
PositionList BitmapToPositions(const BitVector& bm);

}  // namespace ndp::db
