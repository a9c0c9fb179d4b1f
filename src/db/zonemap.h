// Zone maps (a column-imprints-lite secondary structure, cf. paper §4
// "Indexing and Compression"): per-block min/max over a column, letting a
// scan skip blocks that cannot contain qualifying values. Used to study the
// paper's open question of whether extremely efficient NDP scans obviate
// lightweight indexing — the answer depends on value clustering.
#pragma once

#include <cstdint>
#include <vector>

#include "db/column.h"
#include "db/operators.h"

namespace ndp::db {

/// \brief Per-block [min, max] summaries of a column.
class ZoneMap {
 public:
  /// Builds zones of `block_rows` rows each (default 4096 rows = 32 KB).
  ZoneMap(const Column& col, uint32_t block_rows = 4096);

  uint32_t block_rows() const { return block_rows_; }
  size_t num_blocks() const { return mins_.size(); }
  int64_t block_min(size_t b) const { return mins_[b]; }
  int64_t block_max(size_t b) const { return maxs_[b]; }

  /// True if block `b` may contain a value satisfying `pred`.
  bool BlockMayMatch(size_t b, const Pred& pred) const;

  /// Blocks that survive pruning for `pred`.
  std::vector<uint32_t> CandidateBlocks(const Pred& pred) const;

  /// Fraction of blocks pruned for `pred` (1.0 = everything skipped).
  double PruneFraction(const Pred& pred) const {
    return num_blocks() == 0
               ? 0.0
               : 1.0 - static_cast<double>(CandidateBlocks(pred).size()) /
                           static_cast<double>(num_blocks());
  }

 private:
  uint32_t block_rows_;
  std::vector<int64_t> mins_;
  std::vector<int64_t> maxs_;
};

}  // namespace ndp::db
