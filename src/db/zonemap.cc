#include "db/zonemap.h"

#include <algorithm>

#include "util/macros.h"

namespace ndp::db {

ZoneMap::ZoneMap(const Column& col, uint32_t block_rows)
    : block_rows_(block_rows) {
  NDP_CHECK(block_rows > 0);
  size_t blocks = (col.size() + block_rows - 1) / block_rows;
  mins_.resize(blocks, INT64_MAX);
  maxs_.resize(blocks, INT64_MIN);
  for (size_t i = 0; i < col.size(); ++i) {
    size_t b = i / block_rows;
    mins_[b] = std::min(mins_[b], col[i]);
    maxs_[b] = std::max(maxs_[b], col[i]);
  }
}

bool ZoneMap::BlockMayMatch(size_t b, const Pred& pred) const {
  int64_t lo = mins_[b], hi = maxs_[b];
  switch (pred.op) {
    case Pred::Op::kBetween: return pred.lo <= hi && pred.hi >= lo;
    case Pred::Op::kEq: return pred.lo >= lo && pred.lo <= hi;
    case Pred::Op::kNe: return !(lo == hi && lo == pred.lo);
    case Pred::Op::kLt: return lo < pred.lo;
    case Pred::Op::kGt: return hi > pred.lo;
    case Pred::Op::kLe: return lo <= pred.lo;
    case Pred::Op::kGe: return hi >= pred.lo;
  }
  return true;
}

std::vector<uint32_t> ZoneMap::CandidateBlocks(const Pred& pred) const {
  std::vector<uint32_t> out;
  for (size_t b = 0; b < num_blocks(); ++b) {
    if (BlockMayMatch(b, pred)) out.push_back(static_cast<uint32_t>(b));
  }
  return out;
}

}  // namespace ndp::db
