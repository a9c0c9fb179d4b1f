#include "db/compression.h"

#include <algorithm>
#include <limits>

namespace ndp::db {

namespace {

/// value - base, saturated to the int64 range: open-ended predicate bounds
/// near INT64_MIN/MAX must not wrap when the frame base is subtracted.
int64_t Rebase(int64_t value, int64_t base) {
  int64_t out = 0;
  if (!__builtin_sub_overflow(value, base, &out)) return out;
  return base < 0 ? std::numeric_limits<int64_t>::max()
                  : std::numeric_limits<int64_t>::min();
}

}  // namespace

Result<ForEncodedColumn> ForEncodedColumn::Encode(const Column& col) {
  if (col.size() == 0) {
    return ForEncodedColumn(0, 0, {});
  }
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < col.size(); ++i) {
    lo = std::min(lo, col[i]);
    hi = std::max(hi, col[i]);
  }
  // Deltas must fit a signed 32-bit lane so they are directly scannable by
  // JAFAR's packed-32-bit datapath (which sign-extends halves). A range wider
  // than int64 (hi - lo overflows) is out of range too.
  int64_t range = 0;
  if (__builtin_sub_overflow(hi, lo, &range) ||
      range > std::numeric_limits<int32_t>::max()) {
    return Status::OutOfRange(
        "value range exceeds 31-bit frame-of-reference deltas");
  }
  std::vector<uint32_t> codes(col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    codes[i] = static_cast<uint32_t>(col[i] - lo);
  }
  return ForEncodedColumn(lo, range, std::move(codes));
}

bool ForEncodedColumn::CodeRangeFor(int64_t value_lo, int64_t value_hi,
                                    int64_t* code_lo, int64_t* code_hi) const {
  if (codes_.empty()) return false;
  const int64_t lo = std::max<int64_t>(Rebase(value_lo, base_), 0);
  const int64_t hi = std::min(Rebase(value_hi, base_), max_code_);
  if (lo > max_code_ || hi < 0) return false;  // range misses the frame
  *code_lo = lo;
  *code_hi = hi;
  return lo <= hi;
}

}  // namespace ndp::db
