// Lightweight column compression (paper §4 "Indexing and Compression" and
// "Data Types": "many modern systems effectively handle string columns as
// integers using dictionary compression"). Frame-of-reference (FOR) encoding
// rebases a column's values against their minimum and stores 32-bit deltas —
// halving the bytes a scan must move, whether that scan runs on the CPU or
// on JAFAR's packed-32-bit datapath. CodeRangeFor maps a value range into
// the encoded domain so filters run directly on compressed data.
#pragma once

#include <cstdint>
#include <vector>

#include "db/column.h"
#include "util/status.h"

namespace ndp::db {

/// \brief A frame-of-reference encoded column: value[i] = base + codes[i],
/// codes stored as unsigned 32-bit.
class ForEncodedColumn {
 public:
  /// Encodes `col`; fails if the value range exceeds 32 bits.
  static Result<ForEncodedColumn> Encode(const Column& col);

  int64_t base() const { return base_; }
  /// Largest delta stored (the frame width).
  int64_t max_code() const { return max_code_; }
  size_t size() const { return codes_.size(); }
  const uint32_t* codes() const { return codes_.data(); }
  size_t SizeBytes() const { return codes_.size() * sizeof(uint32_t); }

  /// Decodes one value.
  int64_t Decode(size_t i) const { return base_ + codes_[i]; }

  /// Inclusive [lo, hi] bounds in the CODE domain for a value-domain range
  /// select; returns false if no code can match.
  bool CodeRangeFor(int64_t value_lo, int64_t value_hi, int64_t* code_lo,
                    int64_t* code_hi) const;

 private:
  ForEncodedColumn(int64_t base, int64_t max_code,
                   std::vector<uint32_t> codes)
      : base_(base), max_code_(max_code), codes_(std::move(codes)) {}

  int64_t base_ = 0;
  int64_t max_code_ = 0;
  std::vector<uint32_t> codes_;
};

}  // namespace ndp::db
