// Dense bit vector used for selection bitmaps. This is the host-side mirror of
// the byte array JAFAR writes its output bitset into (paper §2.2, Figure 2):
// bit i set means row i passed the filter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/macros.h"

namespace ndp {

/// \brief Fixed-size dense bitmap with word-level access and population count.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  size_t size() const { return num_bits_; }
  size_t num_words() const { return words_.size(); }

  /// Reinitializes to num_bits cleared bits.
  void Resize(size_t num_bits) {
    num_bits_ = num_bits;
    words_.assign((num_bits + 63) / 64, 0);
  }

  void Set(size_t i) {
    NDP_DCHECK(i < num_bits_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }

  void Clear(size_t i) {
    NDP_DCHECK(i < num_bits_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  void SetTo(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Clear(i);
    }
  }

  bool Get(size_t i) const {
    NDP_DCHECK(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Raw 64-bit word (bits beyond size() are zero).
  uint64_t Word(size_t w) const {
    NDP_DCHECK(w < words_.size());
    return words_[w];
  }

  /// Overwrites word w. Caller must keep tail bits beyond size() zero.
  void SetWord(size_t w, uint64_t value) {
    NDP_DCHECK(w < words_.size());
    words_[w] = value;
  }

  /// Merges `value` into word w under `mask`: only bits set in mask are
  /// written. This is the masked write-back JAFAR performs when column data is
  /// interleaved across DIMMs (paper §2.2, "Handling Data Interleaving").
  // ndp-lint: test-only-ok bitvector tests pin the masked write-back
  void MergeWord(size_t w, uint64_t value, uint64_t mask) {
    NDP_DCHECK(w < words_.size());
    words_[w] = (words_[w] & ~mask) | (value & mask);
  }

  /// Number of set bits.
  size_t CountOnes() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  /// Appends the positions of all set bits to `out`.
  void AppendSetPositions(std::vector<uint32_t>* out) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(w));
        out->push_back(static_cast<uint32_t>(wi * 64 + bit));
        w &= w - 1;
      }
    }
  }

  bool operator==(const BitVector& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

  /// View of the underlying bytes, as JAFAR's out_buf exposes them.
  const uint8_t* bytes() const {
    return reinterpret_cast<const uint8_t*>(words_.data());
  }
  size_t num_bytes() const { return words_.size() * 8; }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace ndp
