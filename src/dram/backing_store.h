// Functional contents of physical memory, kept separate from the timing
// model: the timing simulator decides *when* a burst completes, the backing
// store says *what bytes* it carried. Sparse 4 KB pages in a two-level table
// so a simulated 2 GB / 1 TB address space costs only what is actually
// touched.
//
// A page slot is untouched (reads as zeros), owned (a page the store
// allocated), or a view: Map points the pages a range covers whole at the
// caller's own bytes, so a placed column is held once, by its db::Column,
// and the store keeps that buffer alive. Reads see all three alike through
// one pointer per slot; the first write to a view copies that one page into
// an owned page (copy-on-write), leaving the mapped bytes untouched.
#pragma once

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/macros.h"

namespace ndp::dram {

/// \brief Sparse byte-addressable physical memory. Untouched bytes read as 0.
class BackingStore {
 public:
  static constexpr size_t kPageSize = 4096;

  explicit BackingStore(uint64_t capacity_bytes)
      : capacity_(capacity_bytes), root_(NumLeaves(capacity_bytes)) {}
  NDP_DISALLOW_COPY_AND_ASSIGN(BackingStore);

  uint64_t capacity() const { return capacity_; }

  void Write(uint64_t addr, const void* src, size_t n) {
    NDP_CHECK_MSG(InRange(addr, n), "backing store write out of range");
    const uint8_t* p = static_cast<const uint8_t*>(src);
    while (n > 0) {
      uint64_t page = addr / kPageSize;
      size_t off = addr % kPageSize;
      size_t chunk = std::min(n, kPageSize - off);
      std::memcpy(GetPage(page) + off, p, chunk);
      addr += chunk;
      p += chunk;
      n -= chunk;
    }
  }

  /// Stores the `n` bytes at `bytes` from `addr`, as Write does, except that
  /// every page the range covers whole becomes a view of `bytes` instead of
  /// a copy; the partial first and last pages are copied. The store holds
  /// `owner` for as long as it lives, so the viewed bytes must belong to it
  /// and must not change while it is held (db::Column's copy-on-write buffer
  /// detaches on its next write instead).
  void Map(uint64_t addr, std::shared_ptr<const void> owner, const void* bytes,
           size_t n) {
    NDP_CHECK_MSG(InRange(addr, n), "backing store map out of range");
    const uint8_t* p = static_cast<const uint8_t*>(bytes);
    const size_t head = std::min(n, (kPageSize - addr % kPageSize) % kPageSize);
    Write(addr, p, head);
    addr += head;
    p += head;
    n -= head;
    if (n >= kPageSize && (owners_.empty() || owners_.back() != owner)) {
      owners_.push_back(std::move(owner));
    }
    for (; n >= kPageSize; addr += kPageSize, p += kPageSize, n -= kPageSize) {
      const uint64_t page = addr / kPageSize;
      Leaf& leaf = LeafOf(page);
      const size_t slot = page & (kLeafSlots - 1);
      if (leaf.owned[slot]) {
        delete[] leaf.pages[slot];
        leaf.owned.reset(slot);
        --resident_;
        ++mapped_;
      } else if (leaf.pages[slot] == nullptr) {
        ++mapped_;
      }
      leaf.pages[slot] = p;
    }
    Write(addr, p, n);
  }

  void Read(uint64_t addr, void* dst, size_t n) const {
    NDP_CHECK_MSG(InRange(addr, n), "backing store read out of range");
    uint8_t* p = static_cast<uint8_t*>(dst);
    while (n > 0) {
      uint64_t page = addr / kPageSize;
      size_t off = addr % kPageSize;
      size_t chunk = std::min(n, kPageSize - off);
      const uint8_t* data = PageIfPresent(page);
      if (data == nullptr) {
        std::memset(p, 0, chunk);
      } else {
        std::memcpy(p, data + off, chunk);
      }
      addr += chunk;
      p += chunk;
      n -= chunk;
    }
  }

  uint64_t Read64(uint64_t addr) const {
    uint64_t v;
    Read(addr, &v, 8);
    return v;
  }
  void Write64(uint64_t addr, uint64_t v) { Write(addr, &v, 8); }

  /// Pages the store allocated (written, or copied on a write to a view).
  size_t resident_pages() const { return resident_; }
  /// Pages that are views of mapped bytes.
  size_t mapped_pages() const { return mapped_; }

 private:
  static constexpr size_t kLeafBits = 12;  ///< 4096 pages (16 MB) per leaf
  static constexpr size_t kLeafSlots = size_t{1} << kLeafBits;

  struct Leaf {
    Leaf() = default;
    NDP_DISALLOW_COPY_AND_ASSIGN(Leaf);
    ~Leaf() {
      for (size_t s = 0; s < kLeafSlots; ++s) {
        if (owned[s]) delete[] pages[s];
      }
    }
    /// What a read of each slot sees: an owned page, a view, or null.
    const uint8_t* pages[kLeafSlots] = {};
    std::bitset<kLeafSlots> owned;  ///< slots whose page the store allocated
  };

  /// [addr, addr + n) lies inside the store; written so that it cannot wrap.
  bool InRange(uint64_t addr, size_t n) const {
    return n <= capacity_ && addr <= capacity_ - n;
  }

  static size_t NumLeaves(uint64_t capacity_bytes) {
    uint64_t pages = (capacity_bytes + kPageSize - 1) / kPageSize;
    return static_cast<size_t>((pages + kLeafSlots - 1) / kLeafSlots);
  }

  const uint8_t* PageIfPresent(uint64_t page) const {
    const Leaf* leaf = root_[page >> kLeafBits].get();
    if (leaf == nullptr) return nullptr;
    return leaf->pages[page & (kLeafSlots - 1)];
  }

  Leaf& LeafOf(uint64_t page) {
    std::unique_ptr<Leaf>& leaf = root_[page >> kLeafBits];
    if (leaf == nullptr) leaf = std::make_unique<Leaf>();
    return *leaf;
  }

  uint8_t* GetPage(uint64_t page) {
    Leaf& leaf = LeafOf(page);
    const size_t slot = page & (kLeafSlots - 1);
    const uint8_t*& data = leaf.pages[slot];
    if (!leaf.owned[slot]) {
      // First write to the slot: a zero-filled page, or a copy of the view
      // (copy-on-write; the mapped bytes stay as they are).
      if (data == nullptr) {
        data = new uint8_t[kPageSize]();
      } else {
        uint8_t* copy = new uint8_t[kPageSize];
        std::memcpy(copy, data, kPageSize);
        data = copy;
        --mapped_;
      }
      leaf.owned.set(slot);
      ++resident_;
    }
    // The store allocated this page non-const; the slot only reads it as
    // const so that views and owned pages share one pointer per slot.
    return const_cast<uint8_t*>(data);
  }

  uint64_t capacity_;
  std::vector<std::unique_ptr<Leaf>> root_;
  /// Buffers that mapped pages view, held so they outlive every view.
  std::vector<std::shared_ptr<const void>> owners_;
  size_t resident_ = 0;
  size_t mapped_ = 0;
};

}  // namespace ndp::dram
