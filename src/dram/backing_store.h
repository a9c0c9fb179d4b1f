// Functional contents of physical memory, kept separate from the timing
// model: the timing simulator decides *when* a burst completes, the backing
// store says *what bytes* it carried. Sparse 4 KB pages in a two-level table
// so a simulated 2 GB / 1 TB address space costs only what is actually
// touched.
#pragma once

#include <algorithm>
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

  size_t resident_pages() const { return resident_; }

 private:
  static constexpr size_t kLeafBits = 12;  ///< 4096 pages (16 MB) per leaf
  static constexpr size_t kLeafSlots = size_t{1} << kLeafBits;

  struct Leaf {
    std::unique_ptr<uint8_t[]> pages[kLeafSlots];
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
    return leaf->pages[page & (kLeafSlots - 1)].get();
  }

  uint8_t* GetPage(uint64_t page) {
    std::unique_ptr<Leaf>& leaf = root_[page >> kLeafBits];
    if (leaf == nullptr) leaf = std::make_unique<Leaf>();
    std::unique_ptr<uint8_t[]>& data = leaf->pages[page & (kLeafSlots - 1)];
    if (data == nullptr) {
      data = std::make_unique<uint8_t[]>(kPageSize);  // zero-filled
      ++resident_;
    }
    return data.get();
  }

  uint64_t capacity_;
  std::vector<std::unique_ptr<Leaf>> root_;
  size_t resident_ = 0;
};

}  // namespace ndp::dram
