#include "dram/backing_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

namespace ndp::dram {
namespace {

TEST(BackingStoreTest, UntouchedBytesReadZero) {
  BackingStore mem(1 << 20);
  std::vector<uint8_t> buf(100, 0xFF);
  mem.Read(12345, buf.data(), buf.size());
  for (uint8_t b : buf) EXPECT_EQ(b, 0);
  EXPECT_EQ(mem.resident_pages(), 0u);
}

TEST(BackingStoreTest, WriteReadRoundTrip) {
  BackingStore mem(1 << 20);
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  mem.Write(5000, data.data(), data.size());
  std::vector<uint8_t> out(1000);
  mem.Read(5000, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST(BackingStoreTest, CrossPageBoundary) {
  BackingStore mem(1 << 20);
  uint64_t addr = BackingStore::kPageSize - 4;
  uint64_t v = 0x1122334455667788ull;
  mem.Write64(addr, v);
  EXPECT_EQ(mem.Read64(addr), v);
  EXPECT_EQ(mem.resident_pages(), 2u);
}

TEST(BackingStoreTest, SparseAllocationOnlyTouchedPages) {
  BackingStore mem(1ull << 40);  // 1 TB address space costs nothing up front
  mem.Write64(0, 1);
  mem.Write64(1ull << 39, 2);
  EXPECT_EQ(mem.resident_pages(), 2u);
  EXPECT_EQ(mem.Read64(0), 1u);
  EXPECT_EQ(mem.Read64(1ull << 39), 2u);
}

TEST(BackingStoreTest, PartialOverwrite) {
  BackingStore mem(1 << 20);
  mem.Write64(64, 0xAAAAAAAAAAAAAAAAull);
  uint32_t half = 0xBBBBBBBB;
  mem.Write(64, &half, 4);
  EXPECT_EQ(mem.Read64(64), 0xAAAAAAAABBBBBBBBull);
}

// A mapped buffer of `words` consecutive 64-bit values starting at `first`.
std::shared_ptr<std::vector<uint64_t>> Words(size_t words, uint64_t first) {
  auto buf = std::make_shared<std::vector<uint64_t>>(words);
  std::iota(buf->begin(), buf->end(), first);
  return buf;
}

TEST(BackingStoreTest, ReadThroughAViewEqualsTheSource) {
  BackingStore mem(1 << 20);
  auto src = Words(4 * BackingStore::kPageSize / 8, 1000);
  mem.Map(8192, src, src->data(), src->size() * 8);
  EXPECT_EQ(mem.mapped_pages(), 4u);
  EXPECT_EQ(mem.resident_pages(), 0u);
  std::vector<uint64_t> out(src->size());
  mem.Read(8192, out.data(), out.size() * 8);
  EXPECT_EQ(out, *src);
  EXPECT_EQ(mem.Read64(8192 + 3 * 8), 1003u);
}

TEST(BackingStoreTest, FirstWriteToAViewCopiesOnlyItsPage) {
  BackingStore mem(1 << 20);
  auto src = Words(3 * BackingStore::kPageSize / 8, 0);
  const std::vector<uint64_t> before = *src;
  mem.Map(0, src, src->data(), src->size() * 8);
  const uint64_t addr = BackingStore::kPageSize + 16;  // inside page 1
  mem.Write64(addr, 0xDEADBEEF);
  EXPECT_EQ(mem.resident_pages(), 1u);
  EXPECT_EQ(mem.mapped_pages(), 2u);
  EXPECT_EQ(*src, before);  // the mapped bytes are untouched
  EXPECT_EQ(mem.Read64(addr), 0xDEADBEEFu);
  // The rest of the copied page kept the view's bytes.
  EXPECT_EQ(mem.Read64(addr + 8), before[(addr + 8) / 8]);
  EXPECT_EQ(mem.Read64(BackingStore::kPageSize), before[512]);
  // A second write lands in the page the first one copied.
  mem.Write64(addr + 8, 7);
  EXPECT_EQ(mem.resident_pages(), 1u);
  EXPECT_EQ(mem.Read64(addr + 8), 7u);
}

TEST(BackingStoreTest, PartialEdgePagesAreCopied) {
  BackingStore mem(1 << 20);
  // From mid-page 0 through mid-page 3: pages 1 and 2 are whole.
  const uint64_t addr = BackingStore::kPageSize - 24;
  const size_t words = (2 * BackingStore::kPageSize + 24 + 40) / 8;
  auto src = Words(words, 77);
  mem.Write64(addr - 8, 0x1111);  // a neighbour on the first page survives
  mem.Map(addr, src, src->data(), words * 8);
  EXPECT_EQ(mem.mapped_pages(), 2u);
  EXPECT_EQ(mem.resident_pages(), 2u);  // first and last page, owned
  std::vector<uint64_t> out(words);
  mem.Read(addr, out.data(), words * 8);
  EXPECT_EQ(out, *src);
  EXPECT_EQ(mem.Read64(addr - 8), 0x1111u);
  EXPECT_EQ(mem.Read64(addr + words * 8), 0u);  // past the end: untouched
  // Writing to an edge page neither copies again nor reaches the source.
  mem.Write64(addr, 5);
  EXPECT_EQ(mem.resident_pages(), 2u);
  EXPECT_EQ((*src)[0], 77u);
}

TEST(BackingStoreTest, ShortMapCopiesAndHoldsNoView) {
  BackingStore mem(1 << 20);
  auto src = Words(100, 3);
  mem.Map(4096, src, src->data(), 800);
  EXPECT_EQ(mem.mapped_pages(), 0u);
  EXPECT_EQ(mem.resident_pages(), 1u);
  EXPECT_EQ(src.use_count(), 1);  // nothing views it, so nothing holds it
  EXPECT_EQ(mem.Read64(4096 + 99 * 8), 102u);
}

TEST(BackingStoreTest, ReadSpanningAViewAndAnOwnedPage) {
  BackingStore mem(1 << 20);
  auto src = Words(BackingStore::kPageSize / 8, 500);
  mem.Map(0, src, src->data(), BackingStore::kPageSize);
  mem.Write64(BackingStore::kPageSize, 42);  // page 1: owned
  std::vector<uint64_t> out(4);
  mem.Read(BackingStore::kPageSize - 16, out.data(), 32);
  EXPECT_EQ(out, (std::vector<uint64_t>{1010, 1011, 42, 0}));
  // A value straddling the seam between the view and the owned page.
  EXPECT_EQ(mem.Read64(BackingStore::kPageSize - 4),
            (uint64_t{1011} >> 32) | (uint64_t{42} << 32));
}

TEST(BackingStoreTest, MappingOverOwnedPagesReplacesThem) {
  BackingStore mem(1 << 20);
  mem.Write64(0, 9);
  mem.Write64(BackingStore::kPageSize, 9);
  auto src = Words(2 * BackingStore::kPageSize / 8, 0);
  mem.Map(0, src, src->data(), src->size() * 8);
  EXPECT_EQ(mem.resident_pages(), 0u);
  EXPECT_EQ(mem.mapped_pages(), 2u);
  EXPECT_EQ(mem.Read64(BackingStore::kPageSize), 512u);
}

TEST(BackingStoreTest, StoreKeepsTheMappedBufferAlive) {
  std::weak_ptr<std::vector<uint64_t>> weak;
  {
    BackingStore mem(1 << 20);
    {
      auto src = Words(BackingStore::kPageSize / 8, 11);
      weak = src;
      mem.Map(0, src, src->data(), BackingStore::kPageSize);
    }
    EXPECT_FALSE(weak.expired());
    EXPECT_EQ(mem.Read64(8), 12u);
  }
  EXPECT_TRUE(weak.expired());
}

TEST(BackingStoreDeathTest, OutOfRangeAborts) {
  BackingStore mem(1024);
  uint64_t v = 0;
  EXPECT_DEATH(mem.Write64(1020, v), "out of range");
  EXPECT_DEATH(mem.Read64(1020), "out of range");
}

TEST(BackingStoreDeathTest, RangeCheckDoesNotWrapNearTopOfAddressSpace) {
  // addr + n wraps to 4 here; the check must still see the range as outside.
  BackingStore mem(1024);
  const uint64_t addr = UINT64_MAX - 3;
  uint64_t v = 0;
  EXPECT_DEATH(mem.Write(addr, &v, 8), "out of range");
  EXPECT_DEATH(mem.Read(addr, &v, 8), "out of range");
}

}  // namespace
}  // namespace ndp::dram
