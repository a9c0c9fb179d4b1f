#include "dram/backing_store.h"

#include <gtest/gtest.h>

#include <cstdint>
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
