#include "db/zonemap.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace ndp::db {
namespace {

Column MakeColumn(const std::vector<int64_t>& values) {
  Column c = Column::Int64("c");
  for (int64_t v : values) c.Append(v);
  return c;
}

TEST(ZoneMapTest, BlockMinMax) {
  Column col = MakeColumn({5, 1, 9, 3, 100, 50, 70, 60});
  ZoneMap zm(col, 4);
  ASSERT_EQ(zm.num_blocks(), 2u);
  EXPECT_EQ(zm.block_min(0), 1);
  EXPECT_EQ(zm.block_max(0), 9);
  EXPECT_EQ(zm.block_min(1), 50);
  EXPECT_EQ(zm.block_max(1), 100);
}

TEST(ZoneMapTest, PruningIsConservative) {
  // Property: a pruned block must contain no qualifying value, and
  // CandidateBlocks() lists exactly the blocks BlockMayMatch() keeps.
  Rng rng(3);
  std::vector<int64_t> values(20000);
  for (auto& v : values) v = rng.NextInRange(0, 999);
  std::sort(values.begin(), values.end());
  Column col = MakeColumn(values);
  ZoneMap zm(col, 512);
  for (const Pred& pred :
       {Pred::Between(100, 200), Pred::Eq(500), Pred::Lt(50), Pred::Gt(950),
        Pred::Le(0), Pred::Ge(999), Pred::Ne(values[0])}) {
    std::vector<uint32_t> kept;
    for (size_t b = 0; b < zm.num_blocks(); ++b) {
      if (zm.BlockMayMatch(b, pred)) kept.push_back(static_cast<uint32_t>(b));
    }
    EXPECT_EQ(zm.CandidateBlocks(pred), kept);
    // Cross-check BlockMayMatch against a per-block oracle.
    for (size_t b = 0; b < zm.num_blocks(); ++b) {
      bool any = false;
      for (size_t i = b * 512; i < std::min(values.size(), (b + 1) * 512);
           ++i) {
        any |= pred.Eval(values[i]);
      }
      if (any) {
        EXPECT_TRUE(zm.BlockMayMatch(b, pred))
            << "false prune, block " << b;
      }
    }
  }
}

TEST(ZoneMapTest, SortedDataPrunesUnsortedDoesNot) {
  Rng rng(7);
  std::vector<int64_t> values(40960);
  for (auto& v : values) v = rng.NextInRange(0, 999999);
  Column random_col = MakeColumn(values);
  std::sort(values.begin(), values.end());
  Column sorted_col = MakeColumn(values);
  Pred pred = Pred::Between(100000, 150000);
  ZoneMap zm_random(random_col);
  ZoneMap zm_sorted(sorted_col);
  EXPECT_LT(zm_random.PruneFraction(pred), 0.05);
  EXPECT_GT(zm_sorted.PruneFraction(pred), 0.8);
}

TEST(ZoneMapTest, PartialLastBlock) {
  Column col = MakeColumn({1, 2, 3, 4, 5});
  ZoneMap zm(col, 4);
  ASSERT_EQ(zm.num_blocks(), 2u);
  EXPECT_EQ(zm.block_min(1), 5);
  EXPECT_EQ(zm.block_max(1), 5);
  EXPECT_EQ(zm.CandidateBlocks(Pred::Ge(5)), (std::vector<uint32_t>{1}));
}

}  // namespace
}  // namespace ndp::db
