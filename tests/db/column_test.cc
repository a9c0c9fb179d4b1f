#include "db/column.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "db/table.h"

namespace ndp::db {
namespace {

TEST(ColumnTest, Int64AppendAndRead) {
  Column c = Column::Int64("x");
  c.Append(5);
  c.Append(-7);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 5);
  EXPECT_EQ(c[1], -7);
  EXPECT_EQ(c.type(), ColumnType::kInt64);
  EXPECT_EQ(c.SizeBytes(), 16u);
}

TEST(ColumnTest, SetMutates) {
  Column c = Column::Int64("x");
  c.Append(1);
  c.Set(0, 42);
  EXPECT_EQ(c[0], 42);
}

TEST(ColumnTest, CopySharesTheBufferAndAWriteDetachesIt) {
  Column a = Column::Int64("x");
  for (int64_t v = 0; v < 100; ++v) a.Append(v);
  Column b = a;
  EXPECT_EQ(b.data(), a.data());  // one buffer, two columns
  EXPECT_EQ(a.buffer().use_count(), 3);  // a, b and the returned pointer
  b.Set(7, -1);
  EXPECT_NE(b.data(), a.data());
  EXPECT_EQ(a[7], 7);
  EXPECT_EQ(b[7], -1);
  // Append and Reserve detach a shared buffer the same way.
  Column c = a;
  c.Append(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(c.size(), 101u);
  Column d = a;
  d.Reserve(1000);
  EXPECT_NE(d.data(), a.data());
  EXPECT_EQ(d.values(), a.values());
  // Assign replaces only its own column's buffer.
  Column e = a;
  e.Assign({5, 6});
  EXPECT_EQ(e.values(), (std::vector<int64_t>{5, 6}));
  EXPECT_EQ(a.size(), 100u);
}

TEST(ColumnTest, HeldBufferOutlivesWritesAndTheColumn) {
  auto c = std::make_unique<Column>(Column::Int64("x"));
  for (int64_t v = 0; v < 10; ++v) c->Append(v);
  std::shared_ptr<const std::vector<int64_t>> held = c->buffer();
  const int64_t* held_data = held->data();
  c->Set(0, 99);  // shared with `held`: detaches
  c->Append(10);
  EXPECT_EQ((*held)[0], 0);
  EXPECT_EQ(held->size(), 10u);
  EXPECT_EQ(held->data(), held_data);
  c.reset();
  EXPECT_EQ((*held)[9], 9);
}

TEST(ColumnTest, AnUnsharedBufferIsWrittenInPlace) {
  Column c = Column::Int64("x");
  c.Append(1);
  const int64_t* before = c.data();
  c.Set(0, 2);
  EXPECT_EQ(c.data(), before);
}

TEST(ColumnTest, MovedFromColumnIsEmpty) {
  Column a = Column::Int64("x");
  a.Append(3);
  Column b = std::move(a);
  EXPECT_EQ(b[0], 3);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  a.Append(4);
  EXPECT_EQ(a[0], 4);
  EXPECT_EQ(b.size(), 1u);
}

TEST(ColumnTest, DictionaryInternsAndDecodes) {
  Column c = Column::Dictionary("flag");
  int64_t a = c.InternString("A");
  c.Append(a);
  int64_t n = c.InternString("N");
  c.Append(n);
  int64_t a2 = c.InternString("A");
  c.Append(a2);
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, n);
  EXPECT_EQ(c.dictionary_size(), 2u);
  EXPECT_EQ(c.StringAt(0), "A");
  EXPECT_EQ(c.StringAt(1), "N");
  EXPECT_EQ(c.StringAt(2), "A");
  EXPECT_EQ(c.DecodeCode(n), "N");
}

TEST(ColumnTest, CodeOfMissingString) {
  Column c = Column::Dictionary("flag");
  c.InternString("A");
  EXPECT_TRUE(c.CodeOf("A").ok());
  EXPECT_EQ(c.CodeOf("Z").status().code(), StatusCode::kNotFound);
}

TEST(TableTest, ColumnsAndValidation) {
  Table t("t");
  Column* a = t.AddColumn(Column::Int64("a"));
  Column* b = t.AddColumn(Column::Int64("b"));
  a->Append(1);
  b->Append(2);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_TRUE(t.Validate().ok());
  a->Append(3);
  EXPECT_FALSE(t.Validate().ok());
  EXPECT_EQ(&t.Col("a"), a);
  EXPECT_EQ(t.FindColumn("zzz"), nullptr);
}

TEST(CatalogTest, AddAndFind) {
  Catalog cat;
  Table* t = cat.AddTable("orders");
  EXPECT_EQ(cat.FindTable("orders"), t);
  EXPECT_EQ(cat.FindTable("nope"), nullptr);
  EXPECT_EQ(&cat.Tab("orders"), t);
  EXPECT_EQ(cat.num_tables(), 1u);
}

}  // namespace
}  // namespace ndp::db
