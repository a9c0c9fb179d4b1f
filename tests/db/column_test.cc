#include "db/column.h"

#include <gtest/gtest.h>

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
