#include "db/tpch.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/tpch_queries.h"

namespace ndp::db::tpch {
namespace {

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    TpchConfig cfg;
    cfg.scale = 0.002;  // ~300 customers, ~3000 orders, ~12k lineitems
    Generate(cfg, catalog_);
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  static Catalog* catalog_;
};

Catalog* TpchTest::catalog_ = nullptr;

TEST(DayNumberTest, KnownDates) {
  EXPECT_EQ(DayNumber(1992, 1, 1), 0);
  EXPECT_EQ(DayNumber(1992, 1, 2), 1);
  EXPECT_EQ(DayNumber(1992, 2, 1), 31);
  EXPECT_EQ(DayNumber(1993, 1, 1), 366);  // 1992 is a leap year
  EXPECT_EQ(DayNumber(1998, 12, 1) - DayNumber(1998, 9, 2), 90);
}

TEST_F(TpchTest, TablesExistWithExpectedCardinalities) {
  Table& cust = catalog_->Tab("customer");
  Table& ord = catalog_->Tab("orders");
  Table& li = catalog_->Tab("lineitem");
  TpchConfig cfg;
  cfg.scale = 0.002;
  EXPECT_EQ(cust.num_rows(), cfg.num_customers());
  EXPECT_EQ(ord.num_rows(), cfg.num_orders());
  // 1-7 lines per order, so roughly 4x orders.
  EXPECT_GT(li.num_rows(), ord.num_rows() * 2);
  EXPECT_LT(li.num_rows(), ord.num_rows() * 7);
  EXPECT_TRUE(cust.Validate().ok());
  EXPECT_TRUE(ord.Validate().ok());
  EXPECT_TRUE(li.Validate().ok());
}

TEST_F(TpchTest, GenerationIsDeterministic) {
  Catalog other;
  TpchConfig cfg;
  cfg.scale = 0.002;
  Generate(cfg, &other);
  const Column& a = catalog_->Tab("lineitem").Col("l_extendedprice");
  const Column& b = other.Tab("lineitem").Col("l_extendedprice");
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i += 97) EXPECT_EQ(a[i], b[i]);
}

TEST_F(TpchTest, DomainsRespectTpchRules) {
  Table& li = catalog_->Tab("lineitem");
  const Column& qty = li.Col("l_quantity");
  const Column& disc = li.Col("l_discount");
  const Column& ship = li.Col("l_shipdate");
  const Column& receipt = li.Col("l_receiptdate");
  const Column& rf = li.Col("l_returnflag");
  const Column& ls = li.Col("l_linestatus");
  int64_t current = DayNumber(1995, 6, 17);
  for (size_t i = 0; i < li.num_rows(); ++i) {
    ASSERT_GE(qty[i], 1);
    ASSERT_LE(qty[i], 50);
    ASSERT_GE(disc[i], 0);
    ASSERT_LE(disc[i], 10);
    ASSERT_LT(receipt[i] - ship[i], 31);
    ASSERT_GT(receipt[i], ship[i]);
    // Return flag rule: N iff received after the "current date".
    if (receipt[i] <= current) {
      ASSERT_NE(rf.StringAt(i), "N");
    } else {
      ASSERT_EQ(rf.StringAt(i), "N");
    }
    ASSERT_EQ(ls.StringAt(i), ship[i] > current ? "O" : "F");
  }
}

TEST_F(TpchTest, SomeCustomersPlaceNoOrders) {
  // Required for Q22's anti-join to produce results.
  Table& cust = catalog_->Tab("customer");
  Table& ord = catalog_->Tab("orders");
  std::set<int64_t> ordering;
  const Column& ock = ord.Col("o_custkey");
  for (size_t i = 0; i < ord.num_rows(); ++i) ordering.insert(ock[i]);
  EXPECT_LT(ordering.size(), cust.num_rows());
}

TEST_F(TpchTest, Q6MatchesBruteForceOracle) {
  QueryContext ctx;
  int64_t got = RunQ6(&ctx, catalog_);
  Table& li = catalog_->Tab("lineitem");
  int64_t from = DayNumber(1994, 1, 1), to = DayNumber(1995, 1, 1);
  int64_t expected = 0;
  for (size_t i = 0; i < li.num_rows(); ++i) {
    int64_t ship = li.Col("l_shipdate")[i];
    int64_t disc = li.Col("l_discount")[i];
    int64_t qty = li.Col("l_quantity")[i];
    if (ship >= from && ship < to && disc >= 5 && disc <= 7 && qty < 24) {
      expected += li.Col("l_extendedprice")[i] * disc / 100;
    }
  }
  EXPECT_EQ(got, expected);
  EXPECT_GT(got, 0);
}

TEST_F(TpchTest, Q1ProducesFourGroupsCoveringAllSelectedRows) {
  QueryContext ctx;
  auto rows = RunQ1(&ctx, catalog_);
  // (A,F), (R,F), (N,F), (N,O) are the classic TPC-H Q1 groups.
  EXPECT_EQ(rows.size(), 4u);
  int64_t total_count = 0;
  for (const auto& r : rows) {
    EXPECT_GT(r.count_order, 0);
    EXPECT_GE(r.sum_base_price, r.sum_disc_price);  // discounts only reduce
    total_count += r.count_order;
  }
  // Total grouped rows == rows passing the date filter.
  Table& li = catalog_->Tab("lineitem");
  int64_t cutoff = DayNumber(1998, 12, 1) - 90;
  int64_t expected = 0;
  for (size_t i = 0; i < li.num_rows(); ++i) {
    expected += li.Col("l_shipdate")[i] <= cutoff;
  }
  EXPECT_EQ(total_count, expected);
}

TEST_F(TpchTest, Q3TopTenOrderedByRevenue) {
  QueryContext ctx;
  auto rows = RunQ3(&ctx, catalog_);
  ASSERT_LE(rows.size(), 10u);
  ASSERT_GE(rows.size(), 1u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].revenue, rows[i].revenue);
  }
  // Spot-check the winner against a brute-force recomputation.
  Table& li = catalog_->Tab("lineitem");
  int64_t date = DayNumber(1995, 3, 15);
  int64_t revenue = 0;
  for (size_t i = 0; i < li.num_rows(); ++i) {
    if (li.Col("l_orderkey")[i] == rows[0].orderkey &&
        li.Col("l_shipdate")[i] > date) {
      revenue += li.Col("l_extendedprice")[i] *
                 (100 - li.Col("l_discount")[i]) / 100;
    }
  }
  EXPECT_EQ(rows[0].revenue, revenue);
}

TEST_F(TpchTest, Q18AllRowsExceed300Units) {
  QueryContext ctx;
  auto rows = RunQ18(&ctx, catalog_);
  for (const auto& r : rows) {
    EXPECT_GT(r.sum_quantity, 300);
    EXPECT_GT(r.custkey, 0);
  }
  // Descending by totalprice.
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].totalprice, rows[i].totalprice);
  }
}

TEST_F(TpchTest, Q22CustomersHaveNoOrders) {
  QueryContext ctx;
  auto rows = RunQ22(&ctx, catalog_);
  EXPECT_GT(rows.size(), 0u);
  int64_t total = 0;
  for (const auto& r : rows) {
    EXPECT_GE(r.country_code, 10);
    EXPECT_LE(r.country_code, 34);
    EXPECT_GT(r.num_customers, 0);
    EXPECT_GT(r.total_acctbal, 0);  // above-average balances are positive
    total += r.num_customers;
  }
  EXPECT_GT(total, 0);
}

TEST_F(TpchTest, QueriesAgreeAcrossSelectModesAndTracing) {
  for (int q : {1, 3, 6, 18, 22}) {
    QueryContext branching;
    branching.select_mode = SelectMode::kBranching;
    QueryContext predicated;
    predicated.select_mode = SelectMode::kPredicated;
    TraceRecorder trace;
    QueryContext traced;
    traced.trace = &trace;
    int64_t a = RunQueryByNumber(&branching, catalog_, q).ValueOrDie();
    int64_t b = RunQueryByNumber(&predicated, catalog_, q).ValueOrDie();
    int64_t c = RunQueryByNumber(&traced, catalog_, q).ValueOrDie();
    EXPECT_EQ(a, b) << "Q" << q;
    EXPECT_EQ(a, c) << "Q" << q;
    EXPECT_GT(trace.events().size(), 100u) << "Q" << q;
  }
}

TEST_F(TpchTest, UnknownQueryNumberRejected) {
  QueryContext ctx;
  EXPECT_FALSE(RunQueryByNumber(&ctx, catalog_, 2).ok());
}

// Pins the generated catalog: FNV-1a over every column's name, type, values
// and dictionary, for the uniform and the skewed generator at scale 0.01. A
// faster generator must leave both constants unchanged.
TEST(TpchCatalogDigestTest, GeneratedCatalogMatchesGolden) {
  const std::pair<const char*, std::vector<const char*>> schema[] = {
      {"customer", {"c_custkey", "c_mktsegment", "c_acctbal", "c_phone_cc"}},
      {"orders",
       {"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice",
        "o_shippriority"}},
      {"lineitem",
       {"l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "l_tax",
        "l_returnflag", "l_linestatus", "l_shipdate", "l_commitdate",
        "l_receiptdate"}},
  };
  for (const auto& [theta, golden] :
       {std::pair{0.0, 0x91909bbf0ae4a724ull},
        std::pair{1.0, 0xe88c34404c184b16ull}}) {
    uint64_t hash = 0xcbf29ce484222325ull;
    auto mix_byte = [&hash](uint8_t b) {
      hash ^= b;
      hash *= 0x100000001b3ull;
    };
    auto mix = [&mix_byte](uint64_t v) {
      for (int i = 0; i < 8; ++i) mix_byte((v >> (8 * i)) & 0xff);
    };
    auto mix_string = [&mix_byte](const std::string& s) {
      for (char c : s) mix_byte(static_cast<uint8_t>(c));
    };

    Catalog catalog;
    TpchConfig cfg;
    cfg.scale = 0.01;
    cfg.skew_theta = theta;
    Generate(cfg, &catalog);
    ASSERT_EQ(catalog.num_tables(), std::size(schema));
    for (const auto& [table_name, columns] : schema) {
      const Table& table = catalog.Tab(table_name);
      ASSERT_EQ(table.num_columns(), columns.size()) << table_name;
      for (const char* name : columns) {
        const Column& col = table.Col(name);
        mix_string(col.name());
        mix(static_cast<uint64_t>(col.type()));
        mix(col.size());
        for (int64_t v : col.values()) mix(static_cast<uint64_t>(v));
        mix(col.dictionary_size());
        for (size_t code = 0; code < col.dictionary_size(); ++code) {
          const std::string& s = col.DecodeCode(static_cast<int64_t>(code));
          mix_string(s);
          mix(s.size());
        }
      }
    }
    EXPECT_EQ(hash, golden) << "theta=" << theta;
  }
}

}  // namespace
}  // namespace ndp::db::tpch
