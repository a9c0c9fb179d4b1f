#include "db/tpch_queries.h"

#include <algorithm>

#include "db/tpch.h"
#include "util/macros.h"

namespace ndp::db::tpch {

namespace {
/// Packs (returnflag, linestatus) codes into one group key.
int64_t PackQ1Key(int64_t rf, int64_t ls) { return rf * 16 + ls; }
}  // namespace

std::vector<Q1Row> RunQ1(QueryContext* ctx, Catalog* catalog) {
  Table& li = catalog->Tab("lineitem");
  const Column& shipdate = li.Col("l_shipdate");
  // l_shipdate <= date '1998-12-01' - interval '90' day
  int64_t cutoff = DayNumber(1998, 12, 1) - 90;
  PositionList pos = ScanSelect(ctx, shipdate, Pred::Le(cutoff));

  auto qty = Gather(ctx, li.Col("l_quantity"), pos);
  auto price = Gather(ctx, li.Col("l_extendedprice"), pos);
  auto disc = Gather(ctx, li.Col("l_discount"), pos);
  auto tax = Gather(ctx, li.Col("l_tax"), pos);
  auto rf = Gather(ctx, li.Col("l_returnflag"), pos);
  auto ls = Gather(ctx, li.Col("l_linestatus"), pos);

  // Derived measures, in place: rf becomes the group key, disc the discounted
  // price, tax the charge (disc and tax in percent; results in cents).
  for (size_t i = 0; i < pos.size(); ++i) {
    rf[i] = PackQ1Key(rf[i], ls[i]);
    disc[i] = price[i] * (100 - disc[i]) / 100;
    tax[i] = disc[i] * (100 + tax[i]) / 100;
  }
  if (ctx->trace) ctx->trace->Compute(pos.size() * 6);

  std::vector<AggSpec> specs = {
      {AggFn::kSum, &qty},  {AggFn::kSum, &price},
      {AggFn::kSum, &disc}, {AggFn::kSum, &tax},
      {AggFn::kCount, nullptr},
  };
  auto groups = GroupAggregate(ctx, rf, specs);

  const Column& rf_col = li.Col("l_returnflag");
  const Column& ls_col = li.Col("l_linestatus");
  std::vector<Q1Row> out;
  for (const auto& [key, aggs] : groups) {
    Q1Row row;
    row.returnflag = rf_col.DecodeCode(key / 16);
    row.linestatus = ls_col.DecodeCode(key % 16);
    row.sum_qty = aggs[0];
    row.sum_base_price = aggs[1];
    row.sum_disc_price = aggs[2];
    row.sum_charge = aggs[3];
    row.count_order = aggs[4];
    out.push_back(row);
  }
  return out;
}

std::vector<Q3Row> RunQ3(QueryContext* ctx, Catalog* catalog) {
  Table& cust = catalog->Tab("customer");
  Table& ord = catalog->Tab("orders");
  Table& li = catalog->Tab("lineitem");
  int64_t date = DayNumber(1995, 3, 15);

  // customer: c_mktsegment = 'BUILDING'
  int64_t building =
      cust.Col("c_mktsegment").CodeOf("BUILDING").ValueOrDie();
  PositionList cust_pos =
      ScanSelect(ctx, cust.Col("c_mktsegment"), Pred::Eq(building));

  // orders: o_orderdate < date
  PositionList ord_pos = ScanSelect(ctx, ord.Col("o_orderdate"), Pred::Lt(date));

  // join customer x orders on custkey
  JoinResult co = HashJoin(ctx, cust.Col("c_custkey"), cust_pos,
                           ord.Col("o_custkey"), ord_pos);

  // lineitem: l_shipdate > date
  PositionList li_pos = ScanSelect(ctx, li.Col("l_shipdate"), Pred::Gt(date));

  // JSPIM-style pushdown: when the semijoin hook is installed, prefilter the
  // lineitem positions on-device against the qualifying orderkeys before the
  // host join. The semijoin only drops rows the join would drop anyway, so
  // the join output — and the query result — is bit-identical.
  if (ctx->ndp_semi_join) {
    li_pos = HashSemiJoin(ctx, ord.Col("o_orderkey"), co.right,
                          li.Col("l_orderkey"), li_pos);
  }

  // join (c x o) x lineitem on orderkey
  JoinResult col = HashJoin(ctx, ord.Col("o_orderkey"), co.right,
                            li.Col("l_orderkey"), li_pos);

  // revenue per lineitem = extendedprice * (1 - discount)
  auto price = Gather(ctx, li.Col("l_extendedprice"), col.right);
  auto disc = Gather(ctx, li.Col("l_discount"), col.right);
  auto okey = Gather(ctx, li.Col("l_orderkey"), col.right);
  std::vector<int64_t> revenue(price.size());
  for (size_t i = 0; i < price.size(); ++i) {
    revenue[i] = price[i] * (100 - disc[i]) / 100;
  }
  if (ctx->trace) ctx->trace->Compute(price.size() * 3);

  std::vector<AggSpec> specs = {{AggFn::kSum, &revenue}};
  auto groups = GroupAggregate(ctx, okey, specs);

  std::vector<Q3Row> rows;
  rows.reserve(groups.size());
  const Column& odate = ord.Col("o_orderdate");
  const Column& okey_col = ord.Col("o_orderkey");
  for (const auto& [orderkey, aggs] : groups) {
    Q3Row r;
    r.orderkey = orderkey;
    r.revenue = aggs[0];
    // orderkey is 1-based and dense in our generator.
    NDP_CHECK(okey_col[static_cast<size_t>(orderkey - 1)] == orderkey);
    r.orderdate = odate[static_cast<size_t>(orderkey - 1)];
    rows.push_back(r);
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Q3Row& a, const Q3Row& b) {
    if (a.revenue != b.revenue) return a.revenue > b.revenue;
    return a.orderdate < b.orderdate;
  });
  if (rows.size() > 10) rows.resize(10);
  if (ctx->trace) ctx->trace->Compute(groups.size() * 5);  // sort cost
  return rows;
}

int64_t RunQ6(QueryContext* ctx, Catalog* catalog) {
  Table& li = catalog->Tab("lineitem");
  int64_t from = DayNumber(1994, 1, 1);
  int64_t to = DayNumber(1995, 1, 1);  // exclusive

  PositionList pos =
      ScanSelect(ctx, li.Col("l_shipdate"), Pred::Between(from, to - 1));
  pos = Refine(ctx, li.Col("l_discount"), Pred::Between(5, 7), pos);
  pos = Refine(ctx, li.Col("l_quantity"), Pred::Lt(24), pos);

  auto price = Gather(ctx, li.Col("l_extendedprice"), pos);
  auto disc = Gather(ctx, li.Col("l_discount"), pos);
  std::vector<int64_t> rev(pos.size());
  for (size_t i = 0; i < pos.size(); ++i) rev[i] = price[i] * disc[i] / 100;
  if (ctx->trace) ctx->trace->Compute(pos.size() * 2);
  return Aggregate(ctx, AggFn::kSum, rev);
}

std::vector<Q18Row> RunQ18(QueryContext* ctx, Catalog* catalog) {
  Table& ord = catalog->Tab("orders");
  Table& li = catalog->Tab("lineitem");

  // Group lineitem by orderkey, sum quantity; keep groups with sum > 300.
  // With the group-by pushdown hook installed the full-column aggregation
  // runs on-device (GroupSumFullColumn); otherwise the classic gather +
  // hash-aggregate CPU plan runs, byte-for-byte as before.
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  if (ctx->ndp_group_by) {
    groups =
        GroupSumFullColumn(ctx, li.Col("l_orderkey"), li.Col("l_quantity"));
  } else {
    PositionList all_li(li.num_rows());
    for (size_t i = 0; i < all_li.size(); ++i) {
      all_li[i] = static_cast<uint32_t>(i);
    }
    auto okey = Gather(ctx, li.Col("l_orderkey"), all_li);
    auto qty = Gather(ctx, li.Col("l_quantity"), all_li);
    std::vector<AggSpec> specs = {{AggFn::kSum, &qty}};
    for (const auto& [key, aggs] : GroupAggregate(ctx, okey, specs)) {
      groups.emplace(key, std::make_pair(aggs[0], int64_t{0}));
    }
  }

  std::vector<Q18Row> rows;
  const Column& okey_col = ord.Col("o_orderkey");
  const Column& ocust = ord.Col("o_custkey");
  const Column& ototal = ord.Col("o_totalprice");
  for (const auto& [orderkey, aggs] : groups) {
    if (aggs.first <= 300) continue;
    Q18Row r;
    r.orderkey = orderkey;
    r.sum_quantity = aggs.first;
    size_t oi = static_cast<size_t>(orderkey - 1);
    NDP_CHECK(okey_col[oi] == orderkey);
    r.custkey = ocust[oi];
    r.totalprice = ototal[oi];
    if (ctx->trace) {
      // Point lookups into the orders table.
      ctx->trace->Compute(6);
      ctx->trace->Load(ctx->trace->LayoutColumn(ocust) + oi * 8);
      ctx->trace->Load(ctx->trace->LayoutColumn(ototal) + oi * 8);
    }
    rows.push_back(r);
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Q18Row& a, const Q18Row& b) {
                     if (a.totalprice != b.totalprice) {
                       return a.totalprice > b.totalprice;
                     }
                     return a.orderkey < b.orderkey;
                   });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Q22Row> RunQ22(QueryContext* ctx, Catalog* catalog) {
  Table& cust = catalog->Tab("customer");
  Table& ord = catalog->Tab("orders");
  const Column& cc = cust.Col("c_phone_cc");
  const Column& bal = cust.Col("c_acctbal");

  // Customers in the seven target country codes.
  static constexpr int64_t kCodes[] = {13, 31, 23, 29, 30, 18, 17};
  PositionList in_codes;
  {
    PositionList all;
    for (int64_t code : kCodes) {
      PositionList p = ScanSelect(ctx, cc, Pred::Eq(code));
      all.insert(all.end(), p.begin(), p.end());
    }
    std::sort(all.begin(), all.end());
    in_codes = std::move(all);
  }

  // Average positive balance among those customers.
  PositionList positive = Refine(ctx, bal, Pred::Gt(0), in_codes);
  auto pos_bal = Gather(ctx, bal, positive);
  int64_t avg = positive.empty()
                    ? 0
                    : Aggregate(ctx, AggFn::kSum, pos_bal) /
                          static_cast<int64_t>(positive.size());

  // Above-average balance...
  PositionList rich = Refine(ctx, bal, Pred::Gt(avg), in_codes);

  // ...with no orders: anti semi-join against orders.o_custkey.
  PositionList all_orders(ord.num_rows());
  for (size_t i = 0; i < all_orders.size(); ++i) {
    all_orders[i] = static_cast<uint32_t>(i);
  }
  PositionList no_orders =
      HashSemiJoin(ctx, ord.Col("o_custkey"), all_orders,
                   cust.Col("c_custkey"), rich, /*anti=*/true);

  auto codes = Gather(ctx, cc, no_orders);
  auto bals = Gather(ctx, bal, no_orders);
  std::vector<AggSpec> specs = {{AggFn::kCount, nullptr}, {AggFn::kSum, &bals}};
  auto groups = GroupAggregate(ctx, codes, specs);

  std::vector<Q22Row> rows;
  for (const auto& [code, aggs] : groups) {
    rows.push_back(Q22Row{code, aggs[0], aggs[1]});
  }
  return rows;
}

Result<int64_t> RunQueryByNumber(QueryContext* ctx, Catalog* catalog,
                                 int query_number) {
  switch (query_number) {
    case 1: {
      int64_t sum = 0;
      for (const Q1Row& r : RunQ1(ctx, catalog)) {
        sum += r.sum_qty + r.sum_disc_price + r.count_order;
      }
      return sum;
    }
    case 3: {
      int64_t sum = 0;
      for (const Q3Row& r : RunQ3(ctx, catalog)) sum += r.orderkey + r.revenue;
      return sum;
    }
    case 6:
      return RunQ6(ctx, catalog);
    case 18: {
      int64_t sum = 0;
      for (const Q18Row& r : RunQ18(ctx, catalog)) {
        sum += r.orderkey + r.sum_quantity;
      }
      return sum;
    }
    case 22: {
      int64_t sum = 0;
      for (const Q22Row& r : RunQ22(ctx, catalog)) {
        sum += r.country_code + r.num_customers + r.total_acctbal;
      }
      return sum;
    }
    default:
      return Status::InvalidArgument("unsupported query number " +
                                     std::to_string(query_number));
  }
}

}  // namespace ndp::db::tpch
