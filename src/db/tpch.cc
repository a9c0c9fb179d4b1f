#include "db/tpch.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "util/macros.h"

namespace ndp::db::tpch {

namespace {
// Days-from-civil (Howard Hinnant's algorithm), rebased to 1992-01-01.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  int era = (y >= 0 ? y : y - 399) / 400;
  unsigned yoe = static_cast<unsigned>(y - era * 400);
  unsigned doy = (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
                 static_cast<unsigned>(d) - 1;
  unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int64_t>(era) * 146097 + static_cast<int64_t>(doe) -
         719468;
}
const int64_t kEpoch1992 = DaysFromCivil(1992, 1, 1);

/// Lines-per-order cap under skew: one hot order then spans several device
/// pages without letting a single key swallow the whole line budget.
constexpr uint32_t kMaxLinesPerOrder = 2048;

/// Zipf(theta) multiplicities: the order with 1-based rank r receives a
/// share of the total line budget (mean_lines x norders) proportional to
/// r^-theta, floored at 1 line and capped at kMaxLinesPerOrder. Fully
/// deterministic (no rng draws), so the skewed generator stays reproducible
/// for any theta.
std::vector<uint32_t> ZipfLineCounts(uint64_t norders, double theta,
                                     double mean_lines) {
  std::vector<double> w(norders);
  double total_w = 0.0;
  for (uint64_t o = 0; o < norders; ++o) {
    w[o] = std::pow(static_cast<double>(o + 1), -theta);
    total_w += w[o];
  }
  const double budget = mean_lines * static_cast<double>(norders);
  std::vector<uint32_t> lines(norders);
  for (uint64_t o = 0; o < norders; ++o) {
    double share = std::floor(budget * w[o] / total_w);
    share = std::max(1.0, std::min<double>(share, kMaxLinesPerOrder));
    lines[o] = static_cast<uint32_t>(share);
  }
  return lines;
}
}  // namespace

int64_t DayNumber(int year, int month, int day) {
  return DaysFromCivil(year, month, day) - kEpoch1992;
}

void Generate(const TpchConfig& config, Catalog* catalog) {
  Rng rng(config.seed);

  // ---- customer -----------------------------------------------------------
  Table* customer = catalog->AddTable("customer");
  Column* c_custkey = customer->AddColumn(Column::Int64("c_custkey"));
  Column* c_mktsegment =
      customer->AddColumn(Column::Dictionary("c_mktsegment"));
  Column* c_acctbal = customer->AddColumn(Column::Int64("c_acctbal"));
  Column* c_phone_cc = customer->AddColumn(Column::Int64("c_phone_cc"));
  const uint64_t ncust = config.num_customers();
  for (Column* col : {c_custkey, c_mktsegment, c_acctbal, c_phone_cc}) {
    col->Reserve(ncust);
  }
  // Segment codes follow first appearance, as interning each row would.
  int64_t segment_code[kNumMktSegments];
  std::fill(std::begin(segment_code), std::end(segment_code), -1);
  for (uint64_t c = 0; c < ncust; ++c) {
    c_custkey->Append(static_cast<int64_t>(c + 1));
    const uint32_t segment = rng.NextBounded(kNumMktSegments);
    if (segment_code[segment] < 0) {
      segment_code[segment] = c_mktsegment->InternString(kMktSegments[segment]);
    }
    c_mktsegment->Append(segment_code[segment]);
    // acctbal in [-999.99, 9999.99], stored in cents.
    c_acctbal->Append(rng.NextInRange(-99999, 999999));
    // Phone country code: TPC-H uses 10..34.
    c_phone_cc->Append(rng.NextInRange(10, 34));
  }

  // ---- orders --------------------------------------------------------------
  Table* orders = catalog->AddTable("orders");
  Column* o_orderkey = orders->AddColumn(Column::Int64("o_orderkey"));
  Column* o_custkey = orders->AddColumn(Column::Int64("o_custkey"));
  Column* o_orderdate = orders->AddColumn(Column::Int64("o_orderdate"));
  Column* o_totalprice = orders->AddColumn(Column::Int64("o_totalprice"));
  Column* o_shippriority = orders->AddColumn(Column::Int64("o_shippriority"));
  const uint64_t norders = config.num_orders();
  // Order dates span 1992-01-01 .. 1998-08-02 (as in TPC-H).
  const int64_t last_orderdate = DayNumber(1998, 8, 2);
  // One third of customers never place orders (required for Q22's anti-join).
  const uint64_t ordering_customers = std::max<uint64_t>(1, ncust * 2 / 3);
  for (Column* col :
       {o_orderkey, o_custkey, o_orderdate, o_totalprice, o_shippriority}) {
    col->Reserve(norders);
  }
  for (uint64_t o = 0; o < norders; ++o) {
    o_orderkey->Append(static_cast<int64_t>(o + 1));
    o_custkey->Append(
        static_cast<int64_t>(rng.NextBounded(
            static_cast<uint32_t>(ordering_customers)) + 1));
    o_orderdate->Append(rng.NextInRange(0, last_orderdate));
    o_totalprice->Append(0);  // backfilled from lineitem below
    o_shippriority->Append(0);
  }

  // ---- lineitem -------------------------------------------------------------
  Table* lineitem = catalog->AddTable("lineitem");
  Column* l_orderkey = lineitem->AddColumn(Column::Int64("l_orderkey"));
  Column* l_quantity = lineitem->AddColumn(Column::Int64("l_quantity"));
  Column* l_extendedprice =
      lineitem->AddColumn(Column::Int64("l_extendedprice"));
  Column* l_discount = lineitem->AddColumn(Column::Int64("l_discount"));
  Column* l_tax = lineitem->AddColumn(Column::Int64("l_tax"));
  Column* l_returnflag = lineitem->AddColumn(Column::Dictionary("l_returnflag"));
  Column* l_linestatus = lineitem->AddColumn(Column::Dictionary("l_linestatus"));
  Column* l_shipdate = lineitem->AddColumn(Column::Int64("l_shipdate"));
  Column* l_commitdate = lineitem->AddColumn(Column::Int64("l_commitdate"));
  Column* l_receiptdate = lineitem->AddColumn(Column::Int64("l_receiptdate"));

  // Intern dictionary codes in a fixed order so they are stable across runs.
  const int64_t flag_a = l_returnflag->InternString("A");
  const int64_t flag_n = l_returnflag->InternString("N");
  const int64_t flag_r = l_returnflag->InternString("R");
  const int64_t status_o = l_linestatus->InternString("O");
  const int64_t status_f = l_linestatus->InternString("F");

  const int64_t current_date = DayNumber(1995, 6, 17);
  std::vector<uint32_t> zipf_lines;
  // The uniform draw gives at most 7 lines per order.
  uint64_t max_lines = 7 * norders;
  if (config.skew_theta > 0.0) {
    // Mean 4 lines/order matches the uniform 1..7 draw's expectation.
    zipf_lines = ZipfLineCounts(norders, config.skew_theta, 4.0);
    max_lines = std::accumulate(zipf_lines.begin(), zipf_lines.end(),
                                uint64_t{0});
  }
  for (Column* col : {l_orderkey, l_quantity, l_extendedprice, l_discount,
                      l_tax, l_returnflag, l_linestatus, l_shipdate,
                      l_commitdate, l_receiptdate}) {
    col->Reserve(max_lines);
  }
  std::vector<int64_t> order_totals(norders, 0);
  for (uint64_t o = 0; o < norders; ++o) {
    uint32_t lines = config.skew_theta > 0.0 ? zipf_lines[o]
                                             : 1 + rng.NextBounded(7);
    int64_t orderdate = (*o_orderdate)[o];
    int64_t total = 0;
    for (uint32_t l = 0; l < lines; ++l) {
      int64_t quantity = rng.NextInRange(1, 50);
      int64_t price = quantity * rng.NextInRange(90000, 110000) / 100;
      int64_t discount = rng.NextInRange(0, 10);  // percent
      int64_t tax = rng.NextInRange(0, 8);
      int64_t shipdate = orderdate + rng.NextInRange(1, 121);
      int64_t commitdate = orderdate + rng.NextInRange(30, 90);
      int64_t receiptdate = shipdate + rng.NextInRange(1, 30);

      l_orderkey->Append(static_cast<int64_t>(o + 1));
      l_quantity->Append(quantity);
      l_extendedprice->Append(price);
      l_discount->Append(discount);
      l_tax->Append(tax);
      if (receiptdate <= current_date) {
        l_returnflag->Append(rng.NextBool(0.5) ? flag_a : flag_r);
      } else {
        l_returnflag->Append(flag_n);
      }
      l_linestatus->Append(shipdate > current_date ? status_o : status_f);
      l_shipdate->Append(shipdate);
      l_commitdate->Append(commitdate);
      l_receiptdate->Append(receiptdate);
      total += price;
    }
    order_totals[o] = total;
  }
  // Backfill o_totalprice (approximation: sum of extended prices).
  for (uint64_t o = 0; o < norders; ++o) {
    o_totalprice->Set(o, order_totals[o]);
  }

  NDP_CHECK(customer->Validate().ok());
  NDP_CHECK(orders->Validate().ok());
  NDP_CHECK(lineitem->Validate().ok());
}

}  // namespace ndp::db::tpch
