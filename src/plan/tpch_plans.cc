#include "plan/tpch_plans.h"

namespace plan {
namespace {

using core::AggOp;
using core::CompareOp;
using core::Predicate;

NodeInput V(int node) { return NodeInput{node, Part::kValue}; }
NodeInput Rows(int node) { return NodeInput{node, Part::kRowIds}; }

}  // namespace

QueryPlanBundle BuildQ1Plan(const storage::DeviceTable& lineitem,
                            const tpch::Q1Params& params) {
  QueryPlanBundle b;
  Plan& p = b.plan;
  const int s_ship = p.Scan("lineitem", "l_shipdate", lineitem);
  const int s_rfls = p.Scan("lineitem", "l_rfls", lineitem);
  const int s_qty = p.Scan("lineitem", "l_quantity", lineitem);
  const int s_price = p.Scan("lineitem", "l_extendedprice", lineitem);
  const int s_disc = p.Scan("lineitem", "l_discount", lineitem);
  const int s_tax = p.Scan("lineitem", "l_tax", lineitem);

  const int f = p.Filter(
      V(s_ship), Predicate::Make("l_shipdate", CompareOp::kLe,
                                 static_cast<double>(params.CutoffDays())));
  const int g_key = p.Gather(V(s_rfls), Rows(f), "l_rfls[sel]");
  const int g_qty = p.Gather(V(s_qty), Rows(f), "l_quantity[sel]");
  const int g_price = p.Gather(V(s_price), Rows(f), "l_extendedprice[sel]");
  const int g_disc = p.Gather(V(s_disc), Rows(f), "l_discount[sel]");
  const int g_tax = p.Gather(V(s_tax), Rows(f), "l_tax[sel]");

  const int m1 = p.Map(MapOp::kSubFromScalar, V(g_disc), NodeInput{}, 1.0,
                       "1-disc");
  const int m2 = p.Map(MapOp::kMul, V(g_price), V(m1), 0.0, "disc_price");
  const int m3 = p.Map(MapOp::kAddScalar, V(g_tax), NodeInput{}, 1.0,
                       "1+tax");
  const int m4 = p.Map(MapOp::kMul, V(m2), V(m3), 0.0, "charge");

  const int gb = p.GroupBy(V(g_key),
                           {{V(g_qty), AggOp::kSum, "sum_qty"},
                            {V(g_price), AggOp::kSum, "sum_base_price"},
                            {V(m2), AggOp::kSum, "sum_disc_price"},
                            {V(m4), AggOp::kSum, "sum_charge"},
                            {V(g_disc), AggOp::kSum, "sum_disc"},
                            {V(g_qty), AggOp::kCount, "count_order"}},
                           "by l_rfls");
  b.marks["groups"] = p.FetchGroups(gb);
  return b;
}

QueryPlanBundle BuildQ6Plan(const storage::DeviceTable& lineitem,
                            const tpch::Q6Params& params) {
  QueryPlanBundle b;
  Plan& p = b.plan;
  const int s_ship = p.Scan("lineitem", "l_shipdate", lineitem);
  const int s_disc = p.Scan("lineitem", "l_discount", lineitem);
  const int s_qty = p.Scan("lineitem", "l_quantity", lineitem);
  const int s_price = p.Scan("lineitem", "l_extendedprice", lineitem);

  // Five chained single-predicate sigmas; the optimizer folds them into one
  // SelectConjunctive in this column/predicate order.
  const int f1 = p.Filter(
      V(s_ship), Predicate::Make("l_shipdate", CompareOp::kGe,
                                 static_cast<double>(params.date_lo)));
  const int f2 = p.Filter(
      V(s_ship), Predicate::Make("l_shipdate", CompareOp::kLt,
                                 static_cast<double>(params.date_hi)),
      f1);
  const int f3 = p.Filter(
      V(s_disc),
      Predicate::Make("l_discount", CompareOp::kGe, params.discount_lo), f2);
  const int f4 = p.Filter(
      V(s_disc),
      Predicate::Make("l_discount", CompareOp::kLe, params.discount_hi), f3);
  const int f5 = p.Filter(
      V(s_qty),
      Predicate::Make("l_quantity", CompareOp::kLt, params.quantity_hi), f4);

  const int g_price = p.Gather(V(s_price), Rows(f5), "l_extendedprice[sel]");
  const int g_disc = p.Gather(V(s_disc), Rows(f5), "l_discount[sel]");
  const int m = p.Map(MapOp::kMul, V(g_price), V(g_disc), 0.0, "revenue");
  b.marks["revenue"] = p.Reduce(V(m), AggOp::kSum, "sum(revenue)");
  return b;
}

QueryPlanBundle BuildQ3Plan(const storage::DeviceTable& customer,
                            const storage::DeviceTable& orders,
                            const storage::DeviceTable& lineitem,
                            const tpch::Q3Params& params) {
  QueryPlanBundle b;
  Plan& p = b.plan;
  const int s_cseg = p.Scan("customer", "c_mktsegment", customer);
  const int s_ckey = p.Scan("customer", "c_custkey", customer);
  const int s_odate = p.Scan("orders", "o_orderdate", orders);
  const int s_okey = p.Scan("orders", "o_orderkey", orders);
  const int s_ocust = p.Scan("orders", "o_custkey", orders);
  const int s_lship = p.Scan("lineitem", "l_shipdate", lineitem);
  const int s_lkey = p.Scan("lineitem", "l_orderkey", lineitem);
  const int s_lprice = p.Scan("lineitem", "l_extendedprice", lineitem);
  const int s_ldisc = p.Scan("lineitem", "l_discount", lineitem);

  const int f_cust = p.Filter(
      V(s_cseg), Predicate::Make("c_mktsegment", CompareOp::kEq,
                                 static_cast<double>(params.segment)));
  const int g_ckey = p.Gather(V(s_ckey), Rows(f_cust), "c_custkey[sel]");

  const int f_ord = p.Filter(
      V(s_odate), Predicate::Make("o_orderdate", CompareOp::kLt,
                                  static_cast<double>(params.date)));
  const int g_okey = p.Gather(V(s_okey), Rows(f_ord), "o_orderkey[sel]");
  const int g_ocust = p.Gather(V(s_ocust), Rows(f_ord), "o_custkey[sel]");

  const int j1 = p.Join(V(g_ckey), V(g_ocust), "customer|X|orders");
  const int g_surv = p.Gather(V(g_okey),
                              NodeInput{j1, Part::kRightRows},
                              "o_orderkey[join]");

  const int f_li = p.Filter(
      V(s_lship), Predicate::Make("l_shipdate", CompareOp::kGt,
                                  static_cast<double>(params.date)));
  const int g_lkey = p.Gather(V(s_lkey), Rows(f_li), "l_orderkey[sel]");
  const int g_lprice = p.Gather(V(s_lprice), Rows(f_li),
                                "l_extendedprice[sel]");
  const int g_ldisc = p.Gather(V(s_ldisc), Rows(f_li), "l_discount[sel]");

  const int j2 = p.Join(V(g_surv), V(g_lkey), "orders|X|lineitem");
  const int g_keys = p.Gather(V(g_lkey), NodeInput{j2, Part::kRightRows},
                              "l_orderkey[join]");
  const int g_price = p.Gather(V(g_lprice), NodeInput{j2, Part::kRightRows},
                               "l_extendedprice[join]");
  const int g_disc = p.Gather(V(g_ldisc), NodeInput{j2, Part::kRightRows},
                              "l_discount[join]");
  const int m1 = p.Map(MapOp::kSubFromScalar, V(g_disc), NodeInput{}, 1.0,
                       "1-disc");
  const int m2 = p.Map(MapOp::kMul, V(g_price), V(m1), 0.0, "revenue");
  const int gb = p.GroupBy(V(g_keys), {{V(m2), AggOp::kSum, "revenue"}},
                           "revenue by orderkey");
  const int sbk = p.SortByKey(NodeInput{gb, Part::kGroupAggregate},
                              NodeInput{gb, Part::kGroupKeys},
                              "sort by revenue", /*guard=*/gb);
  b.marks["fetch"] = p.FetchPair(sbk);
  return b;
}

QueryPlanBundle BuildQ4Plan(const storage::DeviceTable& orders,
                            const storage::DeviceTable& lineitem,
                            const tpch::Q4Params& params) {
  QueryPlanBundle b;
  Plan& p = b.plan;
  const int s_commit = p.Scan("lineitem", "l_commitdate", lineitem);
  const int s_receipt = p.Scan("lineitem", "l_receiptdate", lineitem);
  const int s_lkey = p.Scan("lineitem", "l_orderkey", lineitem);
  const int s_odate = p.Scan("orders", "o_orderdate", orders);
  const int s_okey = p.Scan("orders", "o_orderkey", orders);
  const int s_oprio = p.Scan("orders", "o_orderpriority", orders);

  const int late = p.FilterCompare(V(s_commit), CompareOp::kLt, V(s_receipt),
                                   "commit<receipt");
  const int g_late = p.Gather(V(s_lkey), Rows(late), "l_orderkey[late]");
  const int distinct = p.Unique(V(g_late), "distinct late keys");

  const int f1 = p.Filter(
      V(s_odate), Predicate::Make("o_orderdate", CompareOp::kGe,
                                  static_cast<double>(params.date_lo)));
  const int f2 = p.Filter(
      V(s_odate), Predicate::Make("o_orderdate", CompareOp::kLt,
                                  static_cast<double>(params.date_hi)),
      f1);
  const int g_okey = p.Gather(V(s_okey), Rows(f2), "o_orderkey[sel]");
  const int g_oprio = p.Gather(V(s_oprio), Rows(f2), "o_orderpriority[sel]");

  const int j = p.Join(V(g_okey), V(distinct), "orders|X|late");
  const int g_prio = p.Gather(V(g_oprio), NodeInput{j, Part::kLeftRows},
                              "priority[join]");
  const int gb = p.GroupBy(V(g_prio), {{V(g_prio), AggOp::kCount,
                                       "order_count"}},
                           "count by priority");
  b.marks["fetch"] = p.FetchGroups(gb);
  return b;
}

QueryPlanBundle BuildQ14Plan(const storage::DeviceTable& part,
                             const storage::DeviceTable& lineitem,
                             const tpch::Q14Params& params) {
  QueryPlanBundle b;
  Plan& p = b.plan;
  const int s_ship = p.Scan("lineitem", "l_shipdate", lineitem);
  const int s_lpart = p.Scan("lineitem", "l_partkey", lineitem);
  const int s_price = p.Scan("lineitem", "l_extendedprice", lineitem);
  const int s_disc = p.Scan("lineitem", "l_discount", lineitem);
  const int s_pkey = p.Scan("part", "p_partkey", part);
  const int s_promo = p.Scan("part", "p_promo", part);

  const int f1 = p.Filter(
      V(s_ship), Predicate::Make("l_shipdate", CompareOp::kGe,
                                 static_cast<double>(params.date_lo)));
  const int f2 = p.Filter(
      V(s_ship), Predicate::Make("l_shipdate", CompareOp::kLt,
                                 static_cast<double>(params.date_hi)),
      f1);
  const int g_part = p.Gather(V(s_lpart), Rows(f2), "l_partkey[sel]");
  const int g_price = p.Gather(V(s_price), Rows(f2), "l_extendedprice[sel]");
  const int g_disc = p.Gather(V(s_disc), Rows(f2), "l_discount[sel]");
  const int m1 = p.Map(MapOp::kSubFromScalar, V(g_disc), NodeInput{}, 1.0,
                       "1-disc");
  const int m2 = p.Map(MapOp::kMul, V(g_price), V(m1), 0.0, "revenue");

  const int j = p.Join(V(s_pkey), V(g_part), "part|X|lineitem");
  const int g_promo = p.Gather(V(s_promo), NodeInput{j, Part::kLeftRows},
                               "p_promo[join]");
  const int g_revm = p.Gather(V(m2), NodeInput{j, Part::kRightRows},
                              "revenue[join]");
  const int r_total = p.Reduce(V(g_revm), AggOp::kSum, "total revenue");

  const int f_promo = p.Filter(
      V(g_promo), Predicate::Make("p_promo", CompareOp::kEq, 1.0));
  p.nodes[f_promo].guard = r_total;  // if (total == 0) return 0
  const int g_revp = p.Gather(V(g_revm), Rows(f_promo), "revenue[promo]");
  b.marks["total"] = r_total;
  b.marks["promo"] = p.Reduce(V(g_revp), AggOp::kSum, "promo revenue");
  return b;
}

}  // namespace plan
