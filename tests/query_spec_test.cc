// Query registry tests (plan/query_spec.h): one spec per query, the generic
// mark-driven Partial, and Q3's top-k order on every execution path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "gpusim/device_group.h"
#include "plan/exchange.h"
#include "plan/partition.h"
#include "plan/prepared.h"
#include "plan/query_spec.h"
#include "tpch/queries.h"

namespace plan {
namespace {

TEST(QuerySpecTest, EveryQueryHasExactlyOneSpec) {
  for (const TpchQuery q : {TpchQuery::kQ1, TpchQuery::kQ3, TpchQuery::kQ4,
                            TpchQuery::kQ6, TpchQuery::kQ14}) {
    const QuerySpec& spec = GetQuerySpec(q);
    EXPECT_EQ(spec.query, q);
    EXPECT_EQ(ParseTpchQuery(spec.name), q);
    EXPECT_EQ(TablesRead(spec).back(), TpchTable::kLineitem);
  }
  EXPECT_THROW(GetQuerySpec(static_cast<TpchQuery>(99)), std::logic_error);
}

/// A bundle of one FetchPair mark named "fetch" plus its executed value.
struct PairFetch {
  QueryPlanBundle bundle;
  ExecutionResult result;

  PairFetch(std::vector<double> first, std::vector<int32_t> second) {
    PlanNode node;
    node.kind = NodeKind::kFetchPair;
    bundle.plan.nodes.push_back(node);
    bundle.marks["fetch"] = 0;
    NodeValue value;
    value.computed = true;
    value.host_first = std::move(first);
    value.host_second = std::move(second);
    result.values.push_back(value);
  }
};

TEST(QuerySpecTest, Q3TopKBreaksRevenueTiesByOrderkeyAscending) {
  const PairFetch fetch({1.0, 5.0, 5.0}, {3, 2, 1});
  QueryShape shape;
  shape.query = TpchQuery::kQ3;
  shape.q3.limit = 2;
  const TpchQueryResult r =
      ExtractResult(TpchQuery::kQ3, fetch.bundle, fetch.result, shape);
  ASSERT_EQ(r.q3.size(), 2u);
  EXPECT_EQ(r.q3[0].orderkey, 1);
  EXPECT_EQ(r.q3[1].orderkey, 2);
  EXPECT_EQ(r.q3[0].revenue, 5.0);
}

TEST(QuerySpecTest, PartialsMergeByMarkKind) {
  QueryPlanBundle bundle;
  for (const NodeKind kind :
       {NodeKind::kReduce, NodeKind::kGroupBy, NodeKind::kFetchGroups}) {
    PlanNode node;
    node.kind = kind;
    bundle.plan.nodes.push_back(node);
  }
  bundle.plan.nodes[1].aggregates = {{NodeInput{}, core::AggOp::kSum, "sum"},
                                     {NodeInput{}, core::AggOp::kCount,
                                      "count"}};
  bundle.plan.nodes[2].fetch_from = NodeInput{1, Part::kGroupKeys};
  bundle.marks["total"] = 0;
  bundle.marks["groups"] = 2;
  ExecutionResult res;
  res.values.resize(3);
  for (NodeValue& v : res.values) v.computed = true;
  res.values[0].scalar = 2.5;
  res.values[2].host_groups = {core::HostAggregate{{7, 9}, {1.0, 2.0}},
                               core::HostAggregate{{7, 9}, {3.0, 4.0}}};

  Partial empty;
  empty.LayOut(bundle);
  EXPECT_EQ(empty.Bytes(), sizeof(double));  // the scalar slot, no groups

  Partial a, b;
  a.Accumulate(bundle, res);
  b.Accumulate(bundle, res);
  a.Merge(b);
  EXPECT_EQ(a.scalar("total"), 5.0);
  ASSERT_EQ(a.groups().size(), 2u);
  const std::vector<double>& g7 = a.groups().at(7);
  EXPECT_EQ(a.Value(g7, "sum"), 2.0);
  EXPECT_EQ(a.Value(g7, "count"), 6.0);
  // 8 B scalar + 2 groups x (4 B key + 2 x 8 B values).
  EXPECT_EQ(a.Bytes(), 8u + 2u * (4u + 16u));
}

/// Three orders of one BUILDING customer; orders 1 and 2 tie on revenue.
struct TiedQ3Tables {
  storage::Table customer{"customer"}, orders{"orders"},
      lineitem{"lineitem"};

  TiedQ3Tables() {
    const tpch::Q3Params params;
    customer.AddColumn("c_custkey", storage::Column(std::vector<int32_t>{1}));
    customer.AddColumn("c_mktsegment",
                       storage::Column(std::vector<int32_t>{params.segment}));
    orders.AddColumn("o_orderkey",
                     storage::Column(std::vector<int32_t>{1, 2, 3}));
    orders.AddColumn("o_custkey",
                     storage::Column(std::vector<int32_t>{1, 1, 1}));
    orders.AddColumn("o_orderdate", storage::Column(std::vector<int32_t>(
                                        3, params.date - 10)));
    lineitem.AddColumn("l_orderkey",
                       storage::Column(std::vector<int32_t>{1, 2, 3, 3}));
    lineitem.AddColumn("l_shipdate", storage::Column(std::vector<int32_t>(
                                         4, params.date + 10)));
    lineitem.AddColumn("l_extendedprice", storage::Column(std::vector<double>{
                                              100.0, 100.0, 40.0, 10.0}));
    lineitem.AddColumn("l_discount",
                       storage::Column(std::vector<double>(4, 0.0)));
  }

  TpchHostTables Host() const {
    TpchHostTables t;
    t.lineitem = &lineitem;
    t.orders = &orders;
    t.customer = &customer;
    return t;
  }
};

void ExpectReferenceOrder(const std::vector<tpch::Q3Row>& got,
                          const TiedQ3Tables& t) {
  const std::vector<tpch::Q3Row> want =
      tpch::ReferenceQ3(t.customer, t.orders, t.lineitem);
  ASSERT_EQ(want.size(), 3u);
  ASSERT_EQ(want[0].orderkey, 1);  // the tie, orderkey ascending
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].orderkey, want[i].orderkey) << "row " << i;
    EXPECT_EQ(got[i].revenue, want[i].revenue) << "row " << i;
  }
}

TEST(QuerySpecTest, Q3TiesFollowTheReferenceOnEveryPath) {
  core::RegisterBuiltinBackends();
  const TiedQ3Tables tables;
  for (const char* backend : {backends::kThrust, backends::kHandwritten}) {
    SCOPED_TRACE(backend);
    for (const size_t k : {1, 2}) {
      SCOPED_TRACE("governed K=" + std::to_string(k));
      auto b = core::BackendRegistry::Instance().Create(backend);
      GovernedQueryOptions options;
      options.force_partitions = k;
      ExpectReferenceOrder(
          RunGoverned(TpchQuery::kQ3, tables.Host(), *b, options).q3, tables);
    }
    {
      SCOPED_TRACE("sharded on 2 devices");
      gpusim::DeviceGroup group(2);
      ExpectReferenceOrder(
          RunSharded(TpchQuery::kQ3, tables.Host(), group, backend).q3,
          tables);
    }
    {
      SCOPED_TRACE("served");
      auto b = core::BackendRegistry::Instance().Create(backend);
      QueryShape shape;
      shape.query = TpchQuery::kQ3;
      const auto prepared = PrepareTpchQuery(
          shape, MakeResident(b->stream(), tables.Host(), false), backend);
      ExpectReferenceOrder(prepared->Run(*b).q3, tables);
    }
  }
}

}  // namespace
}  // namespace plan
