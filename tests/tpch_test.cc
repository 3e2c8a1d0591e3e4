// TPC-H generator and query tests: schema shapes, value domains, and
// device-vs-reference equality of every query across all four backends, each
// query run as the registry's plan pinned to the backend.
#include "tpch/queries.h"

#include <gtest/gtest.h>

#include <set>

#include "backends/backends.h"
#include "core/registry.h"
#include "plan/prepared.h"
#include "plan/query_spec.h"

namespace {

using tpch::Config;

TEST(TpchDateTest, DaysFromDateAnchorsAndArithmetic) {
  EXPECT_EQ(tpch::DaysFromDate(1992, 1, 1), 0);
  EXPECT_EQ(tpch::DaysFromDate(1992, 1, 2), 1);
  EXPECT_EQ(tpch::DaysFromDate(1992, 2, 1), 31);
  EXPECT_EQ(tpch::DaysFromDate(1993, 1, 1), 366);  // 1992 is a leap year
  EXPECT_EQ(tpch::DaysFromDate(1994, 1, 1), 731);
  EXPECT_EQ(tpch::DaysFromDate(1998, 12, 1),
            tpch::DaysFromDate(1998, 11, 30) + 1);
}

TEST(TpchDatagenTest, LineitemShapeAndDomains) {
  Config config;
  config.scale_factor = 0.002;
  const storage::Table t = tpch::GenerateLineitem(config);
  ASSERT_GT(t.num_rows(), 0u);
  // Average 4 lines per order.
  const size_t orders = tpch::NumOrders(config);
  EXPECT_GT(t.num_rows(), 2 * orders);
  EXPECT_LT(t.num_rows(), 7 * orders);

  const auto& qty = t.column("l_quantity").values<double>();
  const auto& disc = t.column("l_discount").values<double>();
  const auto& tax = t.column("l_tax").values<double>();
  const auto& price = t.column("l_extendedprice").values<double>();
  const auto& shipdate = t.column("l_shipdate").values<int32_t>();
  const auto& rf = t.column("l_returnflag").values<int32_t>();
  const auto& ls = t.column("l_linestatus").values<int32_t>();
  const auto& rfls = t.column("l_rfls").values<int32_t>();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_GE(qty[i], 1.0);
    EXPECT_LE(qty[i], 50.0);
    EXPECT_GE(disc[i], 0.0);
    EXPECT_LE(disc[i], 0.10);
    EXPECT_GE(tax[i], 0.0);
    EXPECT_LE(tax[i], 0.08);
    EXPECT_GT(price[i], 0.0);
    EXPECT_GE(shipdate[i], tpch::DaysFromDate(1992, 1, 2));
    EXPECT_LE(shipdate[i], tpch::DaysFromDate(1998, 12, 1));
    EXPECT_GE(rf[i], 0);
    EXPECT_LE(rf[i], 2);
    EXPECT_GE(ls[i], 0);
    EXPECT_LE(ls[i], 1);
    EXPECT_EQ(rfls[i], rf[i] * 2 + ls[i]);
  }
}

TEST(TpchDatagenTest, DeterministicForSameSeed) {
  Config config;
  config.scale_factor = 0.001;
  const storage::Table a = tpch::GenerateLineitem(config);
  const storage::Table b = tpch::GenerateLineitem(config);
  EXPECT_EQ(a.num_rows(), b.num_rows());
  EXPECT_EQ(a.column("l_extendedprice").values<double>(),
            b.column("l_extendedprice").values<double>());
  config.seed = 43;
  const storage::Table c = tpch::GenerateLineitem(config);
  EXPECT_NE(a.column("l_extendedprice").values<double>(),
            c.column("l_extendedprice").values<double>());
}

TEST(TpchDatagenTest, OrdersHaveUniqueKeys) {
  Config config;
  config.scale_factor = 0.001;
  const storage::Table t = tpch::GenerateOrders(config);
  EXPECT_EQ(t.num_rows(), tpch::NumOrders(config));
  const auto& keys = t.column("o_orderkey").values<int32_t>();
  std::set<int32_t> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
}

TEST(TpchDatagenTest, DimensionTables) {
  Config config;
  config.scale_factor = 0.001;
  EXPECT_GT(tpch::GenerateCustomer(config).num_rows(), 100u);
  EXPECT_GT(tpch::GeneratePart(config).num_rows(), 100u);
  EXPECT_GT(tpch::GenerateSupplier(config).num_rows(), 5u);
  EXPECT_EQ(tpch::GenerateNation().num_rows(), 25u);
  EXPECT_EQ(tpch::GenerateRegion().num_rows(), 5u);
}

TEST(TpchQ6FusedTest, FusedHandwrittenMatchesReference) {
  Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  gpusim::Stream stream(gpusim::Device::Default(),
                        gpusim::ApiProfile::Cuda());
  const auto dev = storage::UploadTable(stream, lineitem);
  const double got = tpch::RunQ6FusedHandwritten(stream, dev);
  const double expected = tpch::ReferenceQ6(lineitem);
  EXPECT_NEAR(got, expected, std::abs(expected) * 1e-9 + 1e-6);
}

TEST(TpchQ6FusedTest, FusedVariantUsesFarFewerKernels) {
  Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  core::RegisterBuiltinBackends();
  auto backend = core::BackendRegistry::Instance().Create("Handwritten");
  const auto resident = plan::MakeResident(backend->stream(), {&lineitem},
                                           /*use_encoding=*/false);
  plan::QueryShape shape;
  shape.query = plan::TpchQuery::kQ6;
  const auto q6 = plan::PrepareTpchQuery(shape, resident, "Handwritten");
  const storage::DeviceTable& dev = resident->lineitem;

  auto before = gpusim::Device::Default().Snapshot();
  q6->Run(*backend);
  const auto op_chain = gpusim::Device::Default().Snapshot().Delta(before);

  gpusim::Stream stream(gpusim::Device::Default(),
                        gpusim::ApiProfile::Cuda());
  before = gpusim::Device::Default().Snapshot();
  tpch::RunQ6FusedHandwritten(stream, dev);
  const auto fused = gpusim::Device::Default().Snapshot().Delta(before);

  EXPECT_LT(fused.kernels_launched, op_chain.kernels_launched);
  EXPECT_LT(fused.bytes_read, op_chain.bytes_read);
}

TEST(TpchQ3ReferenceTest, LimitAndOrdering) {
  Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const auto rows = tpch::ReferenceQ3(customer, orders, lineitem);
  EXPECT_LE(rows.size(), 10u);
  EXPECT_GT(rows.size(), 0u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].revenue, rows[i].revenue);
  }
}

TEST(TpchQ4ReferenceTest, CountsAllPriorities) {
  Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const auto rows = tpch::ReferenceQ4(orders, lineitem);
  // Priorities 1..5 all occur at this scale; counts are positive.
  EXPECT_EQ(rows.size(), 5u);
  for (const auto& row : rows) {
    EXPECT_GE(row.orderpriority, 1);
    EXPECT_LE(row.orderpriority, 5);
    EXPECT_GT(row.order_count, 0);
  }
}

TEST(TpchQ6ReferenceTest, SelectsExpectedFraction) {
  Config config;
  config.scale_factor = 0.005;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const double revenue = tpch::ReferenceQ6(lineitem);
  // ~1/7 of the date range * 3/11 discounts * ~1/2 quantities match; the
  // revenue must be positive and well below the full-table product sum.
  EXPECT_GT(revenue, 0.0);
  double total = 0.0;
  const auto& price = lineitem.column("l_extendedprice").values<double>();
  const auto& disc = lineitem.column("l_discount").values<double>();
  for (size_t i = 0; i < price.size(); ++i) total += price[i] * disc[i];
  EXPECT_LT(revenue, total * 0.15);
}

class TpchQueryTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    core::RegisterBuiltinBackends();
    config_.scale_factor = 0.002;
    lineitem_ = new storage::Table(tpch::GenerateLineitem(config_));
    orders_ = new storage::Table(tpch::GenerateOrders(config_));
    customer_ = new storage::Table(tpch::GenerateCustomer(config_));
    part_ = new storage::Table(tpch::GeneratePart(config_));
  }
  static void TearDownTestSuite() {
    delete lineitem_;
    delete orders_;
    delete customer_;
    delete part_;
    lineitem_ = orders_ = customer_ = part_ = nullptr;
  }

  void SetUp() override {
    backend_ = core::BackendRegistry::Instance().Create(GetParam());
    resident_ = plan::MakeResident(
        backend_->stream(), {lineitem_, orders_, customer_, part_},
        /*use_encoding=*/false);
  }

  static plan::QueryShape Shape(plan::TpchQuery query) {
    plan::QueryShape shape;
    shape.query = query;
    return shape;
  }

  /// Runs `shape` as the registry's plan pinned to the test's backend.
  plan::TpchQueryResult Run(const plan::QueryShape& shape) {
    return plan::PrepareTpchQuery(shape, resident_, GetParam())->Run(*backend_);
  }

  static Config config_;
  static storage::Table* lineitem_;
  static storage::Table* orders_;
  static storage::Table* customer_;
  static storage::Table* part_;
  std::unique_ptr<core::Backend> backend_;
  std::shared_ptr<const plan::ResidentTpchTables> resident_;
};

Config TpchQueryTest::config_;
storage::Table* TpchQueryTest::lineitem_ = nullptr;
storage::Table* TpchQueryTest::orders_ = nullptr;
storage::Table* TpchQueryTest::customer_ = nullptr;
storage::Table* TpchQueryTest::part_ = nullptr;

INSTANTIATE_TEST_SUITE_P(
    AllBackends, TpchQueryTest,
    ::testing::Values(backends::kThrust, backends::kBoostCompute,
                      backends::kArrayFire, backends::kHandwritten),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](char c) { return !isalnum(c); }),
                 name.end());
      return name;
    });

TEST_P(TpchQueryTest, Q6MatchesReference) {
  const double got = Run(Shape(plan::TpchQuery::kQ6)).scalar;
  const double expected = tpch::ReferenceQ6(*lineitem_);
  EXPECT_NEAR(got, expected, std::abs(expected) * 1e-9 + 1e-6);
}

TEST_P(TpchQueryTest, Q1MatchesReference) {
  const auto got = Run(Shape(plan::TpchQuery::kQ1)).q1;
  const auto expected = tpch::ReferenceQ1(*lineitem_);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].returnflag, expected[i].returnflag);
    EXPECT_EQ(got[i].linestatus, expected[i].linestatus);
    EXPECT_EQ(got[i].count_order, expected[i].count_order);
    const double tol = 1e-6 * std::abs(expected[i].sum_charge) + 1e-6;
    EXPECT_NEAR(got[i].sum_qty, expected[i].sum_qty, tol);
    EXPECT_NEAR(got[i].sum_base_price, expected[i].sum_base_price, tol);
    EXPECT_NEAR(got[i].sum_disc_price, expected[i].sum_disc_price, tol);
    EXPECT_NEAR(got[i].sum_charge, expected[i].sum_charge, tol);
    EXPECT_NEAR(got[i].avg_qty, expected[i].avg_qty, 1e-6);
    EXPECT_NEAR(got[i].avg_price, expected[i].avg_price, 1e-3);
    EXPECT_NEAR(got[i].avg_disc, expected[i].avg_disc, 1e-9);
  }
}

TEST_P(TpchQueryTest, Q3MatchesReference) {
  const auto got = Run(Shape(plan::TpchQuery::kQ3)).q3;
  const auto expected = tpch::ReferenceQ3(*customer_, *orders_, *lineitem_);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].orderkey, expected[i].orderkey) << "rank " << i;
    EXPECT_NEAR(got[i].revenue, expected[i].revenue,
                1e-9 * std::abs(expected[i].revenue) + 1e-6);
  }
}

TEST_P(TpchQueryTest, Q3ForcedNestedLoopsAgreesWithAuto) {
  // The same plan with every join forced onto nested loops before it is
  // optimized; the optimizer keeps a join algorithm that is not kAuto.
  const plan::QueryShape shape = Shape(plan::TpchQuery::kQ3);
  plan::QueryPlanBundle bundle = plan::BuildQ3Plan(
      resident_->customer, resident_->orders, resident_->lineitem);
  for (plan::PlanNode& node : bundle.plan.nodes) {
    if (node.kind == plan::NodeKind::kJoin) {
      node.join_algo = plan::JoinAlgo::kNestedLoops;
    }
  }
  plan::OptimizerOptions pin;
  pin.pin_backend = GetParam();
  const plan::PhysicalPlan phys = plan::Optimize(bundle.plan, pin);
  for (const plan::PlanNode& node : phys.plan.nodes) {
    if (node.kind == plan::NodeKind::kJoin && !node.dead) {
      EXPECT_EQ(node.join_algo, plan::JoinAlgo::kNestedLoops);
    }
  }
  const auto nlj = plan::ExtractResult(shape.query, bundle,
                                       plan::RunPinned(phys, *backend_))
                       .q3;
  const auto auto_join = Run(shape).q3;
  ASSERT_EQ(nlj.size(), auto_join.size());
  for (size_t i = 0; i < nlj.size(); ++i) {
    EXPECT_EQ(nlj[i].orderkey, auto_join[i].orderkey);
  }
}

TEST_P(TpchQueryTest, Q4MatchesReference) {
  const auto got = Run(Shape(plan::TpchQuery::kQ4)).q4;
  const auto expected = tpch::ReferenceQ4(*orders_, *lineitem_);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].orderpriority, expected[i].orderpriority);
    EXPECT_EQ(got[i].order_count, expected[i].order_count);
  }
}

TEST_P(TpchQueryTest, Q14MatchesReference) {
  // Library NLJ over the full part table is O(|part| * |lineitem'|); keep
  // the ArrayFire per-row where() variant affordable by joining at this SF.
  const double got = Run(Shape(plan::TpchQuery::kQ14)).scalar;
  const double expected = tpch::ReferenceQ14(*part_, *lineitem_);
  EXPECT_NEAR(got, expected, 1e-9 * std::abs(expected) + 1e-9);
  EXPECT_GT(got, 0.0);
  EXPECT_LT(got, 100.0);
}

TEST_P(TpchQueryTest, Q6SelectivityParametersMatter) {
  plan::QueryShape wide = Shape(plan::TpchQuery::kQ6);
  wide.q6.date_lo = tpch::DaysFromDate(1992, 1, 1);
  wide.q6.date_hi = tpch::DaysFromDate(1999, 12, 31);
  wide.q6.discount_lo = 0.0;
  wide.q6.discount_hi = 1.0;
  wide.q6.quantity_hi = 100.0;
  const double everything = Run(wide).scalar;
  const double narrow = Run(Shape(plan::TpchQuery::kQ6)).scalar;
  EXPECT_GT(everything, narrow);
  EXPECT_NEAR(everything, tpch::ReferenceQ6(*lineitem_, wide.q6),
              std::abs(everything) * 1e-9 + 1e-6);
}

}  // namespace
