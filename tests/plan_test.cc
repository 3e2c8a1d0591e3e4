// Plan IR, optimizer, and executor tests.
//
// Covers the optimizer's rewrite rules (filter-chain merging, fusion,
// join-algorithm selection), deterministic cost-based dispatch, and the two
// golden properties the subsystem promises: a plan pinned to one backend
// answers like the host reference and its per-node times add up to its
// stream's clock (tests/query_golden_test.cc pins that clock to the
// backend's recorded call chain), and the hybrid plan is never slower than
// the best single backend (strictly faster on a join query).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/resilience.h"
#include "core/scheduler.h"
#include "gpusim/device.h"
#include "gpusim/fault.h"
#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/query_spec.h"
#include "plan/tpch_plans.h"
#include "storage/device_column.h"
#include "storage/encoded_column.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace {

class PlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::RegisterBuiltinBackends();
    tpch::Config config;
    config.scale_factor = 0.01;
    host_ = new HostTables{
        tpch::GenerateLineitem(config), tpch::GenerateOrders(config),
        tpch::GenerateCustomer(config), tpch::GeneratePart(config)};
    setup_ = new gpusim::Stream(gpusim::Device::Default(),
                                gpusim::ApiProfile::Cuda());
    lineitem_ = new storage::DeviceTable(
        storage::UploadTable(*setup_, host_->lineitem));
    orders_ = new storage::DeviceTable(
        storage::UploadTable(*setup_, host_->orders));
    customer_ = new storage::DeviceTable(
        storage::UploadTable(*setup_, host_->customer));
    part_ = new storage::DeviceTable(
        storage::UploadTable(*setup_, host_->part));
  }

  static void TearDownTestSuite() {
    delete lineitem_;
    delete orders_;
    delete customer_;
    delete part_;
    delete setup_;
    delete host_;
    lineitem_ = orders_ = customer_ = part_ = nullptr;
    setup_ = nullptr;
    host_ = nullptr;
  }

  /// Host-reference answer of `query` over the fixture's tables.
  static plan::TpchQueryResult Reference(plan::TpchQuery query) {
    plan::TpchQueryResult want;
    switch (query) {
      case plan::TpchQuery::kQ1:
        want.q1 = tpch::ReferenceQ1(host_->lineitem);
        break;
      case plan::TpchQuery::kQ3:
        want.q3 = tpch::ReferenceQ3(host_->customer, host_->orders,
                                    host_->lineitem);
        break;
      case plan::TpchQuery::kQ4:
        want.q4 = tpch::ReferenceQ4(host_->orders, host_->lineitem);
        break;
      case plan::TpchQuery::kQ6:
        want.scalar = tpch::ReferenceQ6(host_->lineitem);
        break;
      case plan::TpchQuery::kQ14:
        want.scalar = tpch::ReferenceQ14(host_->part, host_->lineitem);
        break;
    }
    return want;
  }

  static size_t LiveCount(const plan::Plan& p, plan::NodeKind kind) {
    size_t n = 0;
    for (const plan::PlanNode& node : p.nodes) {
      if (!node.dead && node.kind == kind) ++n;
    }
    return n;
  }

  static const plan::PlanNode* FirstLive(const plan::Plan& p,
                                         plan::NodeKind kind) {
    for (const plan::PlanNode& node : p.nodes) {
      if (!node.dead && node.kind == kind) return &node;
    }
    return nullptr;
  }

  struct HostTables {
    storage::Table lineitem, orders, customer, part;
  };

  static HostTables* host_;
  static gpusim::Stream* setup_;
  static storage::DeviceTable* lineitem_;
  static storage::DeviceTable* orders_;
  static storage::DeviceTable* customer_;
  static storage::DeviceTable* part_;
};

PlanTest::HostTables* PlanTest::host_ = nullptr;
gpusim::Stream* PlanTest::setup_ = nullptr;
storage::DeviceTable* PlanTest::lineitem_ = nullptr;
storage::DeviceTable* PlanTest::orders_ = nullptr;
storage::DeviceTable* PlanTest::customer_ = nullptr;
storage::DeviceTable* PlanTest::part_ = nullptr;

// ---------------------------------------------------------------------------
// Rewrite rules
// ---------------------------------------------------------------------------

TEST_F(PlanTest, FilterChainMergesIntoOneConjunctiveNode) {
  // Q6's five single-predicate sigmas must fold into ONE conjunctive
  // selection with the predicates in chain order.
  const plan::QueryPlanBundle bundle = plan::BuildQ6Plan(*lineitem_);
  plan::OptimizerOptions opts;
  opts.pin_backend = "Thrust";
  const plan::PhysicalPlan phys = plan::Optimize(bundle.plan, opts);

  EXPECT_EQ(LiveCount(phys.plan, plan::NodeKind::kFilter), 1u);
  const plan::PlanNode* filter = FirstLive(phys.plan, plan::NodeKind::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_TRUE(filter->conjunctive);
  ASSERT_EQ(filter->preds.size(), 5u);
  EXPECT_EQ(filter->preds[0].column, "l_shipdate");
  EXPECT_EQ(filter->preds[1].column, "l_shipdate");
  EXPECT_EQ(filter->preds[2].column, "l_discount");
  EXPECT_EQ(filter->preds[3].column, "l_discount");
  EXPECT_EQ(filter->preds[4].column, "l_quantity");
  EXPECT_EQ(filter->filter_source, -1);
}

TEST_F(PlanTest, DisjunctiveChainIsNotMergedAndExecutorRefusesIt) {
  plan::Plan p;
  const int scan =
      p.Scan("lineitem", "l_quantity", lineitem_->column("l_quantity"));
  const int f1 =
      p.Filter({scan, plan::Part::kValue},
               core::Predicate::Make("l_quantity", core::CompareOp::kLt, 24.0));
  const int f2 =
      p.Filter({scan, plan::Part::kValue},
               core::Predicate::Make("l_quantity", core::CompareOp::kGe, 1.0),
               /*source=*/f1);
  p.nodes[f2].conjunctive = false;  // an OR-refinement cannot be folded

  plan::OptimizerOptions opts;
  opts.pin_backend = "Thrust";
  const plan::PhysicalPlan phys = plan::Optimize(p, opts);
  EXPECT_EQ(LiveCount(phys.plan, plan::NodeKind::kFilter), 2u);

  auto backend = core::BackendRegistry::Instance().Create("Thrust");
  EXPECT_THROW(plan::RunPinned(phys, *backend), std::logic_error);
}

TEST_F(PlanTest, JoinAlgoFollowsBackendCapability) {
  const plan::QueryPlanBundle bundle =
      plan::BuildQ14Plan(*part_, *lineitem_);

  plan::OptimizerOptions thrust_pin;
  thrust_pin.pin_backend = "Thrust";
  const plan::PhysicalPlan on_thrust = plan::Optimize(bundle.plan, thrust_pin);
  const plan::PlanNode* join = FirstLive(on_thrust.plan, plan::NodeKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->join_algo, plan::JoinAlgo::kNestedLoops);

  plan::OptimizerOptions hw_pin;
  hw_pin.pin_backend = "Handwritten";
  const plan::PhysicalPlan on_hw = plan::Optimize(bundle.plan, hw_pin);
  join = FirstLive(on_hw.plan, plan::NodeKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->join_algo, plan::JoinAlgo::kHash);

  // Hybrid dispatch must route the join to a hash-capable backend.
  const plan::PhysicalPlan hybrid =
      plan::Optimize(bundle.plan, plan::OptimizerOptions());
  for (size_t i = 0; i < hybrid.plan.nodes.size(); ++i) {
    const plan::PlanNode& node = hybrid.plan.nodes[i];
    if (node.dead || node.kind != plan::NodeKind::kJoin) continue;
    if (node.join_algo == plan::JoinAlgo::kHash) {
      EXPECT_EQ(hybrid.node_backend[i], "Handwritten");
    }
  }
}

TEST_F(PlanTest, FusionOnlyInHybridPlans) {
  // Q6 hybrid collapses filter+gather+product+sum into one fused pass.
  const plan::QueryPlanBundle q6 = plan::BuildQ6Plan(*lineitem_);
  const plan::PhysicalPlan q6_hybrid =
      plan::Optimize(q6.plan, plan::OptimizerOptions());
  EXPECT_EQ(LiveCount(q6_hybrid.plan, plan::NodeKind::kFusedFilterSum), 1u);

  plan::OptimizerOptions pin;
  pin.pin_backend = "Thrust";
  const plan::PhysicalPlan q6_pinned = plan::Optimize(q6.plan, pin);
  EXPECT_EQ(LiveCount(q6_pinned.plan, plan::NodeKind::kFusedFilterSum), 0u);
  EXPECT_EQ(LiveCount(q6_pinned.plan, plan::NodeKind::kFusedMap), 0u);

  // Q1's disc_price and charge expressions each fuse into one kernel.
  const plan::QueryPlanBundle q1 = plan::BuildQ1Plan(*lineitem_);
  const plan::PhysicalPlan q1_hybrid =
      plan::Optimize(q1.plan, plan::OptimizerOptions());
  EXPECT_EQ(LiveCount(q1_hybrid.plan, plan::NodeKind::kFusedMap), 2u);

  // Q4 has no fusible chain (no arithmetic feeding a reduction).
  const plan::QueryPlanBundle q4 = plan::BuildQ4Plan(*orders_, *lineitem_);
  const plan::PhysicalPlan q4_hybrid =
      plan::Optimize(q4.plan, plan::OptimizerOptions());
  EXPECT_EQ(LiveCount(q4_hybrid.plan, plan::NodeKind::kFusedFilterSum), 0u);
  EXPECT_EQ(LiveCount(q4_hybrid.plan, plan::NodeKind::kFusedMap), 0u);
}

TEST_F(PlanTest, DispatchIsDeterministic) {
  const plan::QueryPlanBundle bundle =
      plan::BuildQ3Plan(*customer_, *orders_, *lineitem_);
  const plan::PhysicalPlan a =
      plan::Optimize(bundle.plan, plan::OptimizerOptions());
  const plan::PhysicalPlan b =
      plan::Optimize(bundle.plan, plan::OptimizerOptions());
  EXPECT_EQ(a.node_backend, b.node_backend);
  EXPECT_EQ(a.est_ns, b.est_ns);
  EXPECT_EQ(a.est_rows, b.est_rows);
}

TEST_F(PlanTest, UnknownBackendNameThrows) {
  const plan::QueryPlanBundle bundle = plan::BuildQ6Plan(*lineitem_);
  plan::OptimizerOptions opts;
  opts.pin_backend = "NoSuchBackend";
  EXPECT_THROW(plan::Optimize(bundle.plan, opts), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Golden properties of pinned plans
// ---------------------------------------------------------------------------

void ExpectNear(double actual, double expected) {
  EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-9 + 1e-6);
}

/// Compares every field of two results (fields a query does not set are
/// empty or zero on both sides).
void ExpectSameResult(const plan::TpchQueryResult& actual,
                      const plan::TpchQueryResult& expected) {
  ASSERT_EQ(actual.q1.size(), expected.q1.size());
  for (size_t i = 0; i < actual.q1.size(); ++i) {
    const tpch::Q1Row& a = actual.q1[i];
    const tpch::Q1Row& e = expected.q1[i];
    EXPECT_EQ(a.returnflag, e.returnflag);
    EXPECT_EQ(a.linestatus, e.linestatus);
    EXPECT_EQ(a.count_order, e.count_order);
    ExpectNear(a.sum_qty, e.sum_qty);
    ExpectNear(a.sum_base_price, e.sum_base_price);
    ExpectNear(a.sum_disc_price, e.sum_disc_price);
    ExpectNear(a.sum_charge, e.sum_charge);
    ExpectNear(a.avg_qty, e.avg_qty);
    ExpectNear(a.avg_price, e.avg_price);
    ExpectNear(a.avg_disc, e.avg_disc);
  }
  ASSERT_EQ(actual.q3.size(), expected.q3.size());
  for (size_t i = 0; i < actual.q3.size(); ++i) {
    EXPECT_EQ(actual.q3[i].orderkey, expected.q3[i].orderkey);
    ExpectNear(actual.q3[i].revenue, expected.q3[i].revenue);
  }
  ASSERT_EQ(actual.q4.size(), expected.q4.size());
  for (size_t i = 0; i < actual.q4.size(); ++i) {
    EXPECT_EQ(actual.q4[i].orderpriority, expected.q4[i].orderpriority);
    EXPECT_EQ(actual.q4[i].order_count, expected.q4[i].order_count);
  }
  ExpectNear(actual.scalar, expected.scalar);
}

class PlanGoldenTest : public PlanTest,
                       public ::testing::WithParamInterface<const char*> {};

TEST_P(PlanGoldenTest, PinnedPlanMatchesReferenceAndChargesItsStreamClock) {
  const std::string backend_name = GetParam();
  const plan::DeviceTables tables{lineitem_, orders_, customer_, part_};
  for (const plan::TpchQuery query :
       {plan::TpchQuery::kQ1, plan::TpchQuery::kQ6, plan::TpchQuery::kQ3,
        plan::TpchQuery::kQ4, plan::TpchQuery::kQ14}) {
    SCOPED_TRACE(plan::TpchQueryName(query));
    const plan::QueryPlanBundle bundle =
        plan::GetQuerySpec(query).build(tables, plan::QueryShape());
    plan::OptimizerOptions opts;
    opts.pin_backend = backend_name;
    const plan::PhysicalPlan phys = plan::Optimize(bundle.plan, opts);
    auto backend = core::BackendRegistry::Instance().Create(backend_name);
    const uint64_t t0 = backend->stream().now_ns();
    const plan::ExecutionResult res = plan::RunPinned(phys, *backend);
    const uint64_t stream_ns = backend->stream().now_ns() - t0;

    ExpectSameResult(plan::ExtractResult(query, bundle, res),
                     Reference(query));
    // The per-node accounting must agree with the stream's own clock
    // exactly, not merely closely.
    EXPECT_EQ(res.total_ns, stream_ns);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PlanGoldenTest,
                         ::testing::Values("Thrust", "Handwritten"),
                         [](const auto& info) {
                           return std::string(info.param) == "Thrust"
                                      ? "Thrust"
                                      : "Handwritten";
                         });

// ---------------------------------------------------------------------------
// Hybrid dispatch
// ---------------------------------------------------------------------------

TEST_F(PlanTest, HybridIsNeverSlowerThanBestSingleBackend) {
  auto& registry = core::BackendRegistry::Instance();
  const std::vector<std::string> singles = {"Handwritten", "Thrust"};

  struct QueryCase {
    const char* name;
    plan::QueryPlanBundle bundle;
    bool join_query;
  };
  std::vector<QueryCase> cases;
  cases.push_back({"q1", plan::BuildQ1Plan(*lineitem_), false});
  cases.push_back({"q6", plan::BuildQ6Plan(*lineitem_), false});
  cases.push_back({"q4", plan::BuildQ4Plan(*orders_, *lineitem_), true});
  cases.push_back(
      {"q14", plan::BuildQ14Plan(*part_, *lineitem_), true});

  bool join_strict_win = false;
  for (const QueryCase& c : cases) {
    SCOPED_TRACE(c.name);
    uint64_t best = UINT64_MAX;
    for (const std::string& name : singles) {
      plan::OptimizerOptions opts;
      opts.pin_backend = name;
      const plan::PhysicalPlan phys = plan::Optimize(c.bundle.plan, opts);
      auto backend = registry.Create(name);
      best = std::min(best, plan::RunPinned(phys, *backend).total_ns);
    }
    const plan::PhysicalPlan hybrid =
        plan::Optimize(c.bundle.plan, plan::OptimizerOptions());
    const uint64_t hybrid_ns = plan::RunHybrid(hybrid).total_ns;
    EXPECT_LE(hybrid_ns, best);
    if (c.join_query && hybrid_ns < best) join_strict_win = true;
  }
  EXPECT_TRUE(join_strict_win)
      << "hybrid should beat the best single backend outright on at least "
         "one join query";
}

TEST_F(PlanTest, HybridQ6MatchesReferenceAnswer) {
  const plan::QueryPlanBundle bundle = plan::BuildQ6Plan(*lineitem_);
  const plan::PhysicalPlan phys =
      plan::Optimize(bundle.plan, plan::OptimizerOptions());
  EXPECT_TRUE(phys.hybrid);
  const plan::ExecutionResult res = plan::RunHybrid(phys);
  ExpectNear(plan::ExtractResult(plan::TpchQuery::kQ6, bundle, res).scalar,
             Reference(plan::TpchQuery::kQ6).scalar);
}

TEST_F(PlanTest, HybridQ3MatchesReferenceAnswer) {
  const plan::QueryPlanBundle bundle =
      plan::BuildQ3Plan(*customer_, *orders_, *lineitem_);
  const plan::ExecutionResult res =
      plan::RunHybrid(plan::Optimize(bundle.plan, plan::OptimizerOptions()));
  ExpectSameResult(plan::ExtractResult(plan::TpchQuery::kQ3, bundle, res),
                   Reference(plan::TpchQuery::kQ3));
}

// ---------------------------------------------------------------------------
// Multi-aggregate GroupBy
// ---------------------------------------------------------------------------

TEST_F(PlanTest, Q1GroupsEveryAggregateInOneNode) {
  const plan::QueryPlanBundle bundle = plan::BuildQ1Plan(*lineitem_);
  EXPECT_EQ(LiveCount(bundle.plan, plan::NodeKind::kGroupBy), 1u);
  EXPECT_EQ(LiveCount(bundle.plan, plan::NodeKind::kFetchGroups), 1u);
  EXPECT_EQ(FirstLive(bundle.plan, plan::NodeKind::kGroupBy)->aggregates.size(),
            6u);

  // Over encoded l_rfls, Handwritten groups on the dictionary codes and
  // the key gather dies; a library keeps the gather and its keys.
  const storage::DeviceTable encoded =
      storage::UploadTableEncoded(*setup_, host_->lineitem);
  const plan::QueryPlanBundle enc = plan::BuildQ1Plan(encoded);
  for (const char* backend : {"Handwritten", "Thrust"}) {
    SCOPED_TRACE(backend);
    plan::OptimizerOptions opts;
    opts.pin_backend = backend;
    const plan::PhysicalPlan phys = plan::Optimize(enc.plan, opts);
    const plan::PlanNode* gb = FirstLive(phys.plan, plan::NodeKind::kGroupBy);
    const bool codes = std::string(backend) == "Handwritten";
    EXPECT_EQ(gb->group_rows.node >= 0, codes);
    EXPECT_EQ(LiveCount(phys.plan, plan::NodeKind::kGather), codes ? 4u : 5u);
  }
}

/// Given the node's actual input rows and group count, the estimator's
/// price for Q1's multi-aggregate GroupBy and its FetchGroups is the
/// measured simulated time, to the nanosecond.
TEST(PlanEstimateTest, Q1GroupByPricesExactlyGivenActualRows) {
  core::RegisterBuiltinBackends();
  tpch::Config config;
  config.scale_factor = 0.005;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  gpusim::Device device;
  gpusim::Device::DeviceGuard guard(device);
  gpusim::Stream setup(device, gpusim::ApiProfile::Cuda());
  const storage::DeviceTable raw = storage::UploadTable(setup, lineitem);
  const storage::DeviceTable encoded =
      storage::UploadTableEncoded(setup, lineitem);
  struct Case {
    const char* backend;
    const storage::DeviceTable* table;
  };
  for (const Case& c : {Case{"Handwritten", &raw},
                        Case{"Handwritten", &encoded}, Case{"Thrust", &raw}}) {
    SCOPED_TRACE(std::string(c.backend) +
                 (c.table == &raw ? " raw" : " encoded"));
    const plan::QueryPlanBundle bundle = plan::BuildQ1Plan(*c.table);
    plan::OptimizerOptions opts;
    opts.pin_backend = c.backend;
    const plan::PhysicalPlan phys = plan::Optimize(bundle.plan, opts);
    auto backend = core::BackendRegistry::Instance().Create(c.backend);
    const plan::ExecutionResult res = plan::RunPinned(phys, *backend);

    const int fetch = bundle.marks.at("groups");
    const int gb = phys.plan.nodes[fetch].fetch_from.node;
    const plan::PlanNode& node = phys.plan.nodes[gb];
    const int grouped = node.group_rows.node >= 0 ? node.group_rows.node
                                                  : node.group_keys.node;
    const plan::GroupByShape shape = plan::GroupByShapeOf(
        phys.plan, gb, res.values[grouped].out_rows, res.values[gb].out_rows);
    ASSERT_GT(shape.rows, 0u);
    ASSERT_GT(shape.groups, 0u);
    const plan::CostEstimator est(device);
    EXPECT_EQ(est.GroupByAggregates(c.backend, shape),
              res.values[gb].measured_ns);
    EXPECT_EQ(est.FetchGroupedAggregates(c.backend, shape),
              res.values[fetch].measured_ns);
  }
}

// ---------------------------------------------------------------------------
// Scheduler integration
// ---------------------------------------------------------------------------

TEST_F(PlanTest, PlanQueryRunsThroughScheduler) {
  const plan::QueryPlanBundle bundle = plan::BuildQ6Plan(*lineitem_);
  plan::OptimizerOptions opts;
  opts.pin_backend = "Thrust";
  auto phys = std::make_shared<const plan::PhysicalPlan>(
      plan::Optimize(bundle.plan, opts));

  auto backend = core::BackendRegistry::Instance().Create("Thrust");
  const uint64_t direct_ns = plan::RunPinned(*phys, *backend).total_ns;

  core::SchedulerOptions sched_opts;
  sched_opts.backend_name = "Thrust";
  sched_opts.num_clients = 2;
  core::QueryScheduler scheduler(sched_opts);
  for (int i = 0; i < 4; ++i) {
    scheduler.Submit("plan/q6", plan::MakePlanQuery(phys));
  }
  scheduler.Drain();

  const auto& records = scheduler.Records();
  ASSERT_EQ(records.size(), 4u);
  for (const core::QueryRecord& r : records) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.simulated_ns, direct_ns);
  }
}

// ---------------------------------------------------------------------------
// Resilience: fallback execution and breaker-aware re-planning
// ---------------------------------------------------------------------------

/// Detaches the injector and clears global breaker state on every exit path
/// so a failing assertion cannot poison the other plan tests.
class PlanResilienceTest : public PlanTest {
 protected:
  void SetUp() override {
    gpusim::Device::Default().set_fault_injector(nullptr);
    core::ResilienceManager::Global().Reset();
  }
  void TearDown() override {
    gpusim::Device::Default().set_fault_injector(nullptr);
    core::ResilienceManager::Global().Reset();
  }
};

TEST_F(PlanResilienceTest, ExecutorFallsBackWhenABackendDiesMidPlan) {
  const plan::QueryPlanBundle bundle = plan::BuildQ6Plan(*lineitem_);
  const plan::PhysicalPlan phys =
      plan::Optimize(bundle.plan, plan::OptimizerOptions());
  ASSERT_TRUE(phys.hybrid);
  ASSERT_FALSE(phys.candidates.empty());

  const double expected = Reference(plan::TpchQuery::kQ6).scalar;

  // Kill the dominant backend: every node dispatched there loses its device
  // on the first kernel and must fall back to the next candidate.
  gpusim::FaultInjector injector(17);
  gpusim::FaultRule rule;
  rule.site = gpusim::FaultSite::kKernel;
  rule.kind = gpusim::FaultKind::kDeviceLost;
  rule.stream_label = "Handwritten";
  rule.at_call = 1;
  injector.AddRule(rule);
  gpusim::Device::Default().set_fault_injector(&injector);

  // Three runs: enough fatal failures to trip the default breaker.
  for (int round = 0; round < 3; ++round) {
    const plan::ExecutionResult res = plan::RunHybrid(phys);
    ExpectNear(plan::ExtractResult(plan::TpchQuery::kQ6, bundle, res).scalar,
               expected);
  }
  gpusim::Device::Default().set_fault_injector(nullptr);

  core::ResilienceManager& rm = core::ResilienceManager::Global();
  const core::ResilienceStats stats = rm.Snapshot();
  EXPECT_GT(injector.stats().injected_device_lost, 0u);
  EXPECT_GE(stats.fallback_reroutes, 3u);
  EXPECT_EQ(rm.StateOf("Handwritten"), core::CircuitBreaker::State::kOpen);

  // Re-optimizing now routes around the open breaker: no node is assigned
  // to the dead backend, and the plan still answers correctly.
  const plan::PhysicalPlan rerouted =
      plan::Optimize(bundle.plan, plan::OptimizerOptions());
  for (const std::string& b : rerouted.node_backend) {
    EXPECT_NE(b, "Handwritten");
  }
  ExpectNear(plan::ExtractResult(plan::TpchQuery::kQ6, bundle,
                                 plan::RunHybrid(rerouted))
                 .scalar,
             expected);

  // Opting out of breaker-aware dispatch restores the original assignment.
  plan::OptimizerOptions ignore;
  ignore.route_around_open_breakers = false;
  const plan::PhysicalPlan original = plan::Optimize(bundle.plan, ignore);
  EXPECT_EQ(original.node_backend, phys.node_backend);
}

TEST_F(PlanResilienceTest, AdaptivePlanQueryReplansAroundOpenBreaker) {
  const plan::QueryPlanBundle bundle = plan::BuildQ6Plan(*lineitem_);
  auto logical = std::make_shared<const plan::Plan>(bundle.plan);

  // Open the dominant backend's breaker by hand: the adaptive query must
  // still succeed because each execution re-optimizes against breaker
  // state instead of replaying the stale assignment.
  core::ResilienceManager& rm = core::ResilienceManager::Global();
  for (int i = 0; i < 3; ++i) rm.RecordFailure("Handwritten");
  ASSERT_EQ(rm.StateOf("Handwritten"), core::CircuitBreaker::State::kOpen);

  core::SchedulerOptions sched_opts;
  sched_opts.backend_name = "Thrust";
  sched_opts.num_clients = 1;
  core::QueryScheduler scheduler(sched_opts);
  scheduler.Submit("adaptive/q6", plan::MakeAdaptivePlanQuery(logical));
  scheduler.Drain();

  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].ok) << records[0].error;
  EXPECT_GT(records[0].simulated_ns, 0u);
}

}  // namespace
