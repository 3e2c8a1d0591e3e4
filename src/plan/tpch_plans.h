// TPC-H queries expressed as logical plans.
//
// Each builder is the one description of its query. It inserts nodes in the
// order of the query's chain of backend calls, so a plan pinned to one
// backend issues exactly that backend's chain — the paper's execution model
// — and charges a bit-identical simulated timeline, which the golden table
// in tests/query_golden_test.cc pins. A builder marks the terminal nodes its
// answer is read from (Reduce, FetchGroups, FetchPair) and names each
// grouped aggregate (Q1's six share one GroupBy); the query registry
// (plan/query_spec.h) turns the executed marks into a mergeable Partial and
// the Partial into the query's result.
#ifndef PLAN_TPCH_PLANS_H_
#define PLAN_TPCH_PLANS_H_

#include <map>
#include <string>

#include "plan/ir.h"
#include "storage/device_column.h"
#include "tpch/queries.h"

namespace plan {

/// A built query plan plus named terminal node ids ("marks") the answer is
/// read from.
struct QueryPlanBundle {
  Plan plan;
  std::map<std::string, int> marks;
};

QueryPlanBundle BuildQ1Plan(const storage::DeviceTable& lineitem,
                            const tpch::Q1Params& params = tpch::Q1Params());

QueryPlanBundle BuildQ6Plan(const storage::DeviceTable& lineitem,
                            const tpch::Q6Params& params = tpch::Q6Params());

QueryPlanBundle BuildQ3Plan(const storage::DeviceTable& customer,
                            const storage::DeviceTable& orders,
                            const storage::DeviceTable& lineitem,
                            const tpch::Q3Params& params = tpch::Q3Params());

QueryPlanBundle BuildQ4Plan(const storage::DeviceTable& orders,
                            const storage::DeviceTable& lineitem,
                            const tpch::Q4Params& params = tpch::Q4Params());

QueryPlanBundle BuildQ14Plan(const storage::DeviceTable& part,
                             const storage::DeviceTable& lineitem,
                             const tpch::Q14Params& params = tpch::Q14Params());

}  // namespace plan

#endif  // PLAN_TPCH_PLANS_H_
