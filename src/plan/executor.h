// Physical-plan executor.
//
// Nodes run eagerly in insertion order, so a pinned run issues the plan's
// backend calls (including host downloads) in one fixed sequence and charges
// a bit-identical simulated timeline every time — the golden property
// tests/query_golden_test.cc pins.
//
// RunHybrid executes each node on its dispatched registry backend and
// charges a device-to-device materialization transfer on the consumer's
// stream whenever an input crosses a backend boundary.
//
// Execution is resilient (core/error.h taxonomy): transient faults replay
// the node on the same backend, device OOM reclaims the pool and retries
// once, and — in hybrid mode — a fatally-failing backend feeds its circuit
// breaker and the node falls back to the next capable dispatch candidate,
// so a dead sub-backend degrades the plan instead of failing the query.
#ifndef PLAN_EXECUTOR_H_
#define PLAN_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/backend.h"
#include "core/scheduler.h"
#include "plan/optimizer.h"
#include "storage/device_column.h"

namespace plan {

/// Runtime value of one node. Only the member matching the node kind is
/// populated.
struct NodeValue {
  bool computed = false;  ///< ran (false: scan, dead, or skipped)
  bool skipped = false;   ///< guard was falsy or an input was skipped
  bool decoded = false;   ///< encoded scan materialized into `column` (once)

  core::SelectionResult sel;                              // filter kinds
  core::JoinResult join;                                  // join
  core::GroupedAggregates groups;                         // group-by
  storage::DeviceColumn column;                           // gather/map/...
  std::pair<storage::DeviceColumn, storage::DeviceColumn> pair;  // sort-by-key
  double scalar = 0.0;                                    // reduce / fused sum

  // Host downloads (fetch nodes).
  /// FetchGroups: one entry per aggregate of the GroupBy, in its order.
  std::vector<core::HostAggregate> host_groups;
  std::vector<double> host_first;    ///< FetchPair sorted keys
  std::vector<int32_t> host_second;  ///< FetchPair reordered values
  uint64_t host_bytes = 0;  ///< bytes a fetch node downloaded

  uint64_t measured_ns = 0;  ///< simulated time this node charged
  uint64_t boundary_ns = 0;  ///< share spent on cross-backend transfers
  size_t out_rows = 0;
};

struct ExecutionResult {
  std::vector<NodeValue> values;  ///< indexed by node id
  uint64_t total_ns = 0;          ///< sum of per-node measured time
};

/// Runs every node on `backend`, ignoring the plan's dispatch assignments
/// (single-backend / pinned execution). Throws std::logic_error if the plan
/// still contains an unmerged filter chain (run Optimize first).
ExecutionResult RunPinned(const PhysicalPlan& plan, core::Backend& backend);

/// Runs each node on its assigned backend (instantiated from the registry),
/// pricing boundary materializations. Requires RegisterBuiltinBackends().
ExecutionResult RunHybrid(const PhysicalPlan& plan);

/// Adapts a plan for core::QueryScheduler submission: the returned functor
/// executes the plan pinned to the scheduler client's backend.
core::QueryFn MakePlanQuery(std::shared_ptr<const PhysicalPlan> plan);

/// Adapts a *logical* plan for scheduler submission with adaptive dispatch:
/// every execution re-optimizes against the current circuit-breaker state
/// and runs hybrid, so queries route around backends that went unhealthy
/// after planning. The client's stream is charged the plan's total
/// simulated time, keeping QueryRecord::simulated_ns meaningful.
core::QueryFn MakeAdaptivePlanQuery(std::shared_ptr<const Plan> logical,
                                    OptimizerOptions options = {});

}  // namespace plan

#endif  // PLAN_EXECUTOR_H_
