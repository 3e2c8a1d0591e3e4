// Shared internals of the partitioned execution paths.
//
// plan/partition.cc (single-device spill-to-host execution) and
// plan/exchange.cc (multi-device sharded execution) split the same tables on
// the same orderkey-snapped boundaries, build the same per-slice plans, and
// merge the same per-slice partials — one slice at a time on one device in
// the former, one slice per device in parallel in the latter. These helpers
// are that common core. They are implementation detail: no stability
// promises, not part of the plan/ public API.
#ifndef PLAN_PARTITION_DETAIL_H_
#define PLAN_PARTITION_DETAIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/partition.h"
#include "plan/tpch_plans.h"
#include "storage/encoding.h"
#include "storage/table.h"

namespace plan {
namespace detail {

bool NeedsOrders(TpchQuery q);
bool NeedsCustomer(TpchQuery q);
bool NeedsPart(TpchQuery q);

/// Throws std::invalid_argument naming the first missing required table.
void RequireTables(TpchQuery q, const TpchHostTables& tables);

/// Builds the query's plan over the given device-resident tables (only the
/// tables the query reads are touched).
QueryPlanBundle BuildBundle(TpchQuery q, const storage::DeviceTable& lineitem,
                            const storage::DeviceTable& orders,
                            const storage::DeviceTable& customer,
                            const storage::DeviceTable& part);

/// Host-side row-range copy [lo, hi) of every column.
storage::Table SliceTable(const storage::Table& table, size_t lo, size_t hi);

/// K+1 partition boundaries over lineitem; with `align_orderkey` each
/// boundary snaps forward to the next l_orderkey change point so no order
/// straddles two slices. Pure function of (rows, keys, k).
std::vector<size_t> PartitionBounds(const storage::Table& lineitem, size_t k,
                                    bool align_orderkey);

/// Mergeable per-partition state across the five queries. Merging is
/// addition (Q1/Q4/Q6/Q14) or disjoint concatenation (Q3), so partials can
/// accumulate in any order — including across devices.
struct Partials {
  Q1Partials q1;
  std::vector<tpch::Q3Row> q3_groups;
  std::map<int32_t, int64_t> q4_counts;
  double q6_sum = 0;
  double q14_total = 0;
  double q14_promo = 0;
};

/// Folds one slice's execution result into `acc`.
void Accumulate(TpchQuery q, const QueryPlanBundle& bundle,
                const ExecutionResult& res, Partials& acc);

/// Merges `other` into `acc` (slice-order-independent for exact results;
/// float sums re-associate within the usual tolerance).
void MergePartials(TpchQuery q, Partials& acc, const Partials& other);

/// Converts the accumulated partials into the query's final result.
TpchQueryResult Finalize(TpchQuery q, Partials acc);

/// Host bytes the marked fetch/reduce nodes downloaded from the device.
uint64_t DownloadedBytes(const QueryPlanBundle& bundle,
                         const ExecutionResult& res);

/// Worst-case device footprint of executing `phys` once: base-table upload
/// bytes (skipped with include_scans == false — the tables are already
/// resident, as in the serving tier's prepared queries) plus 2x the
/// materialized intermediates. See the definition in partition.cc for the
/// full model.
uint64_t FootprintOfPlan(const PhysicalPlan& phys, bool include_scans = true);

uint64_t HostTableBytes(const storage::Table& t);

/// storage::ChooseTableEncodings of each host table a query reads. A
/// governed or sharded run with encoding on analyzes its tables once and
/// prices, sizes and uploads them from this; nothing outlives the run.
/// Lineitem slices are not covered: each slice analyzes itself, because its
/// choices differ from the whole table's.
using Choices = std::vector<storage::EncodingChoice>;
struct QueryEncodings {
  Choices lineitem, orders, customer, part;
};

QueryEncodings AnalyzeQueryTables(TpchQuery q, const TpchHostTables& tables);

/// EstimateQueryFootprint over already analyzed tables; `encodings` null
/// prices raw uploads.
uint64_t EstimateFootprint(TpchQuery q, const TpchHostTables& tables,
                           const std::string& backend_name, size_t partitions,
                           const QueryEncodings* encodings);

/// RunGoverned over already analyzed tables (`encodings` non-null exactly
/// when options.use_encoding).
TpchQueryResult RunGovernedAnalyzed(TpchQuery query,
                                    const TpchHostTables& tables,
                                    core::Backend& backend,
                                    const GovernedQueryOptions& options,
                                    GovernedRunStats* stats,
                                    const QueryEncodings* encodings);

}  // namespace detail
}  // namespace plan

#endif  // PLAN_PARTITION_DETAIL_H_
