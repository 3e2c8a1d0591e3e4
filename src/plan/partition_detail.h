// Internals of the partitioned runner.
//
// RunGoverned (plan/partition.h) and RunSharded (plan/exchange.h) are thin
// entries over one driver, RunPartitioned: K lineitem row ranges placed on D
// devices (D = 1 for a governed run), each device running its ranges through
// RunSlices. RunSlices uploads a query's build-side tables, then for each
// range uploads the rows, builds the query's plan (plan/query_spec.h),
// optimizes it pinned to the backend, runs it, and folds the marked results
// into a Partial. These helpers are implementation detail: no stability
// promises, not part of the plan/ public API.
#ifndef PLAN_PARTITION_DETAIL_H_
#define PLAN_PARTITION_DETAIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.h"
#include "gpusim/device_group.h"
#include "plan/exchange.h"
#include "plan/optimizer.h"
#include "plan/partition.h"
#include "plan/query_spec.h"
#include "storage/encoding.h"
#include "storage/table.h"

namespace plan {
namespace detail {

/// Throws std::invalid_argument naming the first missing required table.
void RequireTables(const QuerySpec& spec, const TpchHostTables& tables);

/// Host-side row-range copy [lo, hi) of every column.
storage::Table SliceTable(const storage::Table& table, size_t lo, size_t hi);

/// A lineitem row range [first, second).
using RowRange = std::pair<size_t, size_t>;

/// K row ranges covering lineitem; with `align_orderkey` each boundary snaps
/// forward to the next l_orderkey change point so no order straddles two
/// slices (a range may come out empty). Pure function of (rows, keys, k).
std::vector<RowRange> PartitionRanges(const storage::Table& lineitem,
                                      size_t k, bool align_orderkey);

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
using QueryEncodings = PerTable<Choices>;

QueryEncodings AnalyzeQueryTables(const QuerySpec& spec,
                                  const TpchHostTables& tables);

/// EstimateQueryFootprint over already analyzed tables; `encodings` null
/// prices raw uploads.
uint64_t EstimateFootprint(const QuerySpec& spec, const TpchHostTables& tables,
                           const std::string& backend_name, size_t partitions,
                           const QueryEncodings* encodings);

/// One finished slice, for the caller's accounting.
struct SliceDone {
  size_t index = 0;       ///< position in `ranges`
  RowRange rows;
  uint64_t h2d_bytes = 0;  ///< slice upload, encoded size when encoding
  uint64_t d2h_bytes = 0;  ///< downloaded partial results
};

/// The slice pipeline. Uploads `spec`'s build-side tables on `backend`'s
/// stream and, once they are resident, sets `*broadcast_bytes` (may be null)
/// to their upload bytes. Then for each range from ranges[*next] on: uploads
/// those lineitem rows, builds the plan, optimizes it pinned to `backend`,
/// runs it, folds the result into `acc` and reports it to `on_slice`. Empty
/// ranges (an orderkey-snapped boundary emptied them) are skipped, except a
/// single range covering the whole table: that one runs even when empty and
/// uploads the host table itself instead of a sliced copy. Each slice's
/// device memory is freed before the next one uploads. A transient
/// TransferFault replays the upload a bounded number of times. `*next`
/// advances past every finished range, so after a throw it indexes the range
/// in flight.
///
/// `encodings` (null = raw uploads) holds the whole-table choices of
/// AnalyzeQueryTables: build sides and a whole-table lineitem upload with
/// them, while each lineitem slice analyzes itself.
void RunSlices(const QuerySpec& spec, const TpchHostTables& tables,
               core::Backend& backend, const QueryEncodings* encodings,
               const std::vector<RowRange>& ranges, size_t* next, Partial& acc,
               uint64_t* broadcast_bytes,
               const std::function<void(const SliceDone&)>& on_slice);

/// The one placement rule: slice i lands on devices[i % devices.size()],
/// so with every device of a group alive slice i runs on device i % D.
/// Throws gpusim::DeviceLost when `devices` is empty.
std::vector<int> PlaceRanges(size_t slices, const std::vector<int>& devices);

/// The partitioned runner behind RunGoverned and RunSharded. Runs `spec`
/// over one device per entry of `group`, each with a registry instance of
/// `backend_name`, or, with `group` null, on `borrowed`'s device with
/// `borrowed` itself. Sizes K (options.force_shards, else one slice per
/// device; on one device doubled while the slice footprint exceeds the
/// stream's grant or the device's capacity), places the slices, runs them
/// (inline when one device has work, one host thread per device
/// otherwise), admits each device against options.governor, doubles K on
/// OutOfDeviceMemory, re-deals the unfinished slices of lost devices, and
/// gathers the partials. Fills both views of the run's accounting.
TpchQueryResult RunPartitioned(
    const QuerySpec& spec, const TpchHostTables& tables,
    gpusim::DeviceGroup* group, core::Backend* borrowed,
    const std::string& backend_name, const ShardedQueryOptions& options,
    const std::function<void(const PressureEvent&)>& on_event,
    GovernedRunStats& governed, ShardedRunStats& sharded);

}  // namespace detail
}  // namespace plan

#endif  // PLAN_PARTITION_DETAIL_H_
