// The query registry: each TPC-H query described once.
//
// A QuerySpec is everything plan/ needs to know about one query: its name,
// the tables it reads, whether its lineitem slices snap to l_orderkey, its
// plan builder, its plan-cache shape hash, its planning-time partial-size
// estimate, and its finalize. The runners — the governed spill path
// (partition.h), the sharded path (exchange.h), the serving tier's prepared
// queries (prepared.h) and the plan-cache fingerprint (fingerprint.h) — are
// generic over it; nothing else in plan/ dispatches on TpchQuery.
//
// Partial results are generic too. A Partial is filled from the plan's
// marked terminal nodes (QueryPlanBundle::marks), by node kind:
//   Reduce      -> a scalar sum
//   FetchGroups -> keyed sums (or counts), one per aggregate of the fetched
//                  GroupBy, by the aggregate's name, per group key
//   FetchPair   -> (first, second) rows, concatenated
// Partials of disjoint lineitem slices merge by addition and concatenation,
// so slices can accumulate in any order, on any device. Only the small
// per-query finalize (Q1's averages, Q3's top-k, ...) reads marks by name.
//
// Adding a query: write its builder in tpch_plans.cc, marking the terminal
// nodes the answer is read from, and add one entry to the table in
// query_spec.cc.
#ifndef PLAN_QUERY_SPEC_H_
#define PLAN_QUERY_SPEC_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "plan/executor.h"
#include "plan/fingerprint.h"
#include "plan/partition.h"
#include "plan/tpch_plans.h"
#include "storage/device_column.h"
#include "storage/table.h"
#include "tpch/datagen.h"

namespace plan {

/// The TPC-H tables a query can read. Lineitem is the scan side that spill
/// and sharding split into row ranges; the others are build sides every
/// slice sees whole (broadcast to every device when sharded).
enum class TpchTable { kLineitem, kOrders, kCustomer, kPart };
inline constexpr size_t kTpchTableCount = 4;

/// One value per TpchTable, indexed by the enum.
template <typename T>
using PerTable = std::array<T, kTpchTableCount>;

const char* TpchTableName(TpchTable table);

/// Generates `table` (tpch/datagen.h) at `config`.
storage::Table GenerateTable(TpchTable table, const tpch::Config& config);

/// The host tables of `tables`, by TpchTable.
PerTable<const storage::Table*> HostTablesByRole(const TpchHostTables& tables);

/// The device tables a plan builder reads, by TpchTable (null = absent).
using DeviceTables = PerTable<const storage::DeviceTable*>;

/// One row of a FetchPair mark: the sorted key and the value it carries.
struct PairRow {
  double first = 0;
  int32_t second = 0;
};

/// Mergeable result state of one query over a set of lineitem slices, read
/// from the marks of each slice's executed plan (see the file comment).
class Partial {
 public:
  /// Adds an empty slot for each of `bundle`'s marks not yet present, so
  /// Bytes() are the query's even before any slice accumulates.
  void LayOut(const QueryPlanBundle& bundle);

  /// Folds one executed slice into this partial.
  void Accumulate(const QueryPlanBundle& bundle, const ExecutionResult& result);

  /// Adds the partial of a disjoint set of slices into this one.
  void Merge(const Partial& other);

  /// Host bytes of the partial, the payload a sharded gather moves: 8 B per
  /// scalar, 4 B of key plus 8 B per fetched aggregate for each group, and
  /// 16 B per pair row.
  uint64_t Bytes() const;

  /// The summed scalar of a Reduce mark (0 when absent).
  double scalar(const std::string& mark) const;

  /// Keyed values: group key -> one value per fetched aggregate.
  const std::map<int32_t, std::vector<double>>& groups() const {
    return groups_;
  }
  /// The value of the aggregate named `mark` within one entry of groups().
  double Value(const std::vector<double>& group, const std::string& mark) const;

  /// Every FetchPair row, in accumulation order.
  const std::vector<PairRow>& rows() const { return rows_; }

 private:
  /// The aggregates of the GroupBy that FetchGroups mark `fetch` reads.
  static const std::vector<GroupAggregate>& FetchedAggregates(
      const QueryPlanBundle& bundle, int fetch);

  std::map<std::string, double> scalars_;
  std::vector<std::string> keyed_marks_;  ///< fetched aggregates, by name
  std::map<int32_t, std::vector<double>> groups_;
  std::vector<PairRow> rows_;
};

/// Everything plan/ knows about one query.
struct QuerySpec {
  TpchQuery query;
  const char* name;
  /// Tables read besides lineitem, in upload order.
  std::vector<TpchTable> broadcast;
  /// Lineitem slices snap to l_orderkey change points, keeping per-slice
  /// group and join keys disjoint (queries that group or join on orderkey).
  bool align_orderkey;
  /// The logical plan over device tables, with the shape's parameters.
  QueryPlanBundle (*build)(const DeviceTables& tables,
                           const QueryShape& shape);
  /// Folds the shape's parameters into a plan-cache hash.
  uint64_t (*hash_params)(uint64_t h, const QueryShape& shape);
  /// Planning-time estimate of Partial::Bytes() for a shard of `rows`
  /// lineitem rows, before anything runs.
  uint64_t (*estimate_partial_bytes)(size_t rows);
  /// The query's result from its merged partial.
  TpchQueryResult (*finalize)(const Partial& partial, const QueryShape& shape);
};

/// Every table `spec` reads, in upload order: the build sides, then lineitem.
std::vector<TpchTable> TablesRead(const QuerySpec& spec);

/// The registry entry of `query` (throws std::logic_error for an unknown
/// value).
const QuerySpec& GetQuerySpec(TpchQuery query);

/// The result of one whole execution of a query's plan: its marks folded
/// into a fresh Partial, then finalized with `shape`'s parameters.
TpchQueryResult ExtractResult(TpchQuery query, const QueryPlanBundle& bundle,
                              const ExecutionResult& result,
                              const QueryShape& shape = QueryShape());

}  // namespace plan

#endif  // PLAN_QUERY_SPEC_H_
