#include "plan/partition.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/resilience.h"
#include "gpusim/device.h"
#include "gpusim/fault.h"
#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/partition_detail.h"
#include "plan/query_spec.h"
#include "storage/device_column.h"
#include "storage/encoded_column.h"
#include "storage/encoding.h"

namespace plan {
namespace detail {

void RequireTables(const QuerySpec& spec, const TpchHostTables& tables) {
  const PerTable<const storage::Table*> host = HostTablesByRole(tables);
  for (const TpchTable t : TablesRead(spec)) {
    if (host[static_cast<size_t>(t)] == nullptr) {
      throw std::invalid_argument(std::string(spec.name) + " requires the " +
                                  TpchTableName(t) + " table");
    }
  }
}

}  // namespace detail

using namespace detail;  // the shared helpers read naturally unqualified

namespace {

/// A device table whose columns carry type and row count but no storage —
/// enough for plan building and cost estimation, with zero device traffic.
/// Sized as UploadTableEncoded would upload it with `choices` (the table's
/// ChooseTableEncodings; all kNone prices a raw upload): columns whose
/// encoding beats raw become metadata-only encoded columns. The whole-table
/// encoding decision is reused for slices (per-slice bytes scale by row
/// count at the whole-table code width), so a K-partition footprint prices
/// slice uploads without re-analyzing K sub-columns.
storage::DeviceTable MetaTable(const storage::Table& table, size_t rows,
                               const Choices& choices) {
  storage::DeviceTable out;
  const size_t n = table.num_rows();
  const std::vector<std::string>& names = table.column_names();
  for (size_t col = 0; col < names.size(); ++col) {
    const std::string& name = names[col];
    const storage::Column& c = table.column(name);
    const storage::EncodingChoice& choice = choices[col];
    if (choice.encoding == storage::Encoding::kNone) {
      out.AddColumn(name, storage::DeviceColumn(
                              c.type(), rows,
                              std::make_shared<gpusim::DeviceBuffer>()));
      continue;
    }
    uint64_t bytes = 0;
    switch (choice.encoding) {
      case storage::Encoding::kBitPack:
      case storage::Encoding::kFor:
        bytes = storage::PackedWordCount(rows, choice.bit_width) * 8;
        break;
      case storage::Encoding::kDictionary: {
        // The dictionary itself is a fixed cost every slice repeats.
        const uint64_t full_packed =
            storage::PackedWordCount(n, choice.bit_width) * 8;
        const uint64_t dict_bytes =
            choice.encoded_bytes > full_packed
                ? choice.encoded_bytes - full_packed
                : 0;
        bytes = storage::PackedWordCount(rows, choice.bit_width) * 8 +
                dict_bytes;
        break;
      }
      case storage::Encoding::kRle:
        // Runs scale with row count to first order.
        bytes = n == 0 ? 8
                       : std::max<uint64_t>(
                             8, choice.encoded_bytes * rows / n);
        break;
      case storage::Encoding::kNone:
        break;
    }
    out.AddEncodedColumn(
        name, std::make_shared<storage::EncodedDeviceColumn>(
                  storage::MakeEncodedMeta(choice.encoding, c.type(), rows,
                                           choice.bit_width, bytes)));
  }
  return out;
}

}  // namespace

namespace detail {

/// Host-side row-range copy [lo, hi) of every column.
storage::Table SliceTable(const storage::Table& table, size_t lo, size_t hi) {
  storage::Table out(table.name());
  for (const std::string& name : table.column_names()) {
    out.AddColumn(name, table.column(name).Slice(lo, hi));
  }
  return out;
}

/// K row ranges over lineitem. With `align_orderkey`, each boundary moves
/// forward to the next l_orderkey change point, so no order's lineitems
/// straddle two partitions (the generator emits them contiguously with
/// nondecreasing keys) — which keeps per-partition group-key sets disjoint
/// for Q3's group-by and Q4's semi-join. Pure function of (rows, keys, k):
/// partition shapes — and with them simulated timings — replay.
std::vector<RowRange> PartitionRanges(const storage::Table& lineitem,
                                      size_t k, bool align_orderkey) {
  const size_t n = lineitem.num_rows();
  const std::vector<int32_t>* keys =
      align_orderkey ? &lineitem.column("l_orderkey").values<int32_t>()
                     : nullptr;
  std::vector<RowRange> ranges;
  size_t lo = 0;
  for (size_t p = 1; p < k; ++p) {
    size_t b = std::min(n, n * p / k);
    if (keys != nullptr) {
      while (b > 0 && b < n && (*keys)[b] == (*keys)[b - 1]) ++b;
    }
    b = std::max(b, lo);
    ranges.emplace_back(lo, b);
    lo = b;
  }
  ranges.emplace_back(lo, n);
  return ranges;
}

/// Worst-case device footprint of one pinned plan execution: upload bytes of
/// every scanned column plus materialized intermediates with row counts
/// propagated pessimistically (filters and joins pass every row), each
/// rounded to the allocator's block granularity. The x2 headroom covers
/// operator scratch the plan does not name — hash-table fills (2n slots),
/// sort ping-pong buffers, selection scan temporaries — and applies to the
/// intermediates only: base-table uploads are exact (and encoded scans are
/// priced at their encoded size, the whole point of compressed admission).
/// An encoded scan consumed by an operator with no encoded-domain
/// realization additionally contributes one full raw decode as an
/// intermediate, mirroring the executor's ColDecoded fallback.
///
/// With include_scans false the base-table upload terms drop out — the
/// admission footprint of a plan over *already-resident* tables (the serving
/// tier's prepared queries), where only the intermediates are new bytes.
uint64_t FootprintOfPlan(const PhysicalPlan& phys, bool include_scans) {
  const std::vector<PlanNode>& nodes = phys.plan.nodes;
  std::vector<size_t> rows(nodes.size(), 0);
  std::vector<size_t> width(nodes.size(), 0);
  std::unordered_set<const storage::DeviceColumn*> scanned;
  std::unordered_set<const storage::EncodedDeviceColumn*> scanned_enc;
  uint64_t scan_bytes = 0;
  uint64_t intermediate_bytes = 0;

  const auto block = [](uint64_t b) -> uint64_t {
    return b == 0 ? 0 : gpusim::Device::PoolBlockBytes(b);
  };
  const auto in_rows = [&](const NodeInput& in) -> size_t {
    return in.node >= 0 ? rows[in.node] : 0;
  };
  const auto in_width = [&](const NodeInput& in) -> size_t {
    return in.node >= 0 ? width[in.node] : sizeof(double);
  };

  for (size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& n = nodes[i];
    if (n.dead) continue;
    switch (n.kind) {
      case NodeKind::kScan:
        if (n.scan_enc != nullptr) {
          rows[i] = n.scan_enc->size;
          width[i] = storage::DataTypeSize(n.scan_enc->type);
          if (scanned_enc.insert(n.scan_enc).second) {
            scan_bytes += block(n.scan_enc->encoded_byte_size());
          }
          break;
        }
        rows[i] = n.scan_col != nullptr ? n.scan_col->size() : 0;
        width[i] = n.scan_col != nullptr
                       ? storage::DataTypeSize(n.scan_col->type())
                       : sizeof(int32_t);
        if (n.scan_col != nullptr && scanned.insert(n.scan_col).second) {
          scan_bytes += block(n.scan_col->byte_size());
        }
        break;
      case NodeKind::kFilter:
        rows[i] = n.pred_cols.empty() ? 0 : in_rows(n.pred_cols[0]);
        width[i] = sizeof(int32_t);  // matching row ids
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kFilterCompare:
        rows[i] = in_rows(n.cmp_lhs);
        width[i] = sizeof(int32_t);
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kGather:
        rows[i] = in_rows(n.gather_indices);
        width[i] = in_width(n.gather_src);
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kMap:
      case NodeKind::kFusedMap:
        rows[i] = in_rows(n.map_a);
        width[i] = sizeof(double);
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kJoin:
        // Build sides are unique keys, so each probe row matches at most
        // once: output is two int32 row-id columns of probe length.
        rows[i] = in_rows(n.join_probe);
        width[i] = sizeof(int32_t);
        intermediate_bytes += 2 * block(rows[i] * sizeof(int32_t));
        break;
      case NodeKind::kUnique:
        rows[i] = in_rows(n.unary_in);
        width[i] = in_width(n.unary_in);
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kGroupBy:
        // Every input row may be its own group: keys plus one aggregate
        // column per aggregate.
        rows[i] = n.group_rows.node >= 0 ? in_rows(n.group_rows)
                                         : in_rows(n.group_keys);
        width[i] = sizeof(double);  // consumers mostly read the aggregate
        intermediate_bytes += n.aggregates.size() *
                              (block(rows[i] * sizeof(int32_t)) +
                               block(rows[i] * sizeof(double)));
        break;
      case NodeKind::kSort:
        rows[i] = in_rows(n.unary_in);
        width[i] = in_width(n.unary_in);
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kSortByKey:
        rows[i] = in_rows(n.sort_keys);
        width[i] = sizeof(double);
        intermediate_bytes += block(rows[i] * sizeof(double)) +
                              block(rows[i] * sizeof(int32_t));
        break;
      case NodeKind::kReduce:
      case NodeKind::kFusedFilterSum:
        rows[i] = 1;
        width[i] = sizeof(double);
        break;
      case NodeKind::kFetchGroups:
      case NodeKind::kFetchPair:
        rows[i] = in_rows(n.fetch_from);  // host download, no device bytes
        break;
      case NodeKind::kExchangeScatter:
      case NodeKind::kExchangeBroadcast:
        // Shard/broadcast payload lands as device-resident input.
        rows[i] = n.exch_rows;
        width[i] = n.exch_rows > 0
                       ? static_cast<size_t>(n.exch_bytes / n.exch_rows)
                       : sizeof(int32_t);
        intermediate_bytes += block(n.exch_bytes);
        break;
      case NodeKind::kExchangeGather:
        rows[i] = n.exch_rows;  // host-bound download, no device bytes
        break;
    }
  }

  // Encoded scans feeding operators without an encoded realization decode in
  // full on first use (the executor caches one raw copy).
  std::unordered_set<const storage::EncodedDeviceColumn*> decoded;
  for (const PlanNode& n : nodes) {
    if (n.dead || n.kind == NodeKind::kScan) continue;
    const bool encoded_aware = n.kind == NodeKind::kFilter ||
                               n.kind == NodeKind::kFilterCompare ||
                               n.kind == NodeKind::kReduce;
    for (const NodeInput& in : NodeInputs(n)) {
      if (in.node < 0 || in.part != Part::kValue) continue;
      const PlanNode& src = nodes[in.node];
      if (src.kind != NodeKind::kScan || src.scan_enc == nullptr) continue;
      if (encoded_aware) continue;
      if (n.kind == NodeKind::kGather && in.node == n.gather_src.node) {
        continue;  // GatherDecode materializes survivors only
      }
      if (n.kind == NodeKind::kGroupBy && n.group_rows.node >= 0 &&
          in.node == n.group_keys.node) {
        continue;  // grouped on codes, never decoded
      }
      if (decoded.insert(src.scan_enc).second) {
        intermediate_bytes += block(src.scan_enc->raw_byte_size());
      }
    }
  }
  return (include_scans ? scan_bytes : 0) + 2 * intermediate_bytes;
}

/// Host bytes the marked fetch/reduce nodes downloaded from the device.
uint64_t DownloadedBytes(const QueryPlanBundle& bundle,
                         const ExecutionResult& res) {
  uint64_t bytes = 0;
  for (const auto& [name, node] : bundle.marks) {
    const NodeValue& v = res.values[node];
    if (!v.computed) continue;
    bytes += v.host_bytes;
    if (bundle.plan.nodes[node].kind == NodeKind::kReduce) {
      bytes += sizeof(double);  // the scalar itself comes down
    }
  }
  return bytes;
}

uint64_t HostTableBytes(const storage::Table& t) {
  uint64_t bytes = 0;
  for (const std::string& name : t.column_names()) {
    bytes += t.column(name).byte_size();
  }
  return bytes;
}

void RunSlices(const QuerySpec& spec, const TpchHostTables& tables,
               core::Backend& backend, const QueryEncodings* encodings,
               const std::vector<RowRange>& ranges, size_t* next, Partial& acc,
               uint64_t* broadcast_bytes,
               const std::function<void(const SliceDone&)>& on_slice) {
  constexpr int kUploadAttempts = 4;
  gpusim::Stream& stream = backend.stream();
  const PerTable<const storage::Table*> host = HostTablesByRole(tables);
  // Tables not `analyzed` (lineitem slices) choose their own encodings.
  // Raw uploads report their host bytes.
  const auto upload = [&](const storage::Table& t, TpchTable role,
                          bool analyzed, uint64_t* bytes) {
    const Choices* choices =
        analyzed && encodings != nullptr
            ? &(*encodings)[static_cast<size_t>(role)]
            : nullptr;
    for (int attempt = 1;; ++attempt) {
      try {
        if (encodings != nullptr) {
          return storage::UploadTableEncoded(stream, t, bytes, choices);
        }
        *bytes = HostTableBytes(t);
        return storage::UploadTable(stream, t);
      } catch (const gpusim::TransferFault&) {
        // Transient wire faults replay the upload, mirroring the executor's
        // node-replay policy; simulated time of failed attempts stays
        // charged. DeviceLost is sticky and escapes to the caller.
        core::ResilienceManager::Global().NoteFaultSeen();
        if (attempt >= kUploadAttempts) throw;
        core::ResilienceManager::Global().NoteRetry(0);
      }
    }
  };

  PerTable<storage::DeviceTable> build_sides;
  DeviceTables dev{};
  uint64_t build_bytes = 0;
  uint64_t bytes = 0;
  for (const TpchTable t : spec.broadcast) {
    const size_t i = static_cast<size_t>(t);
    build_sides[i] = upload(*host[i], t, /*analyzed=*/true, &bytes);
    dev[i] = &build_sides[i];
    build_bytes += bytes;
  }
  if (broadcast_bytes != nullptr) *broadcast_bytes = build_bytes;
  // Lay the partial out for the query's marks before any slice runs, so a
  // caller whose ranges all come up empty still holds the query's shape.
  const storage::DeviceTable no_rows = MetaTable(
      *tables.lineitem, 0, Choices(tables.lineitem->num_columns()));
  dev[static_cast<size_t>(TpchTable::kLineitem)] = &no_rows;
  acc.LayOut(spec.build(dev, QueryShape()));

  OptimizerOptions opt;
  opt.pin_backend = backend.name();
  const storage::Table& lineitem_host = *tables.lineitem;
  const bool whole_table =
      ranges.size() == 1 &&
      ranges[0] == RowRange(0, lineitem_host.num_rows());
  for (; *next < ranges.size(); ++*next) {
    const auto [lo, hi] = ranges[*next];
    if (!whole_table && lo >= hi) continue;
    // The slice's device memory is freed (credited back to any reservation)
    // when this scope ends, before the next slice uploads. With encoding
    // on, it crosses the link at its encoded size.
    const storage::Table slice =
        whole_table ? storage::Table() : SliceTable(lineitem_host, lo, hi);
    const storage::Table& rows = whole_table ? lineitem_host : slice;
    uint64_t slice_bytes = 0;
    const storage::DeviceTable lineitem =
        upload(rows, TpchTable::kLineitem, whole_table, &slice_bytes);
    dev[static_cast<size_t>(TpchTable::kLineitem)] = &lineitem;
    const QueryPlanBundle bundle = spec.build(dev, QueryShape());
    const PhysicalPlan phys = Optimize(bundle.plan, opt);
    const ExecutionResult res = RunPinned(phys, backend);
    acc.Accumulate(bundle, res);
    on_slice(SliceDone{*next, {lo, hi}, slice_bytes,
                       DownloadedBytes(bundle, res)});
  }
}

}  // namespace detail

const char* PressureEventKindName(PressureEvent::Kind kind) {
  switch (kind) {
    case PressureEvent::Kind::kAdmission: return "admission";
    case PressureEvent::Kind::kPartition: return "partition";
    case PressureEvent::Kind::kSpill: return "spill";
    case PressureEvent::Kind::kFallback: return "fallback";
  }
  return "?";
}

namespace detail {

QueryEncodings AnalyzeQueryTables(const QuerySpec& spec,
                                  const TpchHostTables& tables) {
  RequireTables(spec, tables);
  const PerTable<const storage::Table*> host = HostTablesByRole(tables);
  QueryEncodings enc;
  for (const TpchTable t : TablesRead(spec)) {
    const size_t i = static_cast<size_t>(t);
    enc[i] = storage::ChooseTableEncodings(*host[i]);
  }
  return enc;
}

uint64_t EstimateFootprint(const QuerySpec& spec, const TpchHostTables& tables,
                           const std::string& backend_name, size_t partitions,
                           const QueryEncodings* encodings) {
  RequireTables(spec, tables);
  if (partitions == 0) partitions = 1;
  const size_t li_rows = tables.lineitem->num_rows();
  const PerTable<const storage::Table*> host = HostTablesByRole(tables);
  PerTable<storage::DeviceTable> meta;
  DeviceTables dev{};
  for (const TpchTable t : TablesRead(spec)) {
    const size_t i = static_cast<size_t>(t);
    const size_t rows = t == TpchTable::kLineitem
                            ? (li_rows + partitions - 1) / partitions
                            : host[i]->num_rows();
    meta[i] = MetaTable(*host[i], rows,
                        encodings != nullptr
                            ? (*encodings)[i]
                            : Choices(host[i]->num_columns()));
    dev[i] = &meta[i];
  }
  const QueryPlanBundle bundle = spec.build(dev, QueryShape());
  OptimizerOptions opt;
  opt.pin_backend = backend_name;
  return FootprintOfPlan(Optimize(bundle.plan, opt));
}

}  // namespace detail

uint64_t EstimateQueryFootprint(TpchQuery query, const TpchHostTables& tables,
                                const std::string& backend_name,
                                size_t partitions, bool use_encoding) {
  const QuerySpec& spec = GetQuerySpec(query);
  if (!use_encoding) {
    return EstimateFootprint(spec, tables, backend_name, partitions, nullptr);
  }
  const QueryEncodings enc = AnalyzeQueryTables(spec, tables);
  return EstimateFootprint(spec, tables, backend_name, partitions, &enc);
}

TpchQueryResult RunGoverned(TpchQuery query, const TpchHostTables& tables,
                            core::Backend& backend,
                            const GovernedQueryOptions& options,
                            GovernedRunStats* stats) {
  ShardedQueryOptions one_device;
  one_device.force_shards = options.force_partitions;
  one_device.use_encoding = options.use_encoding;
  GovernedRunStats local;
  ShardedRunStats unused;
  return RunPartitioned(GetQuerySpec(query), tables, /*group=*/nullptr,
                        &backend, backend.name(), one_device, options.on_event,
                        stats != nullptr ? *stats : local, unused);
}

core::QueryFn MakeGovernedQuery(TpchQuery query, TpchHostTables tables,
                                GovernedQueryOptions options,
                                TpchQueryResult* out,
                                GovernedRunStats* stats) {
  return [query, tables, options = std::move(options), out,
          stats](core::Backend& backend) {
    TpchQueryResult result =
        RunGoverned(query, tables, backend, options, stats);
    if (out != nullptr) *out = std::move(result);
  };
}

}  // namespace plan
