#include "plan/query_spec.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace plan {

const char* TpchTableName(TpchTable table) {
  static const char* const kNames[] = {"lineitem", "orders", "customer",
                                       "part"};
  return kNames[static_cast<size_t>(table)];
}

storage::Table GenerateTable(TpchTable table, const tpch::Config& config) {
  static storage::Table (*const kGenerators[])(const tpch::Config&) = {
      tpch::GenerateLineitem, tpch::GenerateOrders, tpch::GenerateCustomer,
      tpch::GeneratePart};
  return kGenerators[static_cast<size_t>(table)](config);
}

PerTable<const storage::Table*> HostTablesByRole(const TpchHostTables& t) {
  return {t.lineitem, t.orders, t.customer, t.part};
}

void Partial::LayOut(const QueryPlanBundle& bundle) {
  for (const auto& [name, node] : bundle.marks) {
    switch (bundle.plan.nodes[node].kind) {
      case NodeKind::kReduce:
        scalars_.try_emplace(name, 0.0);
        break;
      case NodeKind::kFetchGroups:
        for (const GroupAggregate& a : FetchedAggregates(bundle, node)) {
          if (std::find(keyed_marks_.begin(), keyed_marks_.end(), a.name) ==
              keyed_marks_.end()) {
            keyed_marks_.push_back(a.name);
          }
        }
        break;
      default:
        break;
    }
  }
}

const std::vector<GroupAggregate>& Partial::FetchedAggregates(
    const QueryPlanBundle& bundle, int fetch) {
  return bundle.plan.nodes[bundle.plan.nodes[fetch].fetch_from.node]
      .aggregates;
}

void Partial::Accumulate(const QueryPlanBundle& bundle,
                         const ExecutionResult& result) {
  LayOut(bundle);
  for (const auto& [name, node] : bundle.marks) {
    const NodeValue& v = result.values[node];
    if (!v.computed) continue;  // a guarded node that never ran adds nothing
    switch (bundle.plan.nodes[node].kind) {
      case NodeKind::kReduce:
        scalars_[name] += v.scalar;
        break;
      case NodeKind::kFetchGroups: {
        const std::vector<GroupAggregate>& aggs =
            FetchedAggregates(bundle, node);
        for (size_t a = 0; a < v.host_groups.size(); ++a) {
          const size_t slot = static_cast<size_t>(
              std::find(keyed_marks_.begin(), keyed_marks_.end(),
                        aggs[a].name) -
              keyed_marks_.begin());
          const core::HostAggregate& fetched = v.host_groups[a];
          for (size_t i = 0; i < fetched.keys.size(); ++i) {
            std::vector<double>& group = groups_[fetched.keys[i]];
            group.resize(keyed_marks_.size(), 0.0);
            group[slot] += fetched.values[i];
          }
        }
        break;
      }
      case NodeKind::kFetchPair:
        for (size_t i = 0; i < v.host_first.size(); ++i) {
          rows_.push_back(PairRow{v.host_first[i], v.host_second[i]});
        }
        break;
      default:
        throw std::logic_error("mark '" + name +
                               "' is not a Reduce, FetchGroups or FetchPair");
    }
  }
}

void Partial::Merge(const Partial& other) {
  for (const auto& [name, value] : other.scalars_) scalars_[name] += value;
  if (keyed_marks_.empty()) keyed_marks_ = other.keyed_marks_;
  for (const auto& [key, values] : other.groups_) {
    std::vector<double>& group = groups_[key];
    group.resize(keyed_marks_.size(), 0.0);
    for (size_t i = 0; i < values.size(); ++i) group[i] += values[i];
  }
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
}

uint64_t Partial::Bytes() const {
  return scalars_.size() * sizeof(double) +
         groups_.size() *
             (sizeof(int32_t) + keyed_marks_.size() * sizeof(double)) +
         rows_.size() * sizeof(PairRow);
}

double Partial::scalar(const std::string& mark) const {
  const auto it = scalars_.find(mark);
  return it == scalars_.end() ? 0.0 : it->second;
}

double Partial::Value(const std::vector<double>& group,
                      const std::string& mark) const {
  const auto it = std::find(keyed_marks_.begin(), keyed_marks_.end(), mark);
  const size_t slot = static_cast<size_t>(it - keyed_marks_.begin());
  return slot < group.size() ? group[slot] : 0.0;
}

namespace {

constexpr size_t kLineitem = static_cast<size_t>(TpchTable::kLineitem);
constexpr size_t kOrders = static_cast<size_t>(TpchTable::kOrders);
constexpr size_t kCustomer = static_cast<size_t>(TpchTable::kCustomer);
constexpr size_t kPart = static_cast<size_t>(TpchTable::kPart);

TpchQueryResult Q1Rows(const Partial& p, const QueryShape&) {
  TpchQueryResult r;
  for (const auto& [k, group] : p.groups()) {
    const double count = p.Value(group, "count_order");
    tpch::Q1Row row;
    row.returnflag = k / 2;
    row.linestatus = k % 2;
    row.count_order = static_cast<int64_t>(count);
    row.sum_qty = p.Value(group, "sum_qty");
    row.sum_base_price = p.Value(group, "sum_base_price");
    row.sum_disc_price = p.Value(group, "sum_disc_price");
    row.sum_charge = p.Value(group, "sum_charge");
    row.avg_qty = row.sum_qty / count;
    row.avg_price = row.sum_base_price / count;
    row.avg_disc = p.Value(group, "sum_disc") / count;
    r.q1.push_back(row);
  }
  std::sort(r.q1.begin(), r.q1.end(),
            [](const tpch::Q1Row& a, const tpch::Q1Row& b) {
              return std::pair(a.returnflag, a.linestatus) <
                     std::pair(b.returnflag, b.linestatus);
            });
  return r;
}

/// Top-k by revenue descending, ties by orderkey ascending (the host
/// reference's order); only the k winners are sorted.
TpchQueryResult Q3TopK(const Partial& p, const QueryShape& shape) {
  std::vector<tpch::Q3Row> groups;
  groups.reserve(p.rows().size());
  for (const PairRow& row : p.rows()) {
    groups.push_back(tpch::Q3Row{row.second, row.first});
  }
  const size_t k = std::min(shape.q3.limit, groups.size());
  std::partial_sort(groups.begin(), groups.begin() + static_cast<long>(k),
                    groups.end(),
                    [](const tpch::Q3Row& a, const tpch::Q3Row& b) {
                      if (a.revenue != b.revenue) return a.revenue > b.revenue;
                      return a.orderkey < b.orderkey;
                    });
  groups.resize(k);
  TpchQueryResult r;
  r.q3 = std::move(groups);
  return r;
}

TpchQueryResult Q4Rows(const Partial& p, const QueryShape&) {
  TpchQueryResult r;
  for (const auto& [prio, group] : p.groups()) {
    r.q4.push_back(tpch::Q4Row{
        prio, static_cast<int64_t>(p.Value(group, "order_count"))});
  }
  return r;
}

TpchQueryResult Q6Revenue(const Partial& p, const QueryShape&) {
  TpchQueryResult r;
  r.scalar = p.scalar("revenue");
  return r;
}

TpchQueryResult Q14PromoShare(const Partial& p, const QueryShape&) {
  TpchQueryResult r;
  const double total = p.scalar("total");
  r.scalar = total == 0.0 ? 0.0 : 100.0 * p.scalar("promo") / total;
  return r;
}

const QuerySpec kSpecs[] = {
    {
        .query = TpchQuery::kQ1, .name = "q1",
        .broadcast = {}, .align_orderkey = false,
        .build = [](const DeviceTables& t, const QueryShape& s) {
          return BuildQ1Plan(*t[kLineitem], s.q1);
        },
        .hash_params = [](uint64_t h, const QueryShape& s) {
          return FnvI64(h, s.q1.delta_days);
        },
        // Two flag columns: a handful of groups.
        .estimate_partial_bytes = [](size_t) -> uint64_t {
          return 4 * (sizeof(int32_t) + 6 * sizeof(double));
        },
        .finalize = Q1Rows,
    },
    {
        .query = TpchQuery::kQ3, .name = "q3",
        .broadcast = {TpchTable::kOrders, TpchTable::kCustomer},
        .align_orderkey = true,
        .build = [](const DeviceTables& t, const QueryShape& s) {
          return BuildQ3Plan(*t[kCustomer], *t[kOrders], *t[kLineitem], s.q3);
        },
        .hash_params = [](uint64_t h, const QueryShape& s) {
          h = FnvI64(h, s.q3.segment);
          h = FnvI64(h, s.q3.date);
          return FnvU64(h, s.q3.limit);
        },
        // Join survivors are a small fraction of the shard.
        .estimate_partial_bytes = [](size_t rows) -> uint64_t {
          return std::max<uint64_t>(rows / 50, 1) * sizeof(PairRow);
        },
        .finalize = Q3TopK,
    },
    {
        .query = TpchQuery::kQ4, .name = "q4",
        .broadcast = {TpchTable::kOrders}, .align_orderkey = true,
        .build = [](const DeviceTables& t, const QueryShape& s) {
          return BuildQ4Plan(*t[kOrders], *t[kLineitem], s.q4);
        },
        .hash_params = [](uint64_t h, const QueryShape& s) {
          return FnvI64(FnvI64(h, s.q4.date_lo), s.q4.date_hi);
        },
        // Five order priorities.
        .estimate_partial_bytes = [](size_t) -> uint64_t {
          return 5 * (sizeof(int32_t) + sizeof(int64_t));
        },
        .finalize = Q4Rows,
    },
    {
        .query = TpchQuery::kQ6, .name = "q6",
        .broadcast = {}, .align_orderkey = false,
        .build = [](const DeviceTables& t, const QueryShape& s) {
          return BuildQ6Plan(*t[kLineitem], s.q6);
        },
        .hash_params = [](uint64_t h, const QueryShape& s) {
          h = FnvI64(FnvI64(h, s.q6.date_lo), s.q6.date_hi);
          h = FnvF64(FnvF64(h, s.q6.discount_lo), s.q6.discount_hi);
          return FnvF64(h, s.q6.quantity_hi);
        },
        .estimate_partial_bytes = [](size_t) -> uint64_t {
          return sizeof(double);
        },
        .finalize = Q6Revenue,
    },
    {
        .query = TpchQuery::kQ14, .name = "q14",
        .broadcast = {TpchTable::kPart}, .align_orderkey = false,
        .build = [](const DeviceTables& t, const QueryShape& s) {
          return BuildQ14Plan(*t[kPart], *t[kLineitem], s.q14);
        },
        .hash_params = [](uint64_t h, const QueryShape& s) {
          return FnvI64(FnvI64(h, s.q14.date_lo), s.q14.date_hi);
        },
        .estimate_partial_bytes = [](size_t) -> uint64_t {
          return 2 * sizeof(double);
        },
        .finalize = Q14PromoShare,
    },
};

}  // namespace

std::vector<TpchTable> TablesRead(const QuerySpec& spec) {
  std::vector<TpchTable> tables = spec.broadcast;
  tables.push_back(TpchTable::kLineitem);
  return tables;
}

const QuerySpec& GetQuerySpec(TpchQuery query) {
  const size_t i = static_cast<size_t>(query);
  if (i >= std::size(kSpecs) || kSpecs[i].query != query) {
    throw std::logic_error("unknown TpchQuery");
  }
  return kSpecs[i];
}

const char* TpchQueryName(TpchQuery query) {
  const size_t i = static_cast<size_t>(query);
  return i < std::size(kSpecs) ? kSpecs[i].name : "?";
}

TpchQuery ParseTpchQuery(const std::string& name) {
  std::string expected;
  for (const QuerySpec& spec : kSpecs) {
    if (name == spec.name) return spec.query;
    if (!expected.empty()) expected += '|';
    expected += spec.name;
  }
  throw std::invalid_argument("unknown TPC-H query '" + name +
                              "' (expected " + expected + ")");
}

TpchQueryResult ExtractResult(TpchQuery query, const QueryPlanBundle& bundle,
                              const ExecutionResult& result,
                              const QueryShape& shape) {
  Partial partial;
  partial.Accumulate(bundle, result);
  return GetQuerySpec(query).finalize(partial, shape);
}

}  // namespace plan
