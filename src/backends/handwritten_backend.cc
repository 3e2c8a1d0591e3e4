// Handwritten-kernel binding of the operator framework: the expert baseline.
//
// Selection (including multi-predicate) runs as ONE fused kernel; grouped
// aggregation and joins use hash tables — the operators Table II shows no
// library supports. This backend is what the paper's "handwritten operator
// implementations" compare against.
#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <type_traits>

#include "backends/backends.h"
#include "backends/common.h"
#include "core/backend.h"
#include "gpusim/algorithms.h"
#include "gpusim/exact_sum.h"
#include "handwritten/handwritten.h"
#include "storage/encoded_column.h"
#include "storage/encoding.h"

namespace backends {
namespace {

using core::AggOp;
using core::CompareOp;
using core::DbOperator;
using core::GroupByResult;
using core::JoinResult;
using core::OperatorRealization;
using core::Predicate;
using core::SelectionResult;
using core::SupportLevel;
using storage::DataType;
using storage::DeviceColumn;

/// POD predicate evaluator usable inside kernels (no virtual dispatch).
struct PredEval {
  DataType type = DataType::kInt32;
  const void* data = nullptr;
  CompareOp op = CompareOp::kLt;
  double lit_f = 0.0;
  int64_t lit_i = 0;

  bool operator()(size_t row) const {
    switch (type) {
      case DataType::kInt32:
        return ApplyCompare(op, static_cast<int64_t>(
                                    static_cast<const int32_t*>(data)[row]),
                            lit_i);
      case DataType::kInt64:
        return ApplyCompare(op, static_cast<const int64_t*>(data)[row], lit_i);
      case DataType::kFloat64:
        return ApplyCompare(op, static_cast<const double*>(data)[row], lit_f);
      case DataType::kFloat32:
        return ApplyCompare(
            op, static_cast<double>(static_cast<const float*>(data)[row]),
            lit_f);
    }
    return false;
  }
};

constexpr size_t kMaxFusedPredicates = 8;
constexpr size_t kMaxGroupAggregates = 8;

/// One aggregate's per-row input, readable inside kernels (no virtual
/// dispatch). Accumulators are doubles: counts stay exact to 2^53.
struct AggInput {
  DataType type = DataType::kFloat64;
  const void* data = nullptr;
  AggOp op = AggOp::kSum;

  double Value(size_t row) const {
    if (op == AggOp::kCount) return 1.0;
    switch (type) {
      case DataType::kInt32:
        return static_cast<double>(static_cast<const int32_t*>(data)[row]);
      case DataType::kInt64:
        return static_cast<double>(static_cast<const int64_t*>(data)[row]);
      case DataType::kFloat64:
        return static_cast<const double*>(data)[row];
      case DataType::kFloat32:
        return static_cast<double>(static_cast<const float*>(data)[row]);
    }
    return 0.0;
  }

  double Identity() const {
    if (op == AggOp::kMin) return std::numeric_limits<double>::max();
    if (op == AggOp::kMax) return std::numeric_limits<double>::lowest();
    return 0.0;
  }

  double Combine(double a, double b) const {
    if (op == AggOp::kMin) return b < a ? b : a;
    if (op == AggOp::kMax) return a < b ? b : a;
    return a + b;
  }

  /// Device bytes one row of this input reads (counts read nothing).
  uint64_t RowBytes() const {
    return op == AggOp::kCount ? 0 : storage::DataTypeSize(type);
  }
};

/// The accumulators of one group, one lane per aggregate.
struct AggLanes {
  std::array<double, kMaxGroupAggregates> lane{};
};

class HandwrittenBackend : public core::Backend {
 public:
  HandwrittenBackend()
      : stream_(gpusim::Device::Current(), gpusim::ApiProfile::Cuda()) {
    stream_.set_label(kHandwritten);
  }

  std::string name() const override { return kHandwritten; }
  gpusim::Stream& stream() override { return stream_; }

  OperatorRealization Realization(DbOperator op) const override {
    switch (op) {
      case DbOperator::kSelection:
        return {SupportLevel::kFull, "fused predicate kernel"};
      case DbOperator::kConjunction:
      case DbOperator::kDisjunction:
        return {SupportLevel::kFull, "fused multi-predicate kernel"};
      case DbOperator::kNestedLoopsJoin:
        return {SupportLevel::kFull, "count+fill kernels"};
      case DbOperator::kMergeJoin:
        return {SupportLevel::kNone, ""};
      case DbOperator::kHashJoin:
        return {SupportLevel::kFull, "open-addressing build/probe kernels"};
      case DbOperator::kGroupedAggregation:
        return {SupportLevel::kFull, "atomic hash aggregation"};
      case DbOperator::kReduction:
        return {SupportLevel::kFull, "tree reduction kernel"};
      case DbOperator::kSortByKey:
      case DbOperator::kSort:
        return {SupportLevel::kFull, "LSD radix sort kernels"};
      case DbOperator::kPrefixSum:
        return {SupportLevel::kFull, "multi-level Blelloch scan"};
      case DbOperator::kScatterGather:
        return {SupportLevel::kFull, "direct kernels"};
      case DbOperator::kProduct:
        return {SupportLevel::kFull, "fused multiply kernel"};
    }
    return {SupportLevel::kNone, ""};
  }

  SelectionResult Select(const DeviceColumn& column,
                         const Predicate& pred) override {
    SelectionResult out;
    out.row_ids = DeviceColumn(DataType::kInt32, column.size(), device());
    size_t count = 0;
    BACKENDS_DISPATCH(column.type(), {
      const T lit = PredLiteral<T>(pred);
      const CompareOp op = pred.op;
      count = handwritten::SelectIndices(
          stream_, column.data<T>(), column.size(),
          reinterpret_cast<uint32_t*>(out.row_ids.data<int32_t>()),
          [=](T v) { return ApplyCompare(op, v, lit); });
    });
    out.count = count;
    out.row_ids = Shrink(out.row_ids, count);
    return out;
  }

  SelectionResult SelectConjunctive(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) override {
    return SelectFused(columns, preds, /*conjunctive=*/true);
  }

  SelectionResult SelectDisjunctive(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) override {
    return SelectFused(columns, preds, /*conjunctive=*/false);
  }

  SelectionResult SelectCompareColumns(const DeviceColumn& a, CompareOp op,
                                       const DeviceColumn& b) override {
    const size_t n = a.size();
    SelectionResult out;
    out.row_ids = DeviceColumn(DataType::kInt32, n, device());
    size_t count = 0;
    BACKENDS_DISPATCH(a.type(), {
      const T* pa = a.data<T>();
      const T* pb = b.data<T>();
      gpusim::KernelStats stats;
      stats.name = "hw::select_cmp_cols";
      stats.bytes_read = n * 2 * sizeof(T);
      stats.bytes_written = n * sizeof(uint32_t);
      count = handwritten::TicketedSelect(
          stream_, n, stats,
          reinterpret_cast<uint32_t*>(out.row_ids.data<int32_t>()),
          [=](size_t i) { return ApplyCompare(op, pa[i], pb[i]); });
    });
    out.count = count;
    out.row_ids = Shrink(out.row_ids, count);
    return out;
  }

  /// Encoded conjunctive selection as ONE fused kernel over the encoded
  /// payloads (atomic-ticket compaction), mirroring SelectFused: predicates
  /// on packed columns compare codes via core::RewritePredicate, RLE
  /// predicates compare run values. One 4-byte count readback.
  SelectionResult SelectConjunctiveEncoded(
      const std::vector<core::ScanColumnRef>& columns,
      const std::vector<Predicate>& preds) override {
    if (columns.empty() || columns.size() != preds.size()) {
      throw std::invalid_argument(
          "SelectConjunctiveEncoded: bad predicate list");
    }
    const size_t n = columns[0].size();
    std::vector<std::function<bool(size_t)>> matchers;
    matchers.reserve(preds.size());
    uint64_t bytes_per_row_scan = 0;
    for (size_t p = 0; p < preds.size(); ++p) {
      matchers.push_back(core::MakeScanMatcher(columns[p], preds[p]));
      bytes_per_row_scan += core::ScanColumnSeqBytes(columns[p]);
    }

    SelectionResult out;
    out.row_ids = DeviceColumn(DataType::kInt32, n, device());
    gpusim::KernelStats stats;
    stats.name = "hw::select_encoded_fused";
    stats.bytes_read = bytes_per_row_scan;
    stats.bytes_written = n * sizeof(uint32_t);
    stats.ops = n * preds.size();
    const auto* ms = matchers.data();
    const size_t num_preds = matchers.size();
    const size_t count = handwritten::TicketedSelect(
        stream_, n, stats,
        reinterpret_cast<uint32_t*>(out.row_ids.data<int32_t>()),
        [=](size_t i) {
          for (size_t p = 0; p < num_preds; ++p) {
            if (!ms[p](i)) return false;
          }
          return true;
        });
    out.count = count;
    out.row_ids = Shrink(out.row_ids, count);
    return out;
  }

  JoinResult NestedLoopsJoin(const DeviceColumn& left_keys,
                             const DeviceColumn& right_keys) override {
    gpusim::DeviceArray<uint32_t> rights, lefts;
    const size_t count = handwritten::NestedLoopsJoin(
        stream_, right_keys.data<int32_t>(), right_keys.size(),
        left_keys.data<int32_t>(), left_keys.size(), &rights, &lefts);
    JoinResult out;
    out.count = count;
    out.left_rows = CopyToColumn(lefts.data(), count);
    out.right_rows = CopyToColumn(rights.data(), count);
    return out;
  }

  JoinResult HashJoin(const DeviceColumn& left_keys,
                      const DeviceColumn& right_keys) override {
    handwritten::HashJoin<int32_t> table(stream_, left_keys.data<int32_t>(),
                                         left_keys.size());
    gpusim::DeviceArray<uint32_t> build_rows(right_keys.size(), device());
    gpusim::DeviceArray<uint32_t> probe_rows(right_keys.size(), device());
    const size_t count =
        table.Probe(right_keys.data<int32_t>(), right_keys.size(),
                    build_rows.data(), probe_rows.data());
    JoinResult out;
    out.count = count;
    out.left_rows = CopyToColumn(build_rows.data(), count);
    out.right_rows = CopyToColumn(probe_rows.data(), count);
    return out;
  }

  GroupByResult GroupByAggregate(const DeviceColumn& keys,
                                 const DeviceColumn& values,
                                 AggOp op) override {
    const int32_t* k = keys.data<int32_t>();
    const size_t n = keys.size();
    GroupByResult out;
    if (op == AggOp::kCount) {
      gpusim::DeviceArray<int64_t> ones(n, device());
      gpusim::Fill(stream_, ones.data(), n, int64_t{1});
      auto grouped = handwritten::HashGroupByReduce(
          stream_, k, ones.data(), n, int64_t{0},
          [](int64_t a, int64_t b) { return a + b; });
      out.num_groups = grouped.num_groups;
      out.keys = CopyToColumn(
          reinterpret_cast<uint32_t*>(grouped.keys.data()), grouped.num_groups);
      DeviceColumn agg(DataType::kInt64, grouped.num_groups, device());
      if (grouped.num_groups > 0) {
        gpusim::CopyDeviceToDevice(stream_, agg.raw_data(),
                                   grouped.sums.data(),
                                   grouped.num_groups * sizeof(int64_t));
      }
      out.aggregate = std::move(agg);
      return out;
    }
    BACKENDS_DISPATCH(values.type(), {
      T identity{};
      if (op == AggOp::kMin) identity = std::numeric_limits<T>::max();
      if (op == AggOp::kMax) identity = std::numeric_limits<T>::lowest();
      const AggOp aop = op;
      auto grouped = handwritten::HashGroupByReduce(
          stream_, k, values.data<T>(), n, identity, [aop](T a, T b) {
            switch (aop) {
              case AggOp::kSum: return static_cast<T>(a + b);
              case AggOp::kMin: return b < a ? b : a;
              case AggOp::kMax: return a < b ? b : a;
              default: return static_cast<T>(a + b);
            }
          });
      out.num_groups = grouped.num_groups;
      out.keys = CopyToColumn(
          reinterpret_cast<uint32_t*>(grouped.keys.data()), grouped.num_groups);
      DeviceColumn agg(DataType::kFloat64, grouped.num_groups, device());
      const T* sums = grouped.sums.data();
      double* aggp = agg.data<double>();
      gpusim::KernelStats stats;
      stats.name = "hw::agg_to_f64";
      stats.bytes_read = grouped.num_groups * sizeof(T);
      stats.bytes_written = grouped.num_groups * sizeof(double);
      gpusim::ParallelFor(stream_, grouped.num_groups, stats, [=](size_t i) {
        aggp[i] = static_cast<double>(sums[i]);
      });
      out.aggregate = std::move(agg);
    });
    return out;
  }

  /// Every aggregate in one pass (Crystal's single-pass Q1). Encoded keys
  /// over a small dense code domain (Q1's dictionary-encoded l_rfls) group
  /// on their codes: no key gather, no hash table, and no group-count
  /// readback, since every code owns a slot. Other keys build one hash table
  /// and map each row to its group. Either way the keys and all N
  /// aggregates land in one packed buffer, fetched with one download. One
  /// aggregate over raw keys (Q3, Q4) stays the plain GroupByAggregate.
  core::GroupedAggregates GroupByAggregates(
      const core::GroupKeys& keys,
      const std::vector<core::Aggregate>& aggs) override {
    if (aggs.empty() || aggs.size() > kMaxGroupAggregates ||
        (keys.enc == nullptr && aggs.size() == 1)) {
      return core::Backend::GroupByAggregates(keys, aggs);
    }
    std::vector<AggInput> inputs;
    for (const core::Aggregate& a : aggs) {
      inputs.push_back(AggInput{a.values->type(), a.values->raw_data(), a.op});
    }
    if (keys.enc == nullptr) return HashGroupBy(*keys.raw, inputs);
    const size_t domain = core::DenseCodeDomain(*keys.enc);
    if (domain == 0) {
      return HashGroupBy(GatherDecode(*keys.enc, *keys.rows), inputs);
    }
    return DenseCodeGroupBy(*keys.enc, *keys.rows, inputs, domain);
  }

  double ReduceColumn(const DeviceColumn& values, AggOp op) override {
    if (op == AggOp::kCount) return static_cast<double>(values.size());
    double result = 0.0;
    BACKENDS_DISPATCH(values.type(), {
      const T* data = values.data<T>();
      const size_t n = values.size();
      switch (op) {
        case AggOp::kSum:
          // The ticketed selects leave rows in host-timing order; an exact
          // sum keeps a floating-point answer the same on every run.
          if constexpr (std::is_floating_point_v<T>) {
            result = static_cast<double>(
                gpusim::ExactSum(stream_, data, n, "hw::sum"));
          } else {
            result = static_cast<double>(gpusim::Reduce(
                stream_, data, n, T{},
                [](T a, T b) { return static_cast<T>(a + b); }, "hw::sum"));
          }
          break;
        case AggOp::kMin:
          result = static_cast<double>(gpusim::Reduce(
              stream_, data, n, std::numeric_limits<T>::max(),
              [](T a, T b) { return b < a ? b : a; }, "hw::min"));
          break;
        case AggOp::kMax:
          result = static_cast<double>(gpusim::Reduce(
              stream_, data, n, std::numeric_limits<T>::lowest(),
              [](T a, T b) { return a < b ? b : a; }, "hw::max"));
          break;
        case AggOp::kCount:
          break;  // handled above
      }
    });
    return result;
  }

  DeviceColumn Sort(const DeviceColumn& column) override {
    DeviceColumn out(column.type(), column.size(), device());
    BACKENDS_DISPATCH(column.type(), {
      gpusim::CopyDeviceToDevice(stream_, out.data<T>(), column.data<T>(),
                                 column.size() * sizeof(T));
      gpusim::RadixSortKeys(stream_, out.data<T>(), out.size());
    });
    return out;
  }

  std::pair<DeviceColumn, DeviceColumn> SortByKey(
      const DeviceColumn& keys, const DeviceColumn& values) override {
    DeviceColumn out_keys(keys.type(), keys.size(), device());
    DeviceColumn out_vals(values.type(), values.size(), device());
    BACKENDS_DISPATCH(keys.type(), {
      using K = T;
      gpusim::CopyDeviceToDevice(stream_, out_keys.data<K>(), keys.data<K>(),
                                 keys.size() * sizeof(K));
      BACKENDS_DISPATCH(values.type(), {
        gpusim::CopyDeviceToDevice(stream_, out_vals.data<T>(),
                                   values.data<T>(),
                                   values.size() * sizeof(T));
        gpusim::RadixSortPairs(stream_, out_keys.data<K>(), out_vals.data<T>(),
                               keys.size());
      });
    });
    return {std::move(out_keys), std::move(out_vals)};
  }

  DeviceColumn Unique(const DeviceColumn& column) override {
    DeviceColumn sorted = Sort(column);
    size_t count = 0;
    DeviceColumn tmp(column.type(), column.size(), device());
    BACKENDS_DISPATCH(column.type(), {
      count = gpusim::UniqueSorted(stream_, sorted.data<T>(), sorted.size(),
                                   tmp.data<T>());
    });
    DeviceColumn out(column.type(), count, device());
    if (count > 0) {
      gpusim::CopyDeviceToDevice(stream_, out.raw_data(), tmp.raw_data(),
                                 count * storage::DataTypeSize(column.type()));
    }
    return out;
  }

  DeviceColumn PrefixSum(const DeviceColumn& column) override {
    DeviceColumn out(column.type(), column.size(), device());
    BACKENDS_DISPATCH(column.type(), {
      gpusim::ExclusiveScan(stream_, column.data<T>(), out.data<T>(),
                            column.size(), T{},
                            [](T a, T b) { return static_cast<T>(a + b); });
    });
    return out;
  }

  DeviceColumn Gather(const DeviceColumn& src,
                      const DeviceColumn& indices) override {
    DeviceColumn out(src.type(), indices.size(), device());
    const int32_t* map = indices.data<int32_t>();
    BACKENDS_DISPATCH(src.type(), {
      gpusim::Gather(stream_, map, indices.size(), src.data<T>(),
                     out.data<T>());
    });
    return out;
  }

  DeviceColumn Scatter(const DeviceColumn& src, const DeviceColumn& indices,
                       size_t out_size) override {
    DeviceColumn out(src.type(), out_size, device());
    const int32_t* map = indices.data<int32_t>();
    BACKENDS_DISPATCH(src.type(), {
      gpusim::Fill(stream_, out.data<T>(), out_size, T{});
      gpusim::Scatter(stream_, src.data<T>(), map, src.size(), out.data<T>());
    });
    return out;
  }

  DeviceColumn Product(const DeviceColumn& a, const DeviceColumn& b) override {
    DeviceColumn out(a.type(), a.size(), device());
    BACKENDS_DISPATCH(a.type(), {
      const T* pa = a.data<T>();
      const T* pb = b.data<T>();
      T* po = out.data<T>();
      gpusim::KernelStats stats;
      stats.name = "hw::product";
      stats.bytes_read = a.size() * 2 * sizeof(T);
      stats.bytes_written = a.size() * sizeof(T);
      gpusim::ParallelFor(stream_, a.size(), stats,
                          [=](size_t i) { po[i] = pa[i] * pb[i]; });
    });
    return out;
  }

  DeviceColumn AddScalar(const DeviceColumn& a, double alpha) override {
    return MapScalar(a, alpha, /*subtract_from=*/false);
  }

  DeviceColumn SubtractFromScalar(double alpha,
                                  const DeviceColumn& a) override {
    return MapScalar(a, alpha, /*subtract_from=*/true);
  }

 private:
  gpusim::Device& device() { return stream_.device(); }

  /// Writes the packed layout's initial slots: `groups` NaN keys (no group
  /// seen yet), then each aggregate's identity.
  core::GroupedAggregates PackedSlots(size_t groups,
                                      const std::vector<AggInput>& inputs) {
    core::GroupedAggregates out;
    out.num_groups = groups;
    out.packed = DeviceColumn(DataType::kFloat64,
                              groups * (1 + inputs.size()), device());
    double* slots = out.packed.data<double>();
    std::array<double, kMaxGroupAggregates + 1> init{};
    init[0] = std::numeric_limits<double>::quiet_NaN();
    for (size_t a = 0; a < inputs.size(); ++a) {
      init[1 + a] = inputs[a].Identity();
    }
    gpusim::KernelStats stats;
    stats.name = "hw::group_slots_init";
    stats.bytes_written = out.packed.byte_size();
    gpusim::ParallelFor(stream_, out.packed.size(), stats,
                        [=](size_t s) { slots[s] = init[s / groups]; });
    return out;
  }

  /// The one aggregation pass: row i of [0, n) belongs to group
  /// group_of(i) < groups. Each chunk folds its rows into a private table
  /// (PrivatizedGroupReduce) and combines each group it saw into the packed
  /// slots once, calling on_group(g) first.
  template <typename GroupOf, typename OnGroup>
  void AggregateLanes(size_t n, const gpusim::KernelStats& stats,
                      const std::vector<AggInput>& inputs, size_t groups,
                      double* slots, GroupOf group_of, OnGroup on_group) {
    const size_t num = inputs.size();
    std::array<AggInput, kMaxGroupAggregates> in{};
    std::copy(inputs.begin(), inputs.end(), in.begin());
    gpusim::ParallelForChunks(
        stream_, n, stats, [=](size_t begin, size_t end) {
          handwritten::PrivatizedGroupReduce<uint32_t, AggLanes>(
              begin, end, group_of,
              [=](size_t i) {
                AggLanes row;
                for (size_t a = 0; a < num; ++a) row.lane[a] = in[a].Value(i);
                return row;
              },
              [=](const AggLanes& x, const AggLanes& y) {
                AggLanes sum;
                for (size_t a = 0; a < num; ++a) {
                  sum.lane[a] = in[a].Combine(x.lane[a], y.lane[a]);
                }
                return sum;
              },
              [=](uint32_t g, const AggLanes& acc) {
                on_group(g);
                for (size_t a = 0; a < num; ++a) {
                  const AggInput agg = in[a];
                  gpusim::detail::AtomicCombine(
                      &slots[(1 + a) * groups + g], acc.lane[a],
                      [agg](double x, double y) { return agg.Combine(x, y); });
                }
              });
        });
  }

  /// Grouping on codes: one init kernel, then one pass reading each
  /// selected row's packed code and values. A code's key slot is written
  /// (dictionary entry, or reference + code) the first time a chunk flushes
  /// it, so codes absent from the selection keep NaN keys.
  core::GroupedAggregates DenseCodeGroupBy(
      const storage::EncodedDeviceColumn& keys, const DeviceColumn& rows,
      const std::vector<AggInput>& inputs, size_t domain) {
    const size_t n = rows.size();
    core::GroupedAggregates out = PackedSlots(domain, inputs);
    double* slots = out.packed.data<double>();
    const int32_t* row_ids = static_cast<const int32_t*>(rows.raw_data());
    const uint64_t* words = keys.words_data();
    const unsigned bits = keys.bit_width;
    const bool dict = keys.encoding == storage::Encoding::kDictionary;
    const int32_t* entries = dict ? keys.dict.data<int32_t>() : nullptr;
    const int64_t reference = keys.reference;
    gpusim::KernelStats stats;
    stats.name = "hw::dense_group_aggregate";
    stats.bytes_read = n * (sizeof(int32_t) + (bits + 7) / 8) +
                       (dict ? domain * sizeof(int32_t) : 0);
    for (const AggInput& a : inputs) stats.bytes_read += n * a.RowBytes();
    stats.bytes_written = handwritten::GroupFlushes(n, domain) *
                          (1 + inputs.size()) * sizeof(double);
    stats.ops = n * (1 + inputs.size());
    AggregateLanes(
        n, stats, inputs, domain, slots,
        [=](size_t i) {
          return static_cast<uint32_t>(storage::UnpackBit(
              words, bits, static_cast<size_t>(row_ids[i])));
        },
        [=](uint32_t code) {
          const double key =
              dict ? static_cast<double>(entries[code])
                   : static_cast<double>(reference + static_cast<int64_t>(code));
          gpusim::AtomicExchange(&slots[code], key);
        });
    return out;
  }

  /// Grouping on raw keys: ONE hash table under HashGroupByReduce's capacity
  /// rule, an insert pass recording each row's slot, an in-place scan that
  /// turns slot flags into group ids, a 4-byte group-count readback, a
  /// compaction writing keys and identities into group-count-sized slots,
  /// and the aggregation pass. Device high-water: 8 B per table slot plus
  /// 4 B per row plus the packed result, never above the per-aggregate
  /// calls it replaces (one call's 32 B per slot plus N results).
  core::GroupedAggregates HashGroupBy(const DeviceColumn& keys,
                                      const std::vector<AggInput>& inputs) {
    constexpr int32_t kEmpty = std::numeric_limits<int32_t>::max();
    const size_t n = keys.size();
    const int32_t* k = static_cast<const int32_t*>(keys.raw_data());
    const size_t capacity = handwritten::detail::NextPow2(n < 8 ? 16 : 2 * n);
    const size_t mask = capacity - 1;
    gpusim::DeviceArray<int32_t> table(capacity, device());
    gpusim::DeviceArray<uint32_t> group_ids(capacity, device());
    gpusim::DeviceArray<uint32_t> row_slots(n, device());
    gpusim::Fill(stream_, table.data(), capacity, kEmpty);
    int32_t* t = table.data();
    uint32_t* ids = group_ids.data();
    uint32_t* rs = row_slots.data();
    {
      gpusim::KernelStats stats;
      stats.name = "hw::group_insert";
      stats.bytes_read = n * 2 * sizeof(int32_t);
      stats.bytes_written = n * sizeof(uint32_t);
      stats.ops = 2 * n;
      gpusim::ParallelFor(stream_, n, stats, [=](size_t i) {
        const int32_t key = k[i];
        size_t slot = handwritten::detail::MixHash(static_cast<uint64_t>(key)) &
                      mask;
        while (true) {
          const int32_t stored = gpusim::AtomicLoad(&t[slot]);
          if (stored == key) break;
          if (stored == kEmpty) {
            if (gpusim::AtomicCas(&t[slot], kEmpty, key) == kEmpty) break;
            continue;
          }
          slot = (slot + 1) & mask;
        }
        rs[i] = static_cast<uint32_t>(slot);
      });
    }
    {
      gpusim::KernelStats stats;
      stats.name = "hw::group_slot_flags";
      stats.bytes_read = capacity * sizeof(int32_t);
      stats.bytes_written = capacity * sizeof(uint32_t);
      gpusim::ParallelFor(stream_, capacity, stats,
                          [=](size_t s) { ids[s] = t[s] != kEmpty ? 1u : 0u; });
    }
    // In place: slot s's flag becomes its 1-based group id.
    gpusim::InclusiveScan(stream_, ids, ids, capacity,
                          [](uint32_t a, uint32_t b) { return a + b; });
    uint32_t groups = 0;
    gpusim::CopyDeviceToHost(stream_, &groups, ids + (capacity - 1),
                             sizeof(uint32_t));

    const size_t num = inputs.size();
    core::GroupedAggregates out;
    out.num_groups = groups;
    out.packed = DeviceColumn(DataType::kFloat64, groups * (1 + num), device());
    double* slots = out.packed.data<double>();
    std::array<double, kMaxGroupAggregates> identity{};
    for (size_t a = 0; a < num; ++a) identity[a] = inputs[a].Identity();
    {
      gpusim::KernelStats stats;
      stats.name = "hw::group_compact";
      stats.bytes_read = capacity * (sizeof(int32_t) + sizeof(uint32_t));
      stats.bytes_written = out.packed.byte_size();
      const size_t g_count = groups;
      gpusim::ParallelFor(stream_, capacity, stats, [=](size_t s) {
        if (t[s] == kEmpty) return;
        const size_t g = ids[s] - 1;
        slots[g] = static_cast<double>(t[s]);
        for (size_t a = 0; a < num; ++a) {
          slots[(1 + a) * g_count + g] = identity[a];
        }
      });
    }
    gpusim::KernelStats stats;
    stats.name = "hw::group_aggregate";
    stats.bytes_read = n * 2 * sizeof(uint32_t);
    for (const AggInput& a : inputs) stats.bytes_read += n * a.RowBytes();
    stats.bytes_written =
        handwritten::GroupFlushes(n, groups) * num * sizeof(double);
    stats.ops = n * (1 + num);
    AggregateLanes(
        n, stats, inputs, groups, slots,
        [=](size_t i) { return ids[rs[i]] - 1; }, [](uint32_t) {});
    return out;
  }

  DeviceColumn MapScalar(const DeviceColumn& a, double alpha,
                         bool subtract_from) {
    DeviceColumn out(a.type(), a.size(), device());
    BACKENDS_DISPATCH(a.type(), {
      const T* pa = a.data<T>();
      T* po = out.data<T>();
      const T s = static_cast<T>(alpha);
      gpusim::KernelStats stats;
      stats.name = "hw::map_scalar";
      stats.bytes_read = a.size() * sizeof(T);
      stats.bytes_written = a.size() * sizeof(T);
      gpusim::ParallelFor(stream_, a.size(), stats, [=](size_t i) {
        po[i] = subtract_from ? static_cast<T>(s - pa[i])
                              : static_cast<T>(pa[i] + s);
      });
    });
    return out;
  }

  DeviceColumn CopyToColumn(const uint32_t* data, size_t count) {
    DeviceColumn out(DataType::kInt32, count, device());
    if (count > 0) {
      gpusim::CopyDeviceToDevice(stream_, out.raw_data(), data,
                                 count * sizeof(uint32_t));
    }
    return out;
  }

  DeviceColumn Shrink(const DeviceColumn& column, size_t count) {
    DeviceColumn out(column.type(), count, device());
    if (count > 0) {
      gpusim::CopyDeviceToDevice(
          stream_, out.raw_data(), column.raw_data(),
          count * storage::DataTypeSize(column.type()));
    }
    return out;
  }

  SelectionResult SelectFused(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds, bool conjunctive) {
    if (columns.empty() || columns.size() != preds.size() ||
        columns.size() > kMaxFusedPredicates) {
      throw std::invalid_argument("SelectFused: bad predicate list");
    }
    const size_t n = columns[0]->size();
    std::array<PredEval, kMaxFusedPredicates> evals{};
    uint64_t bytes_per_row = 0;
    for (size_t p = 0; p < preds.size(); ++p) {
      evals[p].type = columns[p]->type();
      evals[p].data = columns[p]->raw_data();
      evals[p].op = preds[p].op;
      evals[p].lit_f = preds[p].value_f;
      evals[p].lit_i = preds[p].value_i;
      bytes_per_row += storage::DataTypeSize(columns[p]->type());
    }
    const size_t num_preds = preds.size();

    SelectionResult out;
    out.row_ids = DeviceColumn(DataType::kInt32, n, device());
    gpusim::KernelStats stats;
    stats.name = "hw::select_multi_fused";
    stats.bytes_read = n * bytes_per_row;
    stats.bytes_written = n * sizeof(uint32_t);
    stats.ops = n * num_preds;
    const size_t count = handwritten::TicketedSelect(
        stream_, n, stats,
        reinterpret_cast<uint32_t*>(out.row_ids.data<int32_t>()),
        [=](size_t i) {
          // Conjunctions stop at the first miss, disjunctions at the
          // first hit; either way the stopping predicate decides.
          for (size_t p = 0; p < num_preds; ++p) {
            if (evals[p](i) != conjunctive) return !conjunctive;
          }
          return conjunctive;
        });
    out.count = count;
    out.row_ids = Shrink(out.row_ids, count);
    return out;
  }

  gpusim::Stream stream_;
};

}  // namespace

std::unique_ptr<core::Backend> CreateHandwrittenBackend() {
  return std::make_unique<HandwrittenBackend>();
}

}  // namespace backends
