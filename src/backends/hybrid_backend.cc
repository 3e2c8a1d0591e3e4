// Hybrid backend: per-operator cost-based dispatch across the four library
// bindings, exposed through the ordinary core::Backend interface so pinned
// plans, the scheduler, and the benches can use the planner's dispatch
// policy as one more backend.
//
// Every call is priced per candidate with plan::CostEstimator (actual input
// sizes, heuristic output cardinalities) plus a boundary charge for inputs
// that were materialized by a differently-chosen backend; the cheapest
// candidate executes the call on its own stream. Result buffers are tagged
// with the backend that produced them (buffer-address provenance) so later
// calls know when a boundary device-to-device copy must be charged.
//
// The sub-backend's stream delta is mirrored onto the hybrid stream with
// ChargeOverhead so that stream-timeline deltas (what QueryScheduler
// measures) cover all dispatched work. The device-global simulated_ns
// counter sees both the sub-stream and the mirror charge; per-stream
// timelines — the quantity every report in this repo uses — stay exact.
//
// Resilience: dispatch ranks candidates by cost and consults the
// per-backend circuit breakers (core/resilience.h) — candidates with an
// open circuit are skipped while a healthy alternative exists. Execution
// retries transient faults on the chosen backend, reclaims + retries once
// on device OOM, and falls back to the next-cheapest capable candidate on a
// fatal failure (recording it against the failed backend's breaker), so a
// "dead" sub-backend degrades dispatch instead of failing queries. With no
// injector attached and all breakers closed the chosen candidate, the
// charged commands, and the simulated timeline are identical to the
// non-resilient path.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backends/backends.h"
#include "core/backend.h"
#include "core/error.h"
#include "core/resilience.h"
#include "plan/cost_estimator.h"

namespace backends {
namespace {

using core::AggOp;
using core::CompareOp;
using core::DbOperator;
using core::Predicate;
using storage::DeviceColumn;

const std::vector<std::string>& Candidates() {
  static const std::vector<std::string>* order = new std::vector<std::string>{
      kHandwritten, kThrust, kArrayFire, kBoostCompute};
  return *order;
}

class HybridBackend : public core::Backend {
 public:
  HybridBackend()
      : stream_(gpusim::Device::Current(), gpusim::ApiProfile::Cuda()),
        resilience_(&core::ResilienceManager::Global()) {
    stream_.set_label(kHybrid);
    subs_.emplace(kHandwritten, CreateHandwrittenBackend());
    subs_.emplace(kThrust, CreateThrustBackend());
    subs_.emplace(kArrayFire, CreateArrayFireBackend());
    subs_.emplace(kBoostCompute, CreateBoostComputeBackend());
  }

  std::string name() const override { return kHybrid; }
  gpusim::Stream& stream() override { return stream_; }
  /// Owns an ArrayFire instance (process-global JIT state).
  bool concurrency_safe() const override { return false; }

  core::OperatorRealization Realization(DbOperator op) const override {
    const std::string chosen = PreferredFor(op);
    core::OperatorRealization r = Sub(chosen).Realization(op);
    if (r.level != core::SupportLevel::kNone) {
      r.functions = "via " + chosen + ": " + r.functions;
    }
    return r;
  }

  // -- Selection ------------------------------------------------------------

  core::SelectionResult Select(const DeviceColumn& column,
                               const Predicate& pred) override {
    const size_t n = column.size();
    const auto ranked = Rank(
        [&](const std::string& c) {
          return est_.Select(c, n, n / 3, ElemBytes(column), 1);
        },
        {&column});
    auto r = Run(ranked, {&column},
                 [&](core::Backend& s) { return s.Select(column, pred); });
    Tag(r.row_ids, last_run_);
    return r;
  }

  core::SelectionResult SelectConjunctive(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) override {
    return MultiSelect(columns, preds, /*conjunctive=*/true);
  }

  core::SelectionResult SelectDisjunctive(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) override {
    return MultiSelect(columns, preds, /*conjunctive=*/false);
  }

  core::SelectionResult SelectCompareColumns(const DeviceColumn& a,
                                             CompareOp op,
                                             const DeviceColumn& b) override {
    const size_t n = a.size();
    const auto ranked = Rank(
        [&](const std::string& cand) {
          return est_.SelectCompare(cand, n, n / 2, ElemBytes(a));
        },
        {&a, &b});
    auto r = Run(ranked, {&a, &b}, [&](core::Backend& s) {
      return s.SelectCompareColumns(a, op, b);
    });
    Tag(r.row_ids, last_run_);
    return r;
  }

  // -- Joins ----------------------------------------------------------------

  core::JoinResult NestedLoopsJoin(const DeviceColumn& left_keys,
                                   const DeviceColumn& right_keys) override {
    return JoinImpl(left_keys, right_keys, plan::JoinAlgo::kNestedLoops,
                    DbOperator::kNestedLoopsJoin);
  }

  core::JoinResult HashJoin(const DeviceColumn& left_keys,
                            const DeviceColumn& right_keys) override {
    return JoinImpl(left_keys, right_keys, plan::JoinAlgo::kHash,
                    DbOperator::kHashJoin);
  }

  // -- Aggregation -----------------------------------------------------------

  core::GroupByResult GroupByAggregate(const DeviceColumn& keys,
                                       const DeviceColumn& values,
                                       AggOp op) override {
    const size_t n = keys.size();
    const auto ranked = Rank(
        [&](const std::string& c) {
          return est_.GroupBy(c, n, std::min<size_t>(std::max<size_t>(n, 1),
                                                     128),
                              ElemBytes(values));
        },
        {&keys, &values});
    auto r = Run(ranked, {&keys, &values}, [&](core::Backend& s) {
      return s.GroupByAggregate(keys, values, op);
    });
    Tag(r.keys, last_run_);
    Tag(r.aggregate, last_run_);
    return r;
  }

  double ReduceColumn(const DeviceColumn& values, AggOp op) override {
    const auto ranked = Rank(
        [&](const std::string& c) {
          return est_.Reduce(c, values.size(), ElemBytes(values));
        },
        {&values});
    return Run(ranked, {&values},
               [&](core::Backend& s) { return s.ReduceColumn(values, op); });
  }

  // -- Sorting ---------------------------------------------------------------

  DeviceColumn Sort(const DeviceColumn& column) override {
    const auto ranked = Rank(
        [&](const std::string& c) {
          return est_.Sort(c, column.size(), ElemBytes(column));
        },
        {&column});
    auto r = Run(ranked, {&column},
                 [&](core::Backend& s) { return s.Sort(column); });
    Tag(r, last_run_);
    return r;
  }

  std::pair<DeviceColumn, DeviceColumn> SortByKey(
      const DeviceColumn& keys, const DeviceColumn& values) override {
    const auto ranked = Rank(
        [&](const std::string& c) {
          return est_.SortByKey(c, keys.size(), ElemBytes(keys),
                                ElemBytes(values));
        },
        {&keys, &values});
    auto r = Run(ranked, {&keys, &values}, [&](core::Backend& s) {
      return s.SortByKey(keys, values);
    });
    Tag(r.first, last_run_);
    Tag(r.second, last_run_);
    return r;
  }

  DeviceColumn Unique(const DeviceColumn& column) override {
    const size_t n = column.size();
    const auto ranked = Rank(
        [&](const std::string& c) {
          return est_.Unique(c, n, std::max<size_t>(n / 2, 1),
                             ElemBytes(column));
        },
        {&column});
    auto r = Run(ranked, {&column},
                 [&](core::Backend& s) { return s.Unique(column); });
    Tag(r, last_run_);
    return r;
  }

  // -- Parallel primitives ---------------------------------------------------

  DeviceColumn PrefixSum(const DeviceColumn& column) override {
    // No dedicated estimate; a scan moves about as many bytes as a reduce.
    const auto ranked = Rank(
        [&](const std::string& c) {
          return est_.Reduce(c, column.size(), ElemBytes(column));
        },
        {&column});
    auto r = Run(ranked, {&column},
                 [&](core::Backend& s) { return s.PrefixSum(column); });
    Tag(r, last_run_);
    return r;
  }

  DeviceColumn Gather(const DeviceColumn& src,
                      const DeviceColumn& indices) override {
    const auto ranked = Rank(
        [&](const std::string& c) {
          return est_.Gather(c, indices.size(), ElemBytes(src));
        },
        {&src, &indices});
    auto r = Run(ranked, {&src, &indices},
                 [&](core::Backend& s) { return s.Gather(src, indices); });
    Tag(r, last_run_);
    return r;
  }

  DeviceColumn Scatter(const DeviceColumn& src, const DeviceColumn& indices,
                       size_t out_size) override {
    const auto ranked = Rank(
        [&](const std::string& c) {
          return est_.Gather(c, src.size(), ElemBytes(src));
        },
        {&src, &indices});
    auto r = Run(ranked, {&src, &indices}, [&](core::Backend& s) {
      return s.Scatter(src, indices, out_size);
    });
    Tag(r, last_run_);
    return r;
  }

  DeviceColumn Product(const DeviceColumn& a, const DeviceColumn& b) override {
    const auto ranked = Rank(
        [&](const std::string& cand) {
          return est_.Map(cand, a.size(), ElemBytes(a), 2);
        },
        {&a, &b});
    auto r = Run(ranked, {&a, &b},
                 [&](core::Backend& s) { return s.Product(a, b); });
    Tag(r, last_run_);
    return r;
  }

  DeviceColumn AddScalar(const DeviceColumn& a, double alpha) override {
    const auto ranked = Rank(
        [&](const std::string& cand) {
          return est_.Map(cand, a.size(), ElemBytes(a), 1);
        },
        {&a});
    auto r = Run(ranked, {&a},
                 [&](core::Backend& s) { return s.AddScalar(a, alpha); });
    Tag(r, last_run_);
    return r;
  }

  DeviceColumn SubtractFromScalar(double alpha, const DeviceColumn& a)
      override {
    const auto ranked = Rank(
        [&](const std::string& cand) {
          return est_.Map(cand, a.size(), ElemBytes(a), 1);
        },
        {&a});
    auto r = Run(ranked, {&a}, [&](core::Backend& s) {
      return s.SubtractFromScalar(alpha, a);
    });
    Tag(r, last_run_);
    return r;
  }

 private:
  static uint64_t ElemBytes(const DeviceColumn& c) {
    return storage::DataTypeSize(c.type());
  }

  core::Backend& Sub(const std::string& name) const {
    return *subs_.at(name);
  }

  /// Candidates ordered by `cost` plus per-candidate boundary charges for
  /// foreign inputs, cheapest first; ties break toward the earlier
  /// candidate, so dispatch is deterministic. Candidates whose circuit
  /// breaker denies traffic are dropped — unless that would drop everyone,
  /// in which case the unfiltered ranking is returned (a fully-open board
  /// should still attempt the cheapest option rather than refuse the call).
  template <typename CostFn>
  std::vector<std::string> Rank(
      CostFn cost, const std::vector<const DeviceColumn*>& inputs) const {
    return RankFrom(Candidates(), [&](const std::string& c) {
      uint64_t t = cost(c);
      for (const DeviceColumn* in : inputs) {
        auto it = provenance_.find(in->raw_data());
        if (it != provenance_.end() && it->second != c) {
          t += est_.BoundaryTransfer(c, in->byte_size());
        }
      }
      return t;
    });
  }

  template <typename CostFn>
  std::vector<std::string> RankFrom(const std::vector<std::string>& pool,
                                    CostFn total_cost) const {
    std::vector<std::pair<uint64_t, size_t>> scored;
    scored.reserve(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      scored.emplace_back(total_cost(pool[i]), i);
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<std::string> ranked, allowed;
    ranked.reserve(pool.size());
    for (const auto& [t, i] : scored) {
      (void)t;
      ranked.push_back(pool[i]);
      if (resilience_->Allow(pool[i])) allowed.push_back(pool[i]);
    }
    return allowed.empty() ? ranked : allowed;
  }

  /// Runs `fn` on the ranked candidates with recovery: transient faults
  /// retry on the same candidate (no sleep — operator-level retries are
  /// immediate; backoff lives in the scheduler), OOM reclaims the pool and
  /// retries once, and a candidate that exhausts its budget feeds its
  /// breaker and hands the call to the next-cheapest candidate. The backend
  /// that actually produced the result lands in last_run_ (for provenance
  /// tags). Rethrows the final error when every candidate failed.
  template <typename Fn>
  auto Run(const std::vector<std::string>& ranked,
           const std::vector<const DeviceColumn*>& inputs, Fn fn)
      -> decltype(fn(std::declval<core::Backend&>())) {
    std::exception_ptr last_error;
    for (size_t ci = 0; ci < ranked.size(); ++ci) {
      const std::string& b = ranked[ci];
      if (ci > 0) resilience_->NoteReroute();
      bool reclaimed = false;
      for (int attempt = 1;; ++attempt) {
        try {
          auto result = RunOn(b, inputs, fn);
          resilience_->RecordSuccess(b);
          last_run_ = b;
          return result;
        } catch (...) {
          last_error = std::current_exception();
          const core::ErrorClass cls = core::Classify(last_error);
          resilience_->NoteFaultSeen();
          if (cls == core::ErrorClass::kTransient &&
              attempt < retry_.max_attempts) {
            resilience_->NoteRetry(0);
            continue;
          }
          if (cls == core::ErrorClass::kResource && !reclaimed) {
            stream_.device().TrimPool();
            resilience_->NoteOomReclaim();
            reclaimed = true;
            continue;
          }
          resilience_->RecordFailure(b);
          break;
        }
      }
    }
    std::rethrow_exception(last_error);
  }

  /// One attempt of `fn` on sub-backend `b`: charges boundary copies for
  /// foreign inputs on b's stream, executes, and mirrors b's stream delta
  /// onto the hybrid stream — also on failure, since a faulted attempt's
  /// partial work still consumed device time.
  template <typename Fn>
  auto RunOn(const std::string& b,
             const std::vector<const DeviceColumn*>& inputs, Fn fn)
      -> decltype(fn(std::declval<core::Backend&>())) {
    core::Backend& sub = Sub(b);
    gpusim::Stream& ss = sub.stream();
    const uint64_t t0 = ss.now_ns();
    try {
      for (const DeviceColumn* in : inputs) {
        auto it = provenance_.find(in->raw_data());
        if (it != provenance_.end() && it->second != b) {
          ss.ChargeTransfer(gpusim::Stream::TransferKind::kDeviceToDevice,
                            in->byte_size());
          provenance_[in->raw_data()] = b;  // now materialized on b's side
        }
      }
      auto result = fn(sub);
      stream_.ChargeOverhead(ss.now_ns() - t0);
      return result;
    } catch (...) {
      stream_.ChargeOverhead(ss.now_ns() - t0);
      throw;
    }
  }

  void Tag(const DeviceColumn& col, const std::string& b) {
    if (col.raw_data() != nullptr) provenance_[col.raw_data()] = b;
  }

  core::SelectionResult MultiSelect(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds, bool conjunctive) {
    const size_t n = columns.empty() ? 0 : columns[0]->size();
    uint64_t bytes = 0;
    for (const DeviceColumn* c : columns) bytes += ElemBytes(*c);
    // Ranked without boundary pricing (columns are base-table inputs in
    // every query shape we run; matches the historical dispatch decision).
    const auto ranked = Rank(
        [&](const std::string& c) {
          return est_.Select(c, n, n / 3, bytes, preds.size());
        },
        {});
    auto r = Run(ranked, columns, [&](core::Backend& s) {
      return conjunctive ? s.SelectConjunctive(columns, preds)
                         : s.SelectDisjunctive(columns, preds);
    });
    Tag(r.row_ids, last_run_);
    return r;
  }

  core::JoinResult JoinImpl(const DeviceColumn& left_keys,
                            const DeviceColumn& right_keys,
                            plan::JoinAlgo algo, DbOperator op) {
    // Only capability-matching candidates may run the requested algorithm.
    std::vector<std::string> capable;
    for (const std::string& c : Candidates()) {
      if (Sub(c).Realization(op).level != core::SupportLevel::kNone) {
        capable.push_back(c);
      }
    }
    if (capable.empty()) throw core::UnsupportedOperator(name(), op);
    const size_t nb = left_keys.size(), np = right_keys.size();
    const auto ranked = RankFrom(capable, [&](const std::string& c) {
      uint64_t t = est_.Join(c, algo, nb, np, std::max<size_t>(np / 2, 1));
      for (const DeviceColumn* in : {&left_keys, &right_keys}) {
        auto it = provenance_.find(in->raw_data());
        if (it != provenance_.end() && it->second != c) {
          t += est_.BoundaryTransfer(c, in->byte_size());
        }
      }
      return t;
    });
    auto r = Run(ranked, {&left_keys, &right_keys}, [&](core::Backend& s) {
      return algo == plan::JoinAlgo::kHash
                 ? s.HashJoin(left_keys, right_keys)
                 : s.NestedLoopsJoin(left_keys, right_keys);
    });
    Tag(r.left_rows, last_run_);
    Tag(r.right_rows, last_run_);
    return r;
  }

  /// The candidate the planner would pick for `op` at a nominal workload
  /// (100k rows) — drives the support-matrix / Realization display.
  std::string PreferredFor(DbOperator op) const {
    const size_t n = 100000;
    std::vector<std::string> capable;
    for (const std::string& c : Candidates()) {
      if (Sub(c).Realization(op).level != core::SupportLevel::kNone) {
        capable.push_back(c);
      }
    }
    if (capable.empty()) return Candidates().front();
    std::string best;
    uint64_t best_cost = 0;
    for (const std::string& c : capable) {
      uint64_t t = 0;
      switch (op) {
        case DbOperator::kSelection:
          t = est_.Select(c, n, n / 3, 8, 1);
          break;
        case DbOperator::kConjunction:
        case DbOperator::kDisjunction:
          t = est_.Select(c, n, n / 27, 20, 3);
          break;
        case DbOperator::kNestedLoopsJoin:
          t = est_.Join(c, plan::JoinAlgo::kNestedLoops, 1000, n, n / 2);
          break;
        case DbOperator::kHashJoin:
          t = est_.Join(c, plan::JoinAlgo::kHash, 1000, n, n / 2);
          break;
        case DbOperator::kMergeJoin:
          t = 0;
          break;
        case DbOperator::kGroupedAggregation:
          t = est_.GroupBy(c, n, 128, 8);
          break;
        case DbOperator::kReduction:
          t = est_.Reduce(c, n, 8);
          break;
        case DbOperator::kSortByKey:
          t = est_.SortByKey(c, n, 8, 4);
          break;
        case DbOperator::kSort:
          t = est_.Sort(c, n, 8);
          break;
        case DbOperator::kPrefixSum:
          t = est_.Reduce(c, n, 4);
          break;
        case DbOperator::kScatterGather:
          t = est_.Gather(c, n, 8);
          break;
        case DbOperator::kProduct:
          t = est_.Map(c, n, 8, 2);
          break;
      }
      if (best.empty() || t < best_cost) {
        best = c;
        best_cost = t;
      }
    }
    return best;
  }

  gpusim::Stream stream_;
  plan::CostEstimator est_;
  core::ResilienceManager* resilience_;
  core::RetryPolicy retry_;
  std::string last_run_;  ///< backend that produced the latest Run result
  std::map<std::string, std::unique_ptr<core::Backend>> subs_;
  /// Buffer address -> backend that materialized it. Base-table columns are
  /// absent (shared, no boundary charge).
  std::map<const void*, std::string> provenance_;
};

}  // namespace

std::unique_ptr<core::Backend> CreateHybridBackend() {
  return std::make_unique<HybridBackend>();
}

}  // namespace backends
