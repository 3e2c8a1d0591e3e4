// Shared benchmark scaffolding.
//
// Benchmarks report the *simulated device time* of the measured region as
// google-benchmark manual time (deterministic: a function of launches, bytes
// and compiles — see gpusim/cost_model.h), plus device work counters. Wall
// clock on the host CPU is meaningless for a simulated GPU and is not
// reported.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "core/backend.h"
#include "core/registry.h"
#include "plan/prepared.h"
#include "plan/query_spec.h"
#include "storage/device_column.h"

namespace bench {

/// The four backends in the paper's comparison order.
inline const std::vector<std::string>& AllBackendNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      backends::kArrayFire, backends::kBoostCompute, backends::kThrust,
      backends::kHandwritten};
  return *names;
}

/// Measures one region on the backend's stream and feeds google-benchmark.
class Region {
 public:
  explicit Region(core::Backend& backend)
      : stream_(backend.stream()),
        start_ns_(stream_.now_ns()),
        start_(stream_.device().Snapshot()) {}

  explicit Region(gpusim::Stream& stream)
      : stream_(stream),
        start_ns_(stream.now_ns()),
        start_(stream.device().Snapshot()) {}

  /// Ends the region: records simulated seconds as the iteration's manual
  /// time and accumulates counters on the benchmark state.
  void Stop(benchmark::State& state) {
    const double seconds = (stream_.now_ns() - start_ns_) / 1e9;
    state.SetIterationTime(seconds);
    const auto delta = stream_.device().Snapshot().Delta(start_);
    state.counters["kernels"] += static_cast<double>(delta.kernels_launched);
    state.counters["MiB_moved"] +=
        static_cast<double>(delta.bytes_read + delta.bytes_written +
                            delta.bytes_h2d + delta.bytes_d2h +
                            delta.bytes_d2d) /
        (1024.0 * 1024.0);
    state.counters["programs"] +=
        static_cast<double>(delta.programs_compiled);
    state.counters["pool_hits"] += static_cast<double>(delta.pool_hits);
    state.counters["pool_misses"] += static_cast<double>(delta.pool_misses);
    // Gauge: bytes cached in the device pool at region end (not a delta).
    state.counters["bytes_pooled"] = static_cast<double>(delta.bytes_pooled);
  }

 private:
  gpusim::Stream& stream_;
  uint64_t start_ns_;
  gpusim::CounterSnapshot start_;
};

/// Uniform random int32 column in [0, domain).
inline std::vector<int32_t> UniformInts(size_t n, int32_t domain,
                                        uint32_t seed = 1234) {
  std::mt19937 rng(seed);
  std::vector<int32_t> out(n);
  for (auto& v : out) v = static_cast<int32_t>(rng() % domain);
  return out;
}

/// Uniform random doubles in [0, hi).
inline std::vector<double> UniformDoubles(size_t n, double hi,
                                          uint32_t seed = 1234) {
  std::mt19937 rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = hi * (rng() >> 8) / static_cast<double>(1 << 24);
  return out;
}

inline storage::DeviceColumn Upload(core::Backend& backend,
                                    const std::vector<int32_t>& v) {
  return storage::UploadColumn(backend.stream(), storage::Column(v));
}

inline storage::DeviceColumn Upload(core::Backend& backend,
                                    const std::vector<double>& v) {
  return storage::UploadColumn(backend.stream(), storage::Column(v));
}

/// Times one TPC-H query on a fresh backend `name`: the query registry's plan
/// for `shape`, pinned to that backend, over `host` made resident (raw) on
/// the backend's stream. With `nested_loops` every join is forced onto
/// nested loops before the plan is optimized: the libraries' join
/// realization, run by any backend. One warm-up run fills program caches;
/// each iteration is then one measured Region. Returns the last answer;
/// `upload_ms`, when set, receives the simulated upload time.
inline plan::TpchQueryResult TimeTpchQuery(benchmark::State& state,
                                           const std::string& name,
                                           const plan::QueryShape& shape,
                                           const plan::TpchHostTables& host,
                                           bool nested_loops = false,
                                           double* upload_ms = nullptr) {
  auto backend = core::BackendRegistry::Instance().Create(name);
  const uint64_t upload_start_ns = backend->stream().now_ns();
  const std::shared_ptr<const plan::ResidentTpchTables> resident =
      plan::MakeResident(backend->stream(), host, /*use_encoding=*/false);
  if (upload_ms != nullptr) {
    *upload_ms = (backend->stream().now_ns() - upload_start_ns) / 1e6;
  }
  std::function<plan::TpchQueryResult()> run;
  if (nested_loops) {
    auto bundle = std::make_shared<plan::QueryPlanBundle>(
        plan::GetQuerySpec(shape.query)
            .build({&resident->lineitem, &resident->orders,
                    &resident->customer, &resident->part},
                   shape));
    for (plan::PlanNode& node : bundle->plan.nodes) {
      if (node.kind == plan::NodeKind::kJoin) {
        node.join_algo = plan::JoinAlgo::kNestedLoops;
      }
    }
    plan::OptimizerOptions pin;
    pin.pin_backend = name;
    run = [&, bundle, phys = plan::Optimize(bundle->plan, pin)] {
      return plan::ExtractResult(shape.query, *bundle,
                                 plan::RunPinned(phys, *backend), shape);
    };
  } else {
    run = [&, prepared = plan::PrepareTpchQuery(shape, resident, name)] {
      return prepared->Run(*backend);
    };
  }
  plan::TpchQueryResult result = run();  // warm program caches
  for (auto _ : state) {
    Region region(*backend);
    result = run();
    region.Stop(state);
  }
  return result;
}

/// Standard main: register built-ins, then run.
#define BENCH_MAIN()                                   \
  int main(int argc, char** argv) {                    \
    core::RegisterBuiltinBackends();                    \
    bench::RegisterBenchmarks();                        \
    benchmark::Initialize(&argc, argv);                 \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    benchmark::RunSpecifiedBenchmarks();                \
    benchmark::Shutdown();                              \
    return 0;                                           \
  }

}  // namespace bench

#endif  // BENCH_BENCH_COMMON_H_
