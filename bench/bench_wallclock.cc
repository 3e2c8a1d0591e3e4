// Host wall-clock throughput of the gpusim primitive hot paths.
//
// Unlike every other bench in this directory, this one reports *real* time:
// it measures what the simulator itself costs on the host (allocator,
// kernel-launch dispatch, thread-pool rendezvous), which bounds how fast the
// whole suite can run. Simulated time is charged as usual but not reported.
// Pool allocator effectiveness shows up as the pool_hits / pool_misses
// counters: after the first iteration every scratch buffer of the multi-pass
// primitives should be served from the device pool.
//
// GroupByFewKeys, GroupByManyKeys and SelectDense time the handwritten
// kernels whose device atomics run chunk-privatized on the host: four groups
// (every chunk combines into the same slots), n/2 groups (every chunk
// overflows its private table) and a 98%-selective atomic-ticket selection.
#include "bench_common.h"

#include "gpusim/algorithms.h"
#include "handwritten/handwritten.h"

namespace bench {

enum class HotPath {
  kReduce,
  kScan,
  kSort,
  kCompact,
  kAllocFree,
  kGroupByFewKeys,
  kGroupByManyKeys,
  kSelectDense
};

const char* HotPathName(HotPath p) {
  switch (p) {
    case HotPath::kReduce: return "Reduce";
    case HotPath::kScan: return "Scan";
    case HotPath::kSort: return "Sort";
    case HotPath::kCompact: return "Compact";
    case HotPath::kAllocFree: return "AllocFree";
    case HotPath::kGroupByFewKeys: return "GroupByFewKeys";
    case HotPath::kGroupByManyKeys: return "GroupByManyKeys";
    case HotPath::kSelectDense: return "SelectDense";
  }
  return "?";
}

void WallClockBench(benchmark::State& state, HotPath path) {
  const size_t n = static_cast<size_t>(state.range(0));
  gpusim::Device device;  // fresh device: pool warms up during the run
  gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());

  const auto ints = UniformInts(n, 1 << 20);
  gpusim::DeviceArray<int32_t> in = gpusim::ToDevice(stream, ints, device);
  gpusim::DeviceArray<int32_t> out(n, device);
  gpusim::DeviceArray<int32_t> keys(n, device);
  const bool group_by = path == HotPath::kGroupByFewKeys ||
                        path == HotPath::kGroupByManyKeys;
  gpusim::DeviceArray<int32_t> group_keys = gpusim::ToDevice(
      stream,
      group_by ? UniformInts(n, path == HotPath::kGroupByFewKeys
                                    ? 4
                                    : static_cast<int32_t>(n / 2))
               : std::vector<int32_t>(),
      device);
  gpusim::DeviceArray<uint32_t> rows(n, device);
  const int32_t dense_threshold = (1 << 20) / 50 * 49;  // ~98% of the domain

  const auto start = device.Snapshot();
  for (auto _ : state) {
    switch (path) {
      case HotPath::kReduce:
        benchmark::DoNotOptimize(gpusim::Reduce(
            stream, in.data(), n, int32_t{0},
            [](int32_t a, int32_t b) { return a + b; }));
        break;
      case HotPath::kScan:
        gpusim::InclusiveScan(stream, in.data(), out.data(), n,
                              [](int32_t a, int32_t b) { return a + b; });
        break;
      case HotPath::kSort:
        gpusim::CopyDeviceToDevice(stream, keys.data(), in.data(),
                                   n * sizeof(int32_t));
        gpusim::RadixSortKeys(stream, keys.data(), n);
        break;
      case HotPath::kCompact:
        benchmark::DoNotOptimize(
            gpusim::CopyIf(stream, in.data(), n, out.data(),
                           [](int32_t v) { return (v & 1) == 0; }));
        break;
      case HotPath::kAllocFree: {
        // Pure allocator churn at the scratch sizes the primitives use.
        gpusim::DeviceArray<uint32_t> a(n / 1024 + 1, device);
        gpusim::DeviceArray<uint32_t> b(n, device);
        benchmark::DoNotOptimize(a.data());
        benchmark::DoNotOptimize(b.data());
        break;
      }
      case HotPath::kGroupByFewKeys:
      case HotPath::kGroupByManyKeys:
        benchmark::DoNotOptimize(
            handwritten::HashGroupByReduce(
                stream, group_keys.data(), in.data(), n, int32_t{0},
                [](int32_t a, int32_t b) { return a < b ? b : a; })
                .num_groups);
        break;
      case HotPath::kSelectDense:
        benchmark::DoNotOptimize(handwritten::SelectIndices(
            stream, in.data(), n, rows.data(),
            [=](int32_t v) { return v < dense_threshold; }));
        break;
    }
  }
  const auto delta = device.Snapshot().Delta(start);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.counters["pool_hits"] = static_cast<double>(delta.pool_hits);
  state.counters["pool_misses"] = static_cast<double>(delta.pool_misses);
  state.counters["bytes_pooled"] = static_cast<double>(delta.bytes_pooled);
  state.counters["hit_rate"] =
      delta.pool_hits + delta.pool_misses > 0
          ? static_cast<double>(delta.pool_hits) /
                static_cast<double>(delta.pool_hits + delta.pool_misses)
          : 0.0;
}

void RegisterBenchmarks() {
  for (const HotPath path :
       {HotPath::kReduce, HotPath::kScan, HotPath::kSort, HotPath::kCompact,
        HotPath::kAllocFree, HotPath::kGroupByFewKeys,
        HotPath::kGroupByManyKeys, HotPath::kSelectDense}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("WallClock/") + HotPathName(path)).c_str(),
        [path](benchmark::State& s) { WallClockBench(s, path); });
    for (const int64_t n : {1 << 14, 1 << 20}) b->Arg(n);
  }
}

}  // namespace bench

BENCH_MAIN()
