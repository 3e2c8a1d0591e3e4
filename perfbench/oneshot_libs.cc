// oneshot_libs: the paper's experiment. Every query runs on every library
// through plan::RunGoverned, on a fresh backend, from host tables, encoded,
// on one thread — so each execution pays upload, encoding, footprint
// estimate and optimize. The only workload that exercises all four library
// sims (plus Hybrid); it bypasses serve and the core scheduler.
#include <cstdio>
#include <functional>
#include <memory>

#include "common.h"
#include "core/registry.h"

namespace perfbench {
namespace {

constexpr double kScaleFactor = 0.02;

struct Lib {
  const char* name;  ///< registry name
  const char* key;   ///< metric suffix
};
constexpr Lib kLibs[] = {{"Thrust", "thrust"},
                         {"Boost.Compute", "boost"},
                         {"ArrayFire", "arrayfire"},
                         {"Handwritten", "handwritten"},
                         {"Hybrid", "hybrid"}};
constexpr size_t kNumLibs = std::size(kLibs);
constexpr size_t kNumQueries = std::size(kQueries);
constexpr size_t kNumCells = kNumLibs * kNumQueries;  ///< cell = lib x query

/// Simulated figures of one (library, query) cell; identical on every
/// execution (the exactness ledger checks that).
struct CellStats {
  uint64_t sim_ns = 0;
  gpusim::CounterSnapshot delta;  ///< device counters of one execution
};

struct Phase {
  SweepWalls walls{kNumCells};
  std::vector<CellStats> cells = std::vector<CellStats>(kNumCells);
  std::vector<double> footprint_ms;
};

Dataset SetUp(uint64_t seed, RunResult* result) {
  Dataset s = MakeDataset(kScaleFactor, seed);
  // Warm-up: one cheap query, so lazily spawned device threads and first-
  // touch page faults stay out of the timed region.
  const auto backend = core::BackendRegistry::Instance().Create("Handwritten");
  plan::GovernedQueryOptions options;
  options.use_encoding = true;
  const plan::TpchQueryResult warm = plan::RunGoverned(
      plan::TpchQuery::kQ6, s.data.tables(), *backend, options);
  ++result->outcomes.attempted;
  std::string why;
  if (!Verify(plan::TpchQuery::kQ6, warm, s.ref, &why)) {
    ++result->outcomes.wrong;
    result->Error("warm-up: " + why);
  }
  return s;
}

Phase Measure(const Dataset& s, double seconds, SplitMix64& rng, SpanLog* log,
              RunResult* result,
              const std::function<void()>& between_passes = {}) {
  Phase phase;
  gpusim::Device& device = gpusim::Device::Default();
  const plan::TpchHostTables tables = s.data.tables();
  phase.walls = RunSweep(kNumCells, seconds, rng, [&](size_t cell) -> double {
    const Lib& lib = kLibs[cell / kNumQueries];
    const plan::TpchQuery q = kQueries[cell % kNumQueries];
    const std::string label =
        std::string(lib.key) + "." + plan::TpchQueryName(q);
    plan::GovernedQueryOptions options;
    options.use_encoding = true;
    ++result->outcomes.attempted;
    Scoped span(log, "oneshot.cell");
    if (log != nullptr) {
      const auto t0 = Clock::now();
      Scoped estimate(log, "plan.footprint_estimate", span.id());
      (void)plan::EstimateQueryFootprint(q, tables, lib.name, 1, true);
      phase.footprint_ms.push_back(MsSince(t0));
    }
    const gpusim::CounterSnapshot before = device.Snapshot();
    const auto t0 = Clock::now();
    plan::TpchQueryResult got;
    double wall = 0;
    try {
      Scoped run(log, "plan.run_governed", span.id());
      const auto backend = core::BackendRegistry::Instance().Create(lib.name);
      plan::GovernedRunStats stats;
      got = plan::RunGoverned(q, tables, *backend, options, &stats);
      wall = MsSince(t0);
      CellStats& c = phase.cells[cell];
      c.sim_ns = stats.simulated_ns;
      c.delta = device.Snapshot().Delta(before);
      result->Exact(label + ".sim_ns", stats.simulated_ns);
      result->Exact(label + ".kernels", c.delta.kernels_launched);
      result->Exact(label + ".dram_bytes",
                    c.delta.bytes_read + c.delta.bytes_written);
    } catch (const std::exception& e) {
      ++result->outcomes.error;
      result->Error(label + ": " + e.what());
      return -1;
    }
    std::string why;
    if (!Verify(q, got, s.ref, &why)) {
      ++result->outcomes.wrong;
      result->Error(label + ": " + why);
      return -1;
    }
    return wall;
  }, between_passes);
  return phase;
}

double SimMs(const CellStats& c) { return static_cast<double>(c.sim_ns) / 1e6; }

/// sim_geomean_ms.<lib>: the geometric mean over the five queries of each
/// library's simulated ms. Exact, so the untraced and traced runs agree.
void SetLibSimGeomeans(const Phase& phase, RunResult* result) {
  for (size_t l = 0; l < kNumLibs; ++l) {
    std::vector<double> sims;
    for (size_t qi = 0; qi < kNumQueries; ++qi) {
      sims.push_back(SimMs(phase.cells[l * kNumQueries + qi]));
    }
    result->Set(std::string("sim_geomean_ms.") + kLibs[l].key, GeoMean(sims),
                "ms");
  }
}

void SetEndToEnd(const Phase& phase, RunResult* result) {
  if (phase.walls.WallGeomean() <= 0) return;
  std::vector<double> sims;
  for (const CellStats& c : phase.cells) sims.push_back(SimMs(c));
  SetSweepEndToEnd(
      phase.walls, GeoMean(sims),
      static_cast<double>(gpusim::Device::Default().peak_bytes()) / kMiB,
      result);
  SetLibSimGeomeans(phase, result);
}

void SetLayers(const Phase& phase, RunResult* result) {
  if (phase.walls.WallGeomean() <= 0) return;
  const gpusim::Device& device = gpusim::Device::Default();
  for (size_t l = 0; l < kNumLibs; ++l) {
    const std::string key = kLibs[l].key;
    uint64_t kernels = 0, dram = 0, compile_ns = 0;
    std::vector<double> walls;
    for (size_t qi = 0; qi < kNumQueries; ++qi) {
      const size_t cell = l * kNumQueries + qi;
      const CellStats& c = phase.cells[cell];
      const double wall = Median(phase.walls.per_cell[cell]);
      kernels += c.delta.kernels_launched;
      dram += c.delta.bytes_read + c.delta.bytes_written;
      compile_ns += c.delta.compile_ns;
      walls.push_back(wall);
      const std::string q = plan::TpchQueryName(kQueries[qi]);
      if (key == "handwritten") {
        result->Set("gpusim.roofline_frac." + q,
                    RooflineFrac(c.delta, c.sim_ns, device), "ratio");
        result->Set("plan.run_wall_ms." + q, wall, "ms");
      } else if (key == "hybrid") {
        result->Set("gpusim.roofline_frac.hybrid_" + q,
                    RooflineFrac(c.delta, c.sim_ns, device), "ratio");
      }
    }
    result->Set("backend.kernels." + key, static_cast<double>(kernels),
                "count");
    result->Set("backend.dram_mib." + key, static_cast<double>(dram) / kMiB,
                "MiB");
    result->Set("backend.wall_ms." + key, GeoMean(walls), "ms");
    if (key == "boost") {
      result->Set("backend.compile_ms.boost",
                  static_cast<double>(compile_ns) / 1e6, "ms");
    }
  }
  SetLibSimGeomeans(phase, result);
  if (!phase.footprint_ms.empty()) {
    result->Set("plan.footprint_estimate_ms", Median(phase.footprint_ms), "ms");
  }
}

}  // namespace

RunResult RunOneshotLibs(const RunOptions& options) {
  RunResult result;
  SetupTimes setups;
  const auto set_up = [&] { return SetUp(options.seed, &result); };
  const std::function<void()> set_up_again = [&] {
    (void)setups.Time(set_up);
  };
  const Dataset s = setups.Time(set_up);
  SplitMix64 rng(options.seed);

  if (!options.trace) {
    const Phase phase =
        Measure(s, options.seconds, rng, nullptr, &result, set_up_again);
    SetEndToEnd(phase, &result);
    setups.SetMetric(&result);
    return result;
  }

  // Traced run: an untraced half, then a traced half; the per-layer numbers
  // come from the traced half and the difference is the tracing overhead.
  const Phase plain =
      Measure(s, options.seconds / 2, rng, nullptr, &result, set_up_again);
  SpanLog log;
  gpusim::Device& device = gpusim::Device::Default();
  const std::vector<DeviceProbe> before = {Probe(device)};
  const Phase traced = Measure(s, options.seconds / 2, rng, &log, &result);
  SetGpusimMetrics(&result, {&device}, before, traced.walls.elapsed_s);
  SetLayers(traced, &result);
  result.Set("tpch.datagen_s", Median(setups.datagen), "s");
  result.Set("tpch.reference_s", Median(setups.reference), "s");
  ProbeStorage(s.data.tables(), /*use_encoding=*/true, &log, &result);
  ProbePlan(s.data.tables(), /*use_encoding=*/true, nullptr, &log, &result);
  SetTraceOverhead(plain.walls.WallGeomean(), traced.walls.WallGeomean(), log,
                   options, &result);
  return result;
}

}  // namespace perfbench
