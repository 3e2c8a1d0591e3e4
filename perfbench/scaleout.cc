// scaleout: the working set outgrows one device. Handwritten, raw columns,
// sf 0.2. Each query runs plan::RunSharded on a 4-device DeviceGroup, then
// plan::RunGoverned on one device whose capacity is clamped to 25% of that
// query's estimated footprint (spill, K > 1). The only user of exchange and
// DeviceGroup; bypasses serve and encoding.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "common.h"
#include "core/registry.h"
#include "gpusim/device_group.h"
#include "plan/exchange.h"

namespace perfbench {
namespace {

constexpr double kScaleFactor = 0.2;
constexpr int kDevices = 4;
constexpr double kSpillCapacityShare = 0.25;
constexpr const char* kBackend = "Handwritten";
constexpr size_t kNumQueries = std::size(kQueries);
constexpr size_t kNumCells = 2 * kNumQueries;  ///< sharded, then spill

/// Simulated figures of one cell; identical on every execution.
struct CellStats {
  uint64_t sim_ns = 0;
  plan::ShardedRunStats sharded;
  plan::GovernedRunStats spill;
  gpusim::CounterSnapshot delta;  ///< spill device counters of one run
};

struct Phase {
  SweepWalls walls{kNumCells};
  std::vector<CellStats> cells = std::vector<CellStats>(kNumCells);
  std::vector<double> footprint_ms;
};

/// The devices every run uses, created once: a 4-device group for sharding
/// and a separate device for the clamped spill runs.
struct Devices {
  gpusim::DeviceGroup group{kDevices};
  gpusim::Device spill;
  std::vector<gpusim::Device*> all() {
    std::vector<gpusim::Device*> out;
    for (int i = 0; i < group.size(); ++i) out.push_back(&group.device(i));
    out.push_back(&spill);
    return out;
  }
};

std::string CellLabel(size_t cell) {
  return std::string(cell < kNumQueries ? "sharded4." : "spill.") +
         plan::TpchQueryName(kQueries[cell % kNumQueries]);
}

/// Runs one cell; returns the host wall in ms, or a negative value when the
/// run failed (counted in `result`).
double RunCell(size_t cell, const Dataset& s, Devices& d, CellStats& c,
               SpanLog* log, std::vector<double>* footprint_ms,
               RunResult* result) {
  const plan::TpchQuery q = kQueries[cell % kNumQueries];
  const plan::TpchHostTables tables = s.data.tables();
  const std::string label = CellLabel(cell);
  ++result->outcomes.attempted;
  plan::TpchQueryResult got;
  double wall = 0;
  try {
    if (cell < kNumQueries) {
      Scoped span(log, "plan.run_sharded");
      const auto t0 = Clock::now();
      got = plan::RunSharded(q, tables, d.group, kBackend, {}, &c.sharded);
      wall = MsSince(t0);
      c.sim_ns = c.sharded.simulated_ns;
      result->Exact(label + ".exchange_bytes", c.sharded.exchange_bytes);
      result->Exact(label + ".broadcast_bytes", c.sharded.broadcast_bytes);
    } else {
      Scoped span(log, "plan.run_governed_spill");
      gpusim::Device::DeviceGuard guard(d.spill);
      const auto t0 = Clock::now();
      uint64_t footprint = 0;
      {
        Scoped estimate(log, "plan.footprint_estimate", span.id());
        footprint = plan::EstimateQueryFootprint(q, tables, kBackend);
      }
      if (footprint_ms != nullptr) footprint_ms->push_back(MsSince(t0));
      d.spill.TrimPool();
      d.spill.set_memory_capacity(static_cast<size_t>(
          kSpillCapacityShare * static_cast<double>(footprint)));
      const gpusim::CounterSnapshot before = d.spill.Snapshot();
      const auto backend = core::BackendRegistry::Instance().Create(kBackend);
      got = plan::RunGoverned(q, tables, *backend, {}, &c.spill);
      wall = MsSince(t0);
      c.delta = d.spill.Snapshot().Delta(before);
      c.sim_ns = c.spill.simulated_ns;
      result->Exact(label + ".partitions", c.spill.partitions);
      result->Exact(label + ".h2d_bytes", c.spill.spill_h2d_bytes);
      result->Exact(label + ".oom_fallbacks", c.spill.oom_fallbacks);
    }
    result->Exact(label + ".sim_ns", c.sim_ns);
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
}

Phase Measure(const Dataset& s, Devices& d, double seconds, SplitMix64& rng,
              SpanLog* log, RunResult* result,
              const std::function<void()>& between_passes = {}) {
  Phase phase;
  phase.walls = RunSweep(kNumCells, seconds, rng, [&](size_t cell) {
    return RunCell(cell, s, d, phase.cells[cell], log,
                   log ? &phase.footprint_ms : nullptr, result);
  }, between_passes);
  return phase;
}

double SimGeomean(const Phase& phase, size_t first, size_t last) {
  std::vector<double> sims;
  for (size_t i = first; i < last; ++i) {
    sims.push_back(static_cast<double>(phase.cells[i].sim_ns) / 1e6);
  }
  return GeoMean(sims);
}

/// sim_geomean_ms.sharded4 and .spill. Exact, so the untraced and traced
/// runs agree.
void SetConfigSimGeomeans(const Phase& phase, RunResult* result) {
  result->Set("sim_geomean_ms.sharded4", SimGeomean(phase, 0, kNumQueries),
              "ms");
  result->Set("sim_geomean_ms.spill",
              SimGeomean(phase, kNumQueries, kNumCells), "ms");
}

double PeakMiB(Devices& d) {
  uint64_t peak = 0;
  for (gpusim::Device* dev : d.all()) peak = std::max(peak, dev->peak_bytes());
  return static_cast<double>(peak) / kMiB;
}

void SetEndToEnd(const Phase& phase, Devices& d, RunResult* result) {
  if (phase.walls.WallGeomean() <= 0) return;
  SetSweepEndToEnd(phase.walls, SimGeomean(phase, 0, kNumCells), PeakMiB(d),
                   result);
  SetConfigSimGeomeans(phase, result);
}

/// Per-layer figures of the traced half, plus one single-device run per
/// query as the scaling-efficiency baseline.
void SetLayers(const Phase& phase, const Dataset& s, Devices& d, SpanLog* log,
               RunResult* result) {
  if (phase.walls.WallGeomean() <= 0) return;
  uint64_t exchange = 0, broadcast = 0, partitions = 0, h2d = 0, fallbacks = 0;
  gpusim::DeviceGroup one(1);
  for (size_t qi = 0; qi < kNumQueries; ++qi) {
    const std::string q = plan::TpchQueryName(kQueries[qi]);
    const CellStats& sharded = phase.cells[qi];
    const CellStats& spill = phase.cells[kNumQueries + qi];
    exchange += sharded.sharded.exchange_bytes;
    broadcast += sharded.sharded.broadcast_bytes;
    partitions += spill.spill.partitions;
    h2d += spill.spill.spill_h2d_bytes;
    fallbacks += spill.spill.oom_fallbacks;
    result->Set("plan.run_wall_ms." + q, Median(phase.walls.per_cell[qi]),
                "ms");
    result->Set("gpusim.roofline_frac." + q,
                RooflineFrac(spill.delta, spill.sim_ns, d.spill), "ratio");
    plan::ShardedRunStats base;
    {
      Scoped span(log, "plan.run_sharded_1dev");
      const plan::TpchQueryResult got = plan::RunSharded(
          kQueries[qi], s.data.tables(), one, kBackend, {}, &base);
      std::string why;
      ++result->outcomes.attempted;
      if (!Verify(kQueries[qi], got, s.ref, &why)) {
        ++result->outcomes.wrong;
        result->Error("1-device " + q + ": " + why);
      }
    }
    result->Exact("sharded1." + q + ".sim_ns", base.simulated_ns);
    result->Set("plan.sharded.scaling_eff." + q,
                static_cast<double>(base.simulated_ns) /
                    (kDevices * static_cast<double>(sharded.sim_ns)),
                "ratio");
  }
  result->Set("plan.sharded.exchange_bytes", static_cast<double>(exchange),
              "bytes");
  result->Set("plan.sharded.broadcast_bytes", static_cast<double>(broadcast),
              "bytes");
  result->Set("plan.spill.partitions", static_cast<double>(partitions),
              "count");
  result->Set("plan.spill.h2d_bytes", static_cast<double>(h2d), "bytes");
  result->Set("plan.spill.oom_fallbacks", static_cast<double>(fallbacks),
              "count");
  SetConfigSimGeomeans(phase, result);
  if (!phase.footprint_ms.empty()) {
    result->Set("plan.footprint_estimate_ms", Median(phase.footprint_ms),
                "ms");
  }
}

}  // namespace

RunResult RunScaleout(const RunOptions& options) {
  RunResult result;
  Devices d;
  SetupTimes setups;
  const auto set_up = [&] {
    Dataset fresh = MakeDataset(kScaleFactor, options.seed);
    // Warm-up: one sharded Q6 spawns every device's worker threads.
    CellStats warm;
    (void)RunCell(3, fresh, d, warm, nullptr, nullptr, &result);
    return fresh;
  };
  const std::function<void()> set_up_again = [&] {
    (void)setups.Time(set_up);
  };
  const Dataset s = setups.Time(set_up);
  SplitMix64 rng(options.seed);

  if (!options.trace) {
    const Phase phase =
        Measure(s, d, options.seconds, rng, nullptr, &result, set_up_again);
    SetEndToEnd(phase, d, &result);
    setups.SetMetric(&result);
    return result;
  }

  const Phase plain = Measure(s, d, options.seconds / 2, rng, nullptr,
                              &result, set_up_again);
  SpanLog log;
  const std::vector<gpusim::Device*> devices = d.all();
  std::vector<DeviceProbe> before;
  for (gpusim::Device* dev : devices) before.push_back(Probe(*dev));
  const Phase traced = Measure(s, d, options.seconds / 2, rng, &log, &result);
  SetGpusimMetrics(&result, devices, before, traced.walls.elapsed_s);
  SetLayers(traced, s, d, &log, &result);
  ProbeStorage(s.data.tables(), /*use_encoding=*/false, &log, &result);
  ProbePlan(s.data.tables(), /*use_encoding=*/false, nullptr, &log, &result);
  result.Set("tpch.datagen_s", Median(setups.datagen), "s");
  result.Set("tpch.reference_s", Median(setups.reference), "s");
  SetTraceOverhead(plain.walls.WallGeomean(), traced.walls.WallGeomean(), log,
                   options, &result);
  return result;
}

}  // namespace perfbench
