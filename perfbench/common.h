// Shared pieces of the perfbench workloads: host references and answer
// checks, the run result every workload fills, the exactness ledger of
// simulated figures, and the span log of the traced run.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "metrics.h"
#include "plan/partition.h"
#include "storage/table.h"
#include "tpch/queries.h"

namespace perfbench {

/// The five TPC-H queries every workload runs, in a fixed order.
inline constexpr plan::TpchQuery kQueries[] = {
    plan::TpchQuery::kQ1, plan::TpchQuery::kQ3, plan::TpchQuery::kQ4,
    plan::TpchQuery::kQ6, plan::TpchQuery::kQ14};

/// Host-side TPC-H tables generated from one (scale factor, seed).
struct HostData {
  storage::Table lineitem;
  storage::Table orders;
  storage::Table customer;
  storage::Table part;
  plan::TpchHostTables tables() const;
};

HostData Generate(double scale_factor, uint64_t seed);

/// Host-reference answers (tpch::Reference*) for one dataset.
struct References {
  std::vector<tpch::Q1Row> q1;
  std::vector<tpch::Q3Row> q3;
  std::vector<tpch::Q4Row> q4;
  double q6 = 0;
  double q14 = 0;
};

References ComputeReferences(const storage::Table& lineitem,
                             const storage::Table& orders,
                             const storage::Table& customer,
                             const storage::Table& part);

/// A generated dataset with its references and how long each took.
struct Dataset {
  HostData data;
  References ref;
  double datagen_s = 0;
  double reference_s = 0;
};

Dataset MakeDataset(double scale_factor, uint64_t seed);

/// Keys and counts must match exactly; float sums may be re-associated by a
/// device plan and compare with the serving bench's Near() tolerance.
bool Verify(plan::TpchQuery q, const plan::TpchQueryResult& got,
            const References& ref, std::string* why);

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One completed span of the traced run: a benchmark-side call into a layer.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t thread = 0;  ///< hash of the recording thread's id
  double start_ms = 0;  ///< since the span log's origin
  double end_ms = 0;
};

/// In-memory span log, written out when the run ends. Thread-safe. A
/// workload run untraced holds no log at all (SpanLog* == nullptr), so the
/// off path costs one pointer test per call site.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  uint64_t Begin() { return next_id_++; }
  double Now() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }
  void Record(Span span);

  size_t size() const;

  /// Chrome-trace JSON (chrome://tracing, Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
  std::atomic<uint64_t> next_id_{1};
};

/// RAII span; a no-op when `log` is null.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, uint64_t parent = 0);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  const char* name_;  ///< a string literal
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  double start_ms_ = 0;
};

/// A metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct RunResult {
  Outcomes outcomes;
  /// Untraced: the end-to-end metrics plus the workload's own figures of
  /// the summary table (sample counts, per-configuration simulated
  /// geomeans, the interactive tail). Traced: the per-layer metrics.
  /// run.py keeps the names BENCHMARK.json lists.
  std::map<std::string, Metric> metrics;
  /// Simulated figures that must repeat bit-for-bit at a fixed seed,
  /// printed exactly (integers) for the cross-run ledger.
  std::map<std::string, uint64_t> exact;
  /// Drift seen inside this run: a cell whose simulated figures differed
  /// between two executions. Each entry is a failure, not noise.
  std::vector<std::string> drift;
  /// Human-readable report lines (sample counts, the full metric table).
  std::vector<std::string> notes;
  std::string first_error;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
  void Error(const std::string& what) {
    if (first_error.empty()) first_error = what;
  }
  /// Records `value` under `name` in the exactness ledger; a second record
  /// of the same name with another value is drift.
  void Exact(const std::string& name, uint64_t value);
};

/// Set-up repetitions per run; setup_s is their median. serve_mix sets up
/// this many times before its timed region. The sweep workloads set up once
/// before it and then between passes (RunSweep): host speed on a shared
/// machine drifts over seconds, and set-ups spread over the run sample the
/// same stretch of time as the wall metrics, where back-to-back ones sample
/// a single moment of it.
inline constexpr int kSetups = 7;

/// The set-ups of one run: the seconds each took in all, and in datagen and
/// host references.
struct SetupTimes {
  std::vector<double> total, datagen, reference;

  /// Runs `set_up`, which returns the workload's Dataset, and records it.
  template <typename SetUp>
  Dataset Time(SetUp&& set_up) {
    const auto t0 = Clock::now();
    Dataset d = set_up();
    total.push_back(MsSince(t0) / 1e3);
    datagen.push_back(d.datagen_s);
    reference.push_back(d.reference_s);
    return d;
  }

  /// Sets setup_s, the median of the totals, and notes how many there were.
  void SetMetric(RunResult* result) const;
};

/// Options every workload receives.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace path for the traced run
};

/// Small deterministic generator for query order.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Fisher-Yates shuffle driven by this generator.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Next() % i]);
    }
  }

 private:
  uint64_t state_;
};

/// Host walls of a sweep workload: whole passes over a fixed set of cells,
/// each pass in a seeded order, so every cell runs equally often.
struct SweepWalls {
  explicit SweepWalls(size_t cells) : per_cell(cells) {}
  std::vector<std::vector<double>> per_cell;  ///< ms, by cell
  std::vector<double> all;                    ///< ms, every execution
  std::vector<double> pass_qps;               ///< executions/s of each pass
  double elapsed_s = 0;

  /// Geometric mean over cells of each cell's median (0 if a cell never
  /// completed).
  double WallGeomean() const;
};

/// Runs passes until `seconds` of pass time have elapsed (at least one).
/// `run(cell)` executes one cell and returns its host wall in ms, or a
/// negative value when it failed. `between_passes`, when given, runs after a
/// pass whenever another `seconds / kSetups` of pass time has gone by; its
/// own time counts neither in the passes nor in `seconds`.
template <typename RunCell>
SweepWalls RunSweep(size_t cells, double seconds, SplitMix64& rng,
                    RunCell&& run,
                    const std::function<void()>& between_passes = {}) {
  SweepWalls walls(cells);
  std::vector<size_t> order(cells);
  for (size_t i = 0; i < cells; ++i) order[i] = i;
  const double interval_ms = seconds * 1e3 / kSetups;
  double pass_ms = 0, next_between_ms = interval_ms;
  do {
    rng.Shuffle(order);
    const auto pass_start = Clock::now();
    size_t done = 0;
    for (const size_t cell : order) {
      const double ms = run(cell);
      if (ms < 0) continue;
      walls.per_cell[cell].push_back(ms);
      walls.all.push_back(ms);
      ++done;
    }
    const double ms = MsSince(pass_start);
    pass_ms += ms;
    walls.pass_qps.push_back(static_cast<double>(done) * 1e3 / ms);
    if (between_passes && pass_ms >= next_between_ms) {
      between_passes();
      next_between_ms = pass_ms + interval_ms;
    }
  } while (pass_ms < seconds * 1e3);
  walls.elapsed_s = pass_ms / 1e3;
  return walls;
}

/// The end-to-end metrics of a sweep workload. qps is the median pass's
/// throughput and latency_p50_ms the median over cells of each cell's
/// median, so one disturbed pass or a straddled gap between two cells'
/// latencies does not move them; the tail is over every execution.
void SetSweepEndToEnd(const SweepWalls& walls, double sim_geomean_ms,
                      double peak_mib, RunResult* result);

/// Counters of one device at one instant, for gpusim-layer deltas.
struct DeviceProbe {
  gpusim::CounterSnapshot counters;
  gpusim::ThreadPoolStats pool;
};

DeviceProbe Probe(gpusim::Device& device);

/// Fills the gpusim.* kernel-rate, pool and thread-pool metrics from the
/// deltas of `devices` since `before` (same order) over `wall_s` seconds.
void SetGpusimMetrics(RunResult* result,
                      const std::vector<gpusim::Device*>& devices,
                      const std::vector<DeviceProbe>& before, double wall_s);

/// Share of the device's modeled DRAM bandwidth a region achieved:
/// (bytes read + written) / (simulated ns x memory_bandwidth_bps).
double RooflineFrac(const gpusim::CounterSnapshot& delta, uint64_t sim_ns,
                    const gpusim::Device& device);

constexpr double kMiB = 1024.0 * 1024.0;

/// Times the upload of each table in the workload's residency format
/// (storage::UploadTableEncoded or storage::UploadTable) and
/// storage::AnalyzeColumn over every column, median of three, on the default
/// device; sets the shipped / raw byte ratio of the upload (1 when raw).
void ProbeStorage(const plan::TpchHostTables& tables, bool use_encoding,
                  SpanLog* log, RunResult* result);

/// Times plan::EstimateQueryFootprint for each query (median of three) and
/// sets the median over the queries, for a workload whose own runs never
/// call it.
void ProbeFootprintEstimate(const plan::TpchHostTables& tables,
                            bool use_encoding, SpanLog* log,
                            RunResult* result);

/// Times plan::PrepareTpchQuery per query over a Handwritten residency of
/// `tables` (median of three). With `ref`, also times PreparedTpchQuery::Run
/// per query (plan.run_wall_ms), checks its answer, and takes each query's
/// roofline fraction from the run's counter delta.
void ProbePlan(const plan::TpchHostTables& tables, bool use_encoding,
               const References* ref, SpanLog* log, RunResult* result);

/// Sets trace.overhead_pct from the untraced and traced halves' wall
/// geometric means, trace.spans, and writes the Chrome trace when asked.
void SetTraceOverhead(double plain_wall_ms, double traced_wall_ms,
                      const SpanLog& log, const RunOptions& options,
                      RunResult* result);

/// Formats "name value unit" for the report.
std::string FormatMetric(const std::string& name, const Metric& m);

RunResult RunServeMix(const RunOptions& options);
RunResult RunOneshotLibs(const RunOptions& options);
RunResult RunScaleout(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
