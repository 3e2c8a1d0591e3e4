#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "core/registry.h"
#include "plan/prepared.h"
#include "storage/encoded_column.h"
#include "storage/encoding.h"
#include "tpch/datagen.h"

namespace perfbench {

plan::TpchHostTables HostData::tables() const {
  plan::TpchHostTables t;
  t.lineitem = &lineitem;
  t.orders = &orders;
  t.customer = &customer;
  t.part = &part;
  return t;
}

HostData Generate(double scale_factor, uint64_t seed) {
  tpch::Config config;
  config.scale_factor = scale_factor;
  config.seed = seed;
  HostData d;
  d.lineitem = tpch::GenerateLineitem(config);
  d.orders = tpch::GenerateOrders(config);
  d.customer = tpch::GenerateCustomer(config);
  d.part = tpch::GeneratePart(config);
  return d;
}

References ComputeReferences(const storage::Table& lineitem,
                             const storage::Table& orders,
                             const storage::Table& customer,
                             const storage::Table& part) {
  References ref;
  ref.q1 = tpch::ReferenceQ1(lineitem);
  ref.q3 = tpch::ReferenceQ3(customer, orders, lineitem);
  ref.q4 = tpch::ReferenceQ4(orders, lineitem);
  ref.q6 = tpch::ReferenceQ6(lineitem);
  ref.q14 = tpch::ReferenceQ14(part, lineitem);
  return ref;
}

Dataset MakeDataset(double scale_factor, uint64_t seed) {
  Dataset d;
  auto t0 = Clock::now();
  d.data = Generate(scale_factor, seed);
  d.datagen_s = MsSince(t0) / 1e3;
  t0 = Clock::now();
  d.ref = ComputeReferences(d.data.lineitem, d.data.orders, d.data.customer,
                            d.data.part);
  d.reference_s = MsSince(t0) / 1e3;
  return d;
}

namespace {

bool Near(double got, double want) {
  return std::abs(got - want) <= std::abs(want) * 1e-9 + 1e-6;
}

}  // namespace

bool Verify(plan::TpchQuery q, const plan::TpchQueryResult& got,
            const References& ref, std::string* why) {
  switch (q) {
    case plan::TpchQuery::kQ1:
      if (got.q1.size() != ref.q1.size()) {
        *why = "q1 row count mismatch";
        return false;
      }
      for (size_t i = 0; i < ref.q1.size(); ++i) {
        const tpch::Q1Row& g = got.q1[i];
        const tpch::Q1Row& w = ref.q1[i];
        if (g.returnflag != w.returnflag || g.linestatus != w.linestatus ||
            g.count_order != w.count_order || !Near(g.sum_qty, w.sum_qty) ||
            !Near(g.sum_base_price, w.sum_base_price) ||
            !Near(g.sum_disc_price, w.sum_disc_price) ||
            !Near(g.sum_charge, w.sum_charge) ||
            !Near(g.avg_qty, w.avg_qty) || !Near(g.avg_price, w.avg_price) ||
            !Near(g.avg_disc, w.avg_disc)) {
          *why = "q1 row " + std::to_string(i) + " mismatch";
          return false;
        }
      }
      return true;
    case plan::TpchQuery::kQ3:
      if (got.q3.size() != ref.q3.size()) {
        *why = "q3 row count mismatch";
        return false;
      }
      for (size_t i = 0; i < ref.q3.size(); ++i) {
        if (got.q3[i].orderkey != ref.q3[i].orderkey ||
            !Near(got.q3[i].revenue, ref.q3[i].revenue)) {
          *why = "q3 row " + std::to_string(i) + " mismatch";
          return false;
        }
      }
      return true;
    case plan::TpchQuery::kQ4:
      if (got.q4.size() != ref.q4.size()) {
        *why = "q4 row count mismatch";
        return false;
      }
      for (size_t i = 0; i < ref.q4.size(); ++i) {
        if (got.q4[i].orderpriority != ref.q4[i].orderpriority ||
            got.q4[i].order_count != ref.q4[i].order_count) {
          *why = "q4 row " + std::to_string(i) + " mismatch";
          return false;
        }
      }
      return true;
    case plan::TpchQuery::kQ6:
      if (!Near(got.scalar, ref.q6)) {
        *why = "q6 scalar mismatch";
        return false;
      }
      return true;
    case plan::TpchQuery::kQ14:
      if (!Near(got.scalar, ref.q14)) {
        *why = "q14 scalar mismatch";
        return false;
      }
      return true;
  }
  *why = "unknown query";
  return false;
}

void SpanLog::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                  "\"dur\":%.3f,",
                  static_cast<unsigned long long>(s.thread % 1000000),
                  s.start_ms * 1e3, (s.end_ms - s.start_ms) * 1e3);
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\"," << buf
        << "\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Scoped::Scoped(SpanLog* log, const char* name, uint64_t parent)
    : log_(log), name_(name) {
  if (log_ == nullptr) return;
  id_ = log_->Begin();
  parent_ = parent;
  start_ms_ = log_->Now();
}

Scoped::~Scoped() {
  if (log_ == nullptr) return;
  log_->Record(Span{name_, id_, parent_,
                    std::hash<std::thread::id>{}(std::this_thread::get_id()),
                    start_ms_, log_->Now()});
}

void RunResult::Exact(const std::string& name, uint64_t value) {
  const auto [it, inserted] = exact.emplace(name, value);
  if (!inserted && it->second != value) {
    drift.push_back(name + ": " + std::to_string(it->second) + " then " +
                    std::to_string(value));
  }
}

void SetupTimes::SetMetric(RunResult* result) const {
  result->Set("setup_s", Median(total), "s");
  result->Note("setup_s: median of " + std::to_string(total.size()) +
               " set-ups");
}

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SweepWalls::WallGeomean() const {
  std::vector<double> medians;
  for (const std::vector<double>& ms : per_cell) {
    if (ms.empty()) return 0;
    medians.push_back(Median(ms));
  }
  return GeoMean(medians);
}

void SetSweepEndToEnd(const SweepWalls& walls, double sim_geomean_ms,
                      double peak_mib, RunResult* result) {
  const double wall_geomean = walls.WallGeomean();
  if (wall_geomean <= 0) return;
  std::vector<double> medians;
  for (const std::vector<double>& ms : walls.per_cell) {
    medians.push_back(Median(ms));
  }
  const Tail tail = TailPercentile(walls.all);
  result->Set("qps", Median(walls.pass_qps), "1/s");
  result->Set("latency_p50_ms", Median(medians), "ms");
  result->Set("latency_p99_ms", tail.value, "ms");
  result->Set("wall_geomean_ms", wall_geomean, "ms");
  result->Set("sim_geomean_ms", sim_geomean_ms, "ms");
  result->Set("device_peak_mib", peak_mib, "MiB");
  result->Set("latency_samples", static_cast<double>(tail.samples), "count");
  char note[200];
  std::snprintf(note, sizeof(note),
                "%zu passes in %.2f s; latency tail: p%.1f over %zu samples "
                "(%zu beyond)",
                walls.pass_qps.size(), walls.elapsed_s, tail.percentile * 100,
                tail.samples, tail.beyond);
  result->Note(note);
  std::string passes = "pass throughput (1/s):";
  for (const double q : walls.pass_qps) {
    std::snprintf(note, sizeof(note), " %.3f", q);
    passes += note;
  }
  result->Note(passes);
}

DeviceProbe Probe(gpusim::Device& device) {
  return DeviceProbe{device.Snapshot(), device.pool().stats()};
}

void SetGpusimMetrics(RunResult* result,
                      const std::vector<gpusim::Device*>& devices,
                      const std::vector<DeviceProbe>& before, double wall_s) {
  uint64_t kernels = 0, hits = 0, misses = 0;
  uint64_t jobs_inline = 0, jobs_dispatched = 0, jobs_overflow = 0;
  uint64_t chunks_worker = 0, chunks_caller = 0, max_live = 0;
  for (size_t i = 0; i < devices.size(); ++i) {
    const DeviceProbe now = Probe(*devices[i]);
    const gpusim::CounterSnapshot d = now.counters.Delta(before[i].counters);
    kernels += d.kernels_launched;
    hits += d.pool_hits;
    misses += d.pool_misses;
    jobs_inline += now.pool.jobs_inline - before[i].pool.jobs_inline;
    jobs_dispatched +=
        now.pool.jobs_dispatched - before[i].pool.jobs_dispatched;
    jobs_overflow += now.pool.jobs_overflow - before[i].pool.jobs_overflow;
    chunks_worker += now.pool.chunks_worker - before[i].pool.chunks_worker;
    chunks_caller += now.pool.chunks_caller - before[i].pool.chunks_caller;
    max_live = std::max(max_live, now.pool.max_live_jobs);
  }
  const auto share = [](uint64_t part, uint64_t total) {
    return total == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(total);
  };
  result->Set("gpusim.kernels_per_wall_s",
              wall_s > 0 ? static_cast<double>(kernels) / wall_s : 0, "1/s");
  result->Set("gpusim.pool_hit_rate", share(hits, hits + misses), "ratio");
  result->Set("gpusim.threadpool.inline_share",
              share(jobs_inline, jobs_inline + jobs_dispatched + jobs_overflow),
              "ratio");
  result->Set("gpusim.threadpool.worker_share",
              share(chunks_worker, chunks_worker + chunks_caller), "ratio");
  result->Set("gpusim.threadpool.overflow_jobs",
              static_cast<double>(jobs_overflow), "count");
  result->Set("gpusim.threadpool.max_live_jobs", static_cast<double>(max_live),
              "count");
}

double RooflineFrac(const gpusim::CounterSnapshot& delta, uint64_t sim_ns,
                    const gpusim::Device& device) {
  if (sim_ns == 0) return 0;
  const double bytes =
      static_cast<double>(delta.bytes_read + delta.bytes_written);
  return bytes / (static_cast<double>(sim_ns) * 1e-9 *
                  device.properties().memory_bandwidth_bps);
}

namespace {

template <typename Fn>
double MedianOfThree(Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

}  // namespace

void ProbeStorage(const plan::TpchHostTables& tables, bool use_encoding,
                  SpanLog* log, RunResult* result) {
  gpusim::Stream stream;
  const std::pair<const char*, const storage::Table*> named[] = {
      {"lineitem", tables.lineitem},
      {"orders", tables.orders},
      {"customer", tables.customer},
      {"part", tables.part}};
  const gpusim::CounterSnapshot before = stream.device().Snapshot();
  for (const auto& [name, table] : named) {
    result->Set(std::string("storage.upload_ms.") + name, MedianOfThree([&] {
                  Scoped span(log, "storage.upload");
                  if (use_encoding) {
                    (void)storage::UploadTableEncoded(stream, *table);
                  } else {
                    (void)storage::UploadTable(stream, *table);
                  }
                }),
                "ms");
  }
  // Three uploads of each table: the ratio is the same for every one.
  const gpusim::CounterSnapshot d = stream.device().Snapshot().Delta(before);
  const uint64_t raw = d.bytes_h2d + d.bytes_saved_vs_raw;
  result->Set("storage.encoded_ratio",
              raw == 0 ? 0.0
                       : static_cast<double>(d.bytes_h2d) /
                             static_cast<double>(raw),
              "ratio");
  result->Exact("storage.encoded_h2d_bytes", d.bytes_h2d);
  result->Set("storage.analyze_ms", MedianOfThree([&] {
                Scoped span(log, "storage.analyze");
                for (const auto& [name, table] : named) {
                  for (const std::string& col : table->column_names()) {
                    (void)storage::AnalyzeColumn(table->column(col));
                  }
                }
              }),
              "ms");
}

void ProbeFootprintEstimate(const plan::TpchHostTables& tables,
                            bool use_encoding, SpanLog* log,
                            RunResult* result) {
  std::vector<double> ms;
  for (const plan::TpchQuery q : kQueries) {
    ms.push_back(MedianOfThree([&] {
      Scoped span(log, "plan.footprint_estimate");
      (void)plan::EstimateQueryFootprint(q, tables, "Handwritten", 1,
                                         use_encoding);
    }));
  }
  result->Set("plan.footprint_estimate_ms", Median(ms), "ms");
}

void ProbePlan(const plan::TpchHostTables& tables, bool use_encoding,
               const References* ref, SpanLog* log, RunResult* result) {
  const auto backend = core::BackendRegistry::Instance().Create("Handwritten");
  const auto resident =
      plan::MakeResident(backend->stream(), tables, use_encoding);
  for (const plan::TpchQuery q : kQueries) {
    const std::string name = plan::TpchQueryName(q);
    plan::QueryShape shape;
    shape.query = q;
    shape.use_encoding = use_encoding;
    std::shared_ptr<const plan::PreparedTpchQuery> prepared;
    result->Set("plan.prepare_ms." + name, MedianOfThree([&] {
                  Scoped span(log, "plan.prepare");
                  prepared = plan::PrepareTpchQuery(shape, resident,
                                                    "Handwritten");
                }),
                "ms");
    if (ref == nullptr) continue;
    gpusim::Stream& stream = backend->stream();
    const uint64_t t0 = stream.now_ns();
    const gpusim::CounterSnapshot before = stream.device().Snapshot();
    plan::TpchQueryResult got;
    const double wall = MedianOfThree([&] {
      Scoped span(log, "plan.prepared_run");
      got = prepared->Run(*backend);
    });
    // The ratio over three identical runs is the ratio of one.
    const gpusim::CounterSnapshot d = stream.device().Snapshot().Delta(before);
    const uint64_t sim_ns = stream.now_ns() - t0;
    result->Set("plan.run_wall_ms." + name, wall, "ms");
    result->Set("gpusim.roofline_frac." + name,
                RooflineFrac(d, sim_ns, stream.device()), "ratio");
    ++result->outcomes.attempted;
    std::string why;
    if (!Verify(q, got, *ref, &why)) {
      ++result->outcomes.wrong;
      result->Error("probe " + name + ": " + why);
    }
  }
}

void SetTraceOverhead(double plain_wall_ms, double traced_wall_ms,
                      const SpanLog& log, const RunOptions& options,
                      RunResult* result) {
  result->Set("trace.overhead_pct",
              plain_wall_ms > 0 ? (traced_wall_ms / plain_wall_ms - 1) * 100
                                : 0,
              "%");
  result->Set("trace.spans", static_cast<double>(log.size()), "count");
  if (!options.trace_out.empty() && !log.WriteChromeTrace(options.trace_out)) {
    result->Error("cannot write trace to " + options.trace_out);
  }
  char note[160];
  std::snprintf(note, sizeof(note),
                "tracing overhead: wall geomean %.4f ms untraced, %.4f ms "
                "traced",
                plain_wall_ms, traced_wall_ms);
  result->Note(note);
}

std::string FormatMetric(const std::string& name, const Metric& m) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), "  %-40s %16.6f %s", name.c_str(), m.value,
                m.unit.c_str());
  return buf;
}

}  // namespace perfbench
