// serve_mix: the served TPC-H mix. A resident QueryServer on a UNIX socket
// (sf 0.01, Handwritten, encoded residency, 2 scheduler clients) takes a
// closed loop from 4 connections — 1 interactive tenant, 3 batch — each
// issuing a seeded order over the five queries after a warm-up pass. Closed
// loop because gpudb_client callers block on each reply. Stresses serve,
// the core queue and the cached-plan executor; bypasses the optimizer and
// upload (every timed query is a plan-cache hit over resident data).
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {
namespace {

constexpr double kScaleFactor = 0.01;
constexpr unsigned kSchedulerClients = 2;
constexpr size_t kConnections = 4;  ///< connection 0 is interactive

/// One reply as the client saw it.
struct Sample {
  size_t conn = 0;
  plan::TpchQuery query = plan::TpchQuery::kQ1;
  double client_ms = 0;
  double queue_wait_ms = 0;
  double admission_wait_ms = 0;
  double wall_ms = 0;
  uint64_t sim_ns = 0;
};

struct Phase {
  std::vector<Sample> samples;  ///< verified replies only
  Outcomes outcomes;
  double elapsed_s = 0;
  serve::StatsReply stats_before;
  serve::StatsReply stats_after;
};

struct Served {
  std::unique_ptr<serve::QueryServer> server;
  std::vector<serve::Client> clients;
  References ref;
  double reference_s = 0;
};

serve::TenantClass ClassOf(size_t conn) {
  return conn == 0 ? serve::TenantClass::kInteractive
                   : serve::TenantClass::kBatch;
}

/// Sends one query and checks the reply; returns false on a transport or
/// server error (the connection is then unusable).
bool Issue(serve::Client& client, size_t conn, plan::TpchQuery q,
           const References& ref, Phase* phase, std::string* error,
           SpanLog* log) {
  ++phase->outcomes.attempted;
  Scoped span(log, "serve.client_query");
  const auto t0 = Clock::now();
  serve::QueryReply reply;
  try {
    reply = client.Query(plan::TpchQueryName(q));
  } catch (const std::exception& e) {
    ++phase->outcomes.error;
    if (error->empty()) *error = e.what();
    return false;
  }
  const double client_ms = MsSince(t0);
  if (reply.overloaded) {
    ++phase->outcomes.overloaded;
    return true;
  }
  if (reply.rejected) {
    ++phase->outcomes.rejected;
    return true;
  }
  std::string why;
  if (!Verify(q, reply.result, ref, &why)) {
    ++phase->outcomes.wrong;
    if (error->empty()) {
      *error = std::string(plan::TpchQueryName(q)) + ": " + why;
    }
    return true;
  }
  phase->samples.push_back(Sample{conn, q, client_ms, reply.queue_wait_ms,
                                  reply.admission_wait_ms, reply.wall_ms,
                                  reply.simulated_ns});
  return true;
}

Served SetUp(const RunOptions& options, const std::string& socket_path,
             RunResult* result) {
  Served s;
  serve::ServerOptions so;
  so.socket_path = socket_path;
  so.catalog.scale_factor = kScaleFactor;
  so.catalog.seed = options.seed;
  so.catalog.use_encoding = true;
  so.catalog.backend = "Handwritten";
  so.num_clients = kSchedulerClients;
  s.server = std::make_unique<serve::QueryServer>(so);
  s.server->Start();
  const auto t0 = Clock::now();
  const serve::ResidentCatalog& c = s.server->catalog();
  s.ref = ComputeReferences(c.lineitem(), c.orders(), c.customer(), c.part());
  s.reference_s = MsSince(t0) / 1e3;
  for (size_t i = 0; i < kConnections; ++i) {
    const serve::TenantClass cls = ClassOf(i);
    s.clients.emplace_back(socket_path, serve::TenantClassName(cls), cls);
  }
  // Warm-up: every connection runs every query once; the first of each
  // shape is the plan-cache miss.
  Phase warm;
  std::string error;
  for (size_t i = 0; i < kConnections; ++i) {
    for (const plan::TpchQuery q : kQueries) {
      Issue(s.clients[i], i, q, s.ref, &warm, &error, nullptr);
    }
  }
  result->outcomes.Add(warm.outcomes);
  if (!error.empty()) result->Error("warm-up: " + error);
  return s;
}

/// Closed loop: each connection on its own thread issues seeded rounds of
/// the five queries until `seconds` have elapsed.
Phase Measure(Served& s, double seconds, uint64_t seed, SpanLog* log,
              RunResult* result) {
  Phase phase;
  phase.stats_before = s.server->Stats();
  std::mutex mu;
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (size_t i = 0; i < kConnections; ++i) {
    threads.emplace_back([&, i] {
      Phase local;
      std::string error;
      SplitMix64 rng(seed * kConnections + i);
      std::vector<plan::TpchQuery> round(std::begin(kQueries),
                                         std::end(kQueries));
      bool alive = true;
      while (alive && Clock::now() < deadline) {
        rng.Shuffle(round);
        for (const plan::TpchQuery q : round) {
          if (Clock::now() >= deadline) break;
          alive = Issue(s.clients[i], i, q, s.ref, &local, &error, log);
          if (!alive) break;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      phase.samples.insert(phase.samples.end(), local.samples.begin(),
                           local.samples.end());
      phase.outcomes.Add(local.outcomes);
      if (!error.empty()) result->Error(error);
    });
  }
  for (std::thread& t : threads) t.join();
  phase.elapsed_s = MsSince(start) / 1e3;
  phase.stats_after = s.server->Stats();
  return phase;
}

/// Median client latency per query, in kQueries order (0 for a query with
/// no verified reply).
std::vector<double> PerQueryMedians(const Phase& phase) {
  std::vector<double> out;
  for (const plan::TpchQuery q : kQueries) {
    std::vector<double> ms;
    for (const Sample& x : phase.samples) {
      if (x.query == q) ms.push_back(x.client_ms);
    }
    out.push_back(ms.empty() ? 0 : Median(ms));
  }
  return out;
}

double WallGeomean(const Phase& phase) {
  const std::vector<double> medians = PerQueryMedians(phase);
  for (const double m : medians) {
    if (m <= 0) return 0;
  }
  return GeoMean(medians);
}

void SetEndToEnd(const Phase& phase, RunResult* result) {
  if (phase.samples.empty() || WallGeomean(phase) <= 0) return;
  std::vector<double> latency, sims;
  for (const Sample& x : phase.samples) latency.push_back(x.client_ms);
  for (const plan::TpchQuery q : kQueries) {
    for (const Sample& x : phase.samples) {
      if (x.query == q) {
        sims.push_back(static_cast<double>(x.sim_ns) / 1e6);
        break;
      }
    }
  }
  std::vector<double> interactive;
  for (const Sample& x : phase.samples) {
    if (x.conn == 0) interactive.push_back(x.client_ms);
  }
  const Tail tail = TailPercentile(latency);
  result->Set("qps", static_cast<double>(phase.samples.size()) /
                         phase.elapsed_s, "1/s");
  result->Set("latency_p50_ms", Median(latency), "ms");
  result->Set("latency_p99_ms", tail.value, "ms");
  result->Set("wall_geomean_ms", WallGeomean(phase), "ms");
  result->Set("sim_geomean_ms", GeoMean(sims), "ms");
  result->Set("device_peak_mib",
              static_cast<double>(gpusim::Device::Default().peak_bytes()) /
                  kMiB,
              "MiB");
  result->Set("latency_samples", static_cast<double>(tail.samples), "count");
  char note[160];
  std::snprintf(note, sizeof(note),
                "latency tail: p%.1f over %zu samples (%zu beyond)",
                tail.percentile * 100, tail.samples, tail.beyond);
  result->Note(note);
  if (!interactive.empty()) {
    const Tail t = TailPercentile(interactive);
    result->Set("interactive_latency_p99_ms", t.value, "ms");
    result->Set("interactive_samples", static_cast<double>(t.samples),
                "count");
    std::snprintf(note, sizeof(note),
                  "interactive tail: p%.1f over %zu samples (%zu beyond)",
                  t.percentile * 100, t.samples, t.beyond);
    result->Note(note);
  }
}

/// Records every served query's simulated ns in the exactness ledger: a
/// cached plan over resident tables must cost the same on every execution.
void RecordExact(const Phase& phase, RunResult* result) {
  for (const Sample& x : phase.samples) {
    result->Exact(std::string("serve.") + plan::TpchQueryName(x.query) +
                      ".sim_ns",
                  x.sim_ns);
  }
}

void SetTailMetric(RunResult* result, const std::string& name,
                   const std::vector<double>& samples) {
  if (!samples.empty()) result->Set(name, TailPercentile(samples).value, "ms");
}

void SetLayers(const Phase& phase, RunResult* result) {
  std::vector<double> overhead, queue, queue_interactive, queue_batch,
      admission, interactive;
  for (const Sample& x : phase.samples) {
    overhead.push_back(ClientOverheadMs(x.client_ms, x.queue_wait_ms,
                                        x.admission_wait_ms, x.wall_ms));
    queue.push_back(x.queue_wait_ms);
    (x.conn == 0 ? queue_interactive : queue_batch).push_back(x.queue_wait_ms);
    admission.push_back(x.admission_wait_ms);
    if (x.conn == 0) interactive.push_back(x.client_ms);
  }
  if (phase.samples.empty()) return;
  result->Set("serve.client_overhead_ms.p50", Median(overhead), "ms");
  SetTailMetric(result, "serve.client_overhead_ms.p99", overhead);
  SetTailMetric(result, "serve.interactive_latency_p99_ms", interactive);
  const serve::StatsReply& a = phase.stats_after;
  const serve::StatsReply& b = phase.stats_before;
  const uint64_t hits = a.cache_hits - b.cache_hits;
  const uint64_t lookups = hits + a.cache_misses - b.cache_misses;
  result->Set("serve.plan_cache.hit_rate",
              lookups == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(lookups),
              "ratio");
  result->Set("serve.shed", static_cast<double>(a.overloaded - b.overloaded),
              "count");
  result->Set("core.queue_wait_ms.p50", Median(queue), "ms");
  SetTailMetric(result, "core.queue_wait_ms.p99", queue);
  SetTailMetric(result, "core.queue_wait_ms.interactive_p99",
                queue_interactive);
  SetTailMetric(result, "core.queue_wait_ms.batch_p99", queue_batch);
  SetTailMetric(result, "core.admission_wait_ms.p99", admission);
  for (const plan::TpchQuery q : kQueries) {
    std::vector<double> wall;
    for (const Sample& x : phase.samples) {
      if (x.query == q) wall.push_back(x.wall_ms);
    }
    if (!wall.empty()) {
      result->Set(std::string("core.exec_wall_ms.") + plan::TpchQueryName(q),
                  Median(wall), "ms");
    }
  }
}

}  // namespace

RunResult RunServeMix(const RunOptions& options) {
  RunResult result;
  const std::string socket_path =
      "perfbench-" + std::to_string(::getpid()) + ".sock";
  std::vector<double> setup_s, reference_s;
  Served s;
  for (int i = 0; i < kSetups; ++i) {
    // Tear the previous server down first: each set-up starts from nothing.
    s.clients.clear();
    s.server.reset();
    const auto t0 = Clock::now();
    s = SetUp(options, socket_path, &result);
    setup_s.push_back(MsSince(t0) / 1e3);
    reference_s.push_back(s.reference_s);
  }

  if (!options.trace) {
    const Phase phase = Measure(s, options.seconds, options.seed, nullptr,
                                &result);
    result.outcomes.Add(phase.outcomes);
    RecordExact(phase, &result);
    SetEndToEnd(phase, &result);
    result.Set("setup_s", Median(setup_s), "s");
    return result;
  }

  const Phase plain = Measure(s, options.seconds / 2, options.seed, nullptr,
                              &result);
  SpanLog log;
  gpusim::Device& device = gpusim::Device::Default();
  const std::vector<DeviceProbe> before = {Probe(device)};
  const Phase traced = Measure(s, options.seconds / 2, options.seed + 1, &log,
                               &result);
  SetGpusimMetrics(&result, {&device}, before, traced.elapsed_s);
  result.outcomes.Add(plain.outcomes);
  result.outcomes.Add(traced.outcomes);
  RecordExact(plain, &result);
  RecordExact(traced, &result);
  SetLayers(traced, &result);
  const plan::TpchHostTables host = s.server->catalog().host();
  ProbeStorage(host, /*use_encoding=*/true, &log, &result);
  ProbePlan(host, /*use_encoding=*/true, &s.ref, &log, &result);
  ProbeFootprintEstimate(host, /*use_encoding=*/true, &log, &result);
  const auto t0 = Clock::now();
  (void)Generate(kScaleFactor, options.seed);
  result.Set("tpch.datagen_s", MsSince(t0) / 1e3, "s");
  result.Set("tpch.reference_s", Median(reference_s), "s");
  SetTraceOverhead(WallGeomean(plain), WallGeomean(traced), log, options,
                   &result);
  return result;
}

}  // namespace perfbench
