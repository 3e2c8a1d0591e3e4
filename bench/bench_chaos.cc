// Chaos harness: resilience of the query layer under injected device faults.
//
// Drives N scheduler clients through the five TPC-H queries while a
// gpusim::FaultInjector fires transient kernel faults, transfer faults, and
// one device-OOM into the hot paths. The storm's rules are every-N per
// stream (every 40th kernel launch, every 6th transfer), capped below the
// retry budget, so a correct resilience layer must finish every query with
// the right answer — the harness exits non-zero if any query fails
// permanently (exit 2), any answer drifts from the host reference (exit 3),
// a fault-free run after the chaos storm is not bit-identical in simulated
// time to the pre-storm golden run (exit 4: fault handling leaked into the
// cost model), or the storm injected fewer than 20 faults (exit 6: it
// tested too little).
//
// Before the storm, a one-client burst phase puts the scheduler's own retry
// under test: three consecutive kernel faults outlast the executor's node
// replay, so one query fails its first attempt and completes on the
// scheduler's second. The harness exits 5 if no query needed a second
// attempt there (the retry path went untested).
//
// Not a google-benchmark binary: the unit of work is a whole scheduler run
// and the checks need cross-run state, so it drives itself and optionally
// writes machine-readable JSON for CI archiving.
//
// Usage:
//   bench_chaos [--backend=Handwritten] [--clients=4] [--per-client=5]
//               [--seed=42] [--sf=0.005] [--json=FILE]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "core/resilience.h"
#include "core/scheduler.h"
#include "gpusim/device.h"
#include "gpusim/fault.h"
#include "plan/prepared.h"
#include "tpch/datagen.h"
#include "tpch_verify.h"

namespace {

struct Options {
  std::string backend = backends::kHandwritten;
  unsigned clients = 4;
  unsigned per_client = 5;  ///< queries submitted per client slot
  uint64_t seed = 42;
  double scale_factor = 0.005;
  std::string json_path;
};

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--backend=")) {
      opts->backend = v;
    } else if (const char* v = value("--clients=")) {
      opts->clients = static_cast<unsigned>(std::stoul(v));
    } else if (const char* v = value("--per-client=")) {
      opts->per_client = static_cast<unsigned>(std::stoul(v));
    } else if (const char* v = value("--seed=")) {
      opts->seed = std::stoull(v);
    } else if (const char* v = value("--sf=")) {
      opts->scale_factor = std::stod(v);
    } else if (const char* v = value("--json=")) {
      opts->json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return opts->clients > 0 && opts->per_client > 0;
}

/// The storm must inject at least this many faults.
constexpr uint64_t kMinStormFaults = 20;

const char* const kKinds[] = {"q1", "q3", "q4", "q6", "q14"};
constexpr size_t kNumKinds = 5;

/// Checks a captured answer against the host reference; prints the first
/// mismatch.
bool CheckAnswer(const std::string& kind, const plan::TpchQueryResult& got,
                 const bench::References& ref) {
  std::string why;
  if (bench::Verify(plan::ParseTpchQuery(kind), got, ref, &why)) return true;
  std::fprintf(stderr, "WRONG ANSWER: %s\n", why.c_str());
  return false;
}

int Run(const Options& opts) {
  core::RegisterBuiltinBackends();

  tpch::Config config;
  config.scale_factor = opts.scale_factor;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table part = tpch::GeneratePart(config);

  gpusim::Device& device = gpusim::Device::Default();
  gpusim::Stream setup(device, gpusim::ApiProfile::Cuda());
  const plan::TpchHostTables host{&lineitem, &orders, &customer, &part};
  const auto resident =
      plan::MakeResident(setup, host, /*use_encoding=*/false);

  // Host reference answers, computed once.
  const bench::References reference(host);

  // Each kind's plan, prepared once and pinned to the benchmarked backend.
  std::map<std::string, std::shared_ptr<const plan::PreparedTpchQuery>>
      prepared;
  for (const char* kind : kKinds) {
    plan::QueryShape shape;
    shape.query = plan::ParseTpchQuery(kind);
    prepared[kind] = plan::PrepareTpchQuery(shape, resident, opts.backend);
  }
  const auto make_query = [&](const std::string& kind,
                              plan::TpchQueryResult* slot) -> core::QueryFn {
    return [query = prepared.at(kind), slot](core::Backend& b) {
      *slot = query->Run(b);
    };
  };

  // Runs every kind once on a single fault-free client and returns the
  // per-kind simulated time.
  const auto golden_pass = [&](const char* label,
                               std::vector<plan::TpchQueryResult>* answers) {
    answers->assign(kNumKinds, plan::TpchQueryResult());
    core::SchedulerOptions sched_opts;
    sched_opts.backend_name = opts.backend;
    sched_opts.num_clients = 1;
    core::QueryScheduler scheduler(sched_opts);
    for (size_t i = 0; i < kNumKinds; ++i) {
      scheduler.Submit(kKinds[i], make_query(kKinds[i], &(*answers)[i]));
    }
    scheduler.Drain();
    std::map<std::string, uint64_t> sim_ns;
    for (const core::QueryRecord& q : scheduler.Records()) {
      if (!q.ok) {
        throw std::runtime_error(std::string(label) + " run failed: " +
                                 q.label + ": " + q.error);
      }
      sim_ns[q.label] = q.simulated_ns;
    }
    return sim_ns;
  };

  std::printf("bench_chaos: backend=%s clients=%u per_client=%u seed=%llu "
              "sf=%g rows(lineitem)=%zu\n\n",
              opts.backend.c_str(), opts.clients, opts.per_client,
              static_cast<unsigned long long>(opts.seed), opts.scale_factor,
              lineitem.num_rows());

  // Warmup (pool + lazily-built structures), then the golden baseline and a
  // determinism re-check before any fault is armed.
  std::vector<plan::TpchQueryResult> golden_answers;
  golden_pass("warmup", &golden_answers);
  const std::map<std::string, uint64_t> golden = golden_pass("golden", &golden_answers);
  const std::map<std::string, uint64_t> golden2 =
      golden_pass("golden-recheck", &golden_answers);
  if (golden2 != golden) {
    std::fprintf(stderr,
                 "GOLDEN DRIFT: fault-free simulated time not deterministic "
                 "before injection\n");
    return 4;
  }
  for (size_t i = 0; i < kNumKinds; ++i) {
    if (!CheckAnswer(kKinds[i], golden_answers[i], reference)) {
      return 3;
    }
  }

  // Burst phase: every kernel call faults until three have fired. On one
  // client the whole burst lands on one query's node, exhausting its replay.
  core::SchedulerOptions chaos_opts;
  chaos_opts.backend_name = opts.backend;
  chaos_opts.num_clients = 1;
  chaos_opts.retry.max_attempts = 10;
  gpusim::FaultInjector burst(opts.seed);
  {
    gpusim::FaultRule burst_rule;
    burst_rule.site = gpusim::FaultSite::kKernel;
    burst_rule.kind = gpusim::FaultKind::kTransientKernel;
    burst_rule.every_calls = 1;
    burst_rule.max_fires = 3;
    burst.AddRule(burst_rule);
  }
  size_t failed = 0;
  size_t burst_retried = 0;
  int burst_max_attempts = 1;
  std::vector<plan::TpchQueryResult> burst_answers(kNumKinds);
  {
    device.set_fault_injector(&burst);
    core::QueryScheduler scheduler(chaos_opts);
    for (size_t i = 0; i < kNumKinds; ++i) {
      scheduler.Submit(kKinds[i], make_query(kKinds[i], &burst_answers[i]));
    }
    scheduler.Drain();
    device.set_fault_injector(nullptr);
    for (const core::QueryRecord& q : scheduler.Records()) {
      if (!q.ok) {
        ++failed;
        std::fprintf(stderr, "PERMANENT FAILURE (burst): %s: %s\n",
                     q.label.c_str(), q.error.c_str());
      }
      if (q.attempts > 1) ++burst_retried;
      burst_max_attempts = std::max(burst_max_attempts, q.attempts);
    }
  }
  std::printf("scheduler retry:  burst of %llu kernel faults on 1 client, "
              "%zu of %zu queries needed a second attempt (max attempts "
              "%d)\n",
              static_cast<unsigned long long>(burst.stats().injected_kernel),
              burst_retried, kNumKinds, burst_max_attempts);

  // Transient-only fault plan. Every-N rules count per stream, and no
  // Handwritten node launches 40 kernels or issues 6 transfers, so the
  // executor's node replay absorbs most faults. A query attempt fails only
  // after 3 faults in one node, so failing one query's 10 attempts takes 30
  // fires; the caps allow 28 (12 kernel + 16 transfer). Plus one device
  // OOM, which the scheduler absorbs with a pool reclaim instead of an
  // attempt.
  gpusim::FaultInjector injector(opts.seed);
  {
    gpusim::FaultRule kernel_rule;
    kernel_rule.site = gpusim::FaultSite::kKernel;
    kernel_rule.kind = gpusim::FaultKind::kTransientKernel;
    kernel_rule.every_calls = 40;
    kernel_rule.max_fires = 12;
    injector.AddRule(kernel_rule);
    gpusim::FaultRule transfer_rule;
    transfer_rule.site = gpusim::FaultSite::kTransfer;
    transfer_rule.kind = gpusim::FaultKind::kTransfer;
    transfer_rule.every_calls = 6;
    transfer_rule.max_fires = 16;
    injector.AddRule(transfer_rule);
    gpusim::FaultRule oom_rule;
    oom_rule.site = gpusim::FaultSite::kMalloc;
    oom_rule.kind = gpusim::FaultKind::kOutOfMemory;
    oom_rule.at_call = 50;
    oom_rule.max_fires = 1;
    injector.AddRule(oom_rule);
  }

  core::ResilienceManager::Global().Reset();
  device.set_fault_injector(&injector);

  chaos_opts.num_clients = opts.clients;
  chaos_opts.queue_capacity = 2 * static_cast<size_t>(opts.clients);

  const size_t total = static_cast<size_t>(opts.clients) * opts.per_client;
  std::vector<plan::TpchQueryResult> answers(total);
  std::vector<std::string> kinds(total);

  core::QueryScheduler scheduler(chaos_opts);
  for (size_t i = 0; i < total; ++i) {
    kinds[i] = kKinds[i % kNumKinds];
    scheduler.Submit(kinds[i], make_query(kinds[i], &answers[i]));
  }
  scheduler.Drain();
  device.set_fault_injector(nullptr);

  const core::SchedulerReport report = scheduler.Report();
  const gpusim::FaultInjectorStats fstats = injector.stats();
  const core::ResilienceStats& res = report.resilience;

  size_t retried_queries = 0;
  int max_attempts_seen = 1;
  for (const core::QueryRecord& q : scheduler.Records()) {
    if (!q.ok) {
      ++failed;
      std::fprintf(stderr, "PERMANENT FAILURE: %s (%s, attempts=%d): %s\n",
                   q.label.c_str(), core::ErrorClassName(q.error_class),
                   q.attempts, q.error.c_str());
    }
    if (q.attempts > 1 || q.oom_reclaims > 0) ++retried_queries;
    max_attempts_seen = std::max(max_attempts_seen, q.attempts);
  }

  const uint64_t storm_floor = kMinStormFaults;
  std::printf("fault schedule:   %llu injected (%llu kernel, %llu transfer, "
              "%llu oom) over %llu checks; floor %llu\n",
              static_cast<unsigned long long>(fstats.injected_total()),
              static_cast<unsigned long long>(fstats.injected_kernel),
              static_cast<unsigned long long>(fstats.injected_transfer),
              static_cast<unsigned long long>(fstats.injected_oom),
              static_cast<unsigned long long>(fstats.checks),
              static_cast<unsigned long long>(storm_floor));
  std::printf("recovery:         %llu faults seen, %llu retries "
              "(%.3f ms backoff), %llu pool reclaims, %llu reroutes\n",
              static_cast<unsigned long long>(res.faults_seen),
              static_cast<unsigned long long>(res.retries),
              res.backoff_ns / 1e6,
              static_cast<unsigned long long>(res.oom_reclaims),
              static_cast<unsigned long long>(res.fallback_reroutes));
  std::printf("queries:          %zu completed, %zu recovered after faults, "
              "max attempts %d, %zu permanent failures\n",
              report.completed - failed, retried_queries, max_attempts_seen,
              failed);
  std::printf("device memory:    peak %.2f MiB (live+reserved), %llu bytes "
              "still reserved\n",
              static_cast<double>(report.device_peak_bytes) /
                  (1024.0 * 1024.0),
              static_cast<unsigned long long>(report.device_reserved_bytes));

  bool answers_ok = true;
  for (size_t i = 0; i < total; ++i) {
    if (!CheckAnswer(kinds[i], answers[i], reference)) {
      answers_ok = false;
    }
  }
  for (size_t i = 0; i < kNumKinds; ++i) {
    if (!CheckAnswer(kKinds[i], burst_answers[i], reference)) {
      answers_ok = false;
    }
  }

  // Post-storm fault-free pass must reproduce the golden timeline exactly:
  // fault handling may not leave residue in the cost model.
  std::vector<plan::TpchQueryResult> post_answers;
  const std::map<std::string, uint64_t> post =
      golden_pass("post-chaos", &post_answers);
  bool golden_ok = true;
  for (const auto& [label, ns] : golden) {
    const auto it = post.find(label);
    if (it == post.end() || it->second != ns) {
      std::fprintf(stderr,
                   "GOLDEN DRIFT: %s simulated %llu ns post-chaos, expected "
                   "%llu\n",
                   label.c_str(),
                   static_cast<unsigned long long>(
                       it == post.end() ? 0 : it->second),
                   static_cast<unsigned long long>(ns));
      golden_ok = false;
    }
  }

  std::printf("\nanswers vs host reference: %s\n",
              answers_ok ? "OK" : "MISMATCH");
  std::printf("fault-free golden timeline after chaos: %s\n",
              golden_ok ? "bit-identical" : "DRIFTED");

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    out << "{\n  \"backend\": \"" << opts.backend << "\",\n"
        << "  \"clients\": " << opts.clients << ",\n"
        << "  \"seed\": " << opts.seed << ",\n"
        << "  \"queries\": " << total << ",\n"
        << "  \"injected\": {\"kernel\": " << fstats.injected_kernel
        << ", \"transfer\": " << fstats.injected_transfer
        << ", \"oom\": " << fstats.injected_oom
        << ", \"device_lost\": " << fstats.injected_device_lost
        << ", \"checks\": " << fstats.checks
        << ", \"floor\": " << storm_floor << "},\n"
        << "  \"resilience\": {\"faults_seen\": " << res.faults_seen
        << ", \"retries\": " << res.retries
        << ", \"backoff_ns\": " << res.backoff_ns
        << ", \"oom_reclaims\": " << res.oom_reclaims
        << ", \"reroutes\": " << res.fallback_reroutes
        << ", \"deadline_misses\": " << res.deadline_misses
        << ", \"permanent_failures\": " << res.permanent_failures
        << ", \"breaker_opens\": " << res.breaker_opens << "},\n"
        << "  \"peak_bytes\": " << report.device_peak_bytes << ",\n"
        << "  \"reserved_bytes\": " << report.device_reserved_bytes << ",\n"
        << "  \"recovered_queries\": " << retried_queries << ",\n"
        << "  \"max_attempts\": " << max_attempts_seen << ",\n"
        << "  \"burst_recovered_queries\": " << burst_retried << ",\n"
        << "  \"burst_max_attempts\": " << burst_max_attempts << ",\n"
        << "  \"permanent_failures\": " << failed << ",\n"
        << "  \"answers_ok\": " << (answers_ok ? "true" : "false") << ",\n"
        << "  \"golden_ok\": " << (golden_ok ? "true" : "false") << "\n}\n";
    std::printf("wrote %s\n", opts.json_path.c_str());
  }

  if (failed > 0) return 2;
  if (!answers_ok) return 3;
  if (!golden_ok) return 4;
  if (burst_retried == 0) {
    std::fprintf(stderr,
                 "SCHEDULER RETRY UNTESTED: no query of the burst phase "
                 "needed a second attempt\n");
    return 5;
  }
  if (fstats.injected_total() < storm_floor) {
    std::fprintf(stderr,
                 "STORM TOO WEAK: %llu faults injected, fewer than %llu\n",
                 static_cast<unsigned long long>(fstats.injected_total()),
                 static_cast<unsigned long long>(storm_floor));
    return 6;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: %s [--backend=NAME] [--clients=N] [--per-client=N] "
                 "[--seed=S] [--sf=F] [--json=FILE]\n",
                 argv[0]);
    return 64;
  }
  try {
    return Run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_chaos: %s\n", e.what());
    return 3;
  }
}
