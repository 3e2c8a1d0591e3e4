// perfbench: the repository's benchmark program. Runs one seeded workload for
// a fixed time, checks every answer against the host references, and prints
// a report followed by one JSON line (the last line of stdout) that
// perfbench/run.py turns into the benchmark's result.
//
//   perfbench --workload serve_mix|oneshot_libs|scaleout --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Exit status: 0 when every answer was correct and no simulated figure
// drifted inside the run, 3 otherwise, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "common.h"
#include "core/registry.h"
#include "metrics.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Appends `key` and the map as {"name":{"value":v,"unit":"u"},...}.
void AppendMetrics(const char* key,
                   const std::map<std::string, perfbench::Metric>& metrics,
                   std::string* json) {
  *json += key;
  *json += '{';
  for (const auto& [name, metric] : metrics) {
    if (json->back() != '{') *json += ',';
    *json += JsonString(name);
    *json += ":{\"value\":";
    *json += JsonNumber(metric.value);
    *json += ",\"unit\":";
    *json += JsonString(metric.unit);
    *json += '}';
  }
  *json += '}';
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_mix|oneshot_libs|scaleout "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0) return Usage();

  core::RegisterBuiltinBackends();
  perfbench::RunResult result;
  try {
    if (workload == "serve_mix") {
      result = perfbench::RunServeMix(options);
    } else if (workload == "oneshot_libs") {
      result = perfbench::RunOneshotLibs(options);
    } else if (workload == "scaleout") {
      result = perfbench::RunScaleout(options);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  const perfbench::Outcomes& o = result.outcomes;
  const bool correct = o.failed() == 0 && result.drift.empty() &&
                       o.attempted > 0 && result.first_error.empty();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("  attempted %zu, wrong %zu, error %zu, rejected %zu, "
              "overloaded %zu, failed_share %.6f\n",
              o.attempted, o.wrong, o.error, o.rejected, o.overloaded,
              perfbench::FailedShare(o));
  for (const std::string& d : result.drift) {
    std::printf("  DRIFT %s\n", d.c_str());
  }
  if (!result.first_error.empty()) {
    std::printf("  first error: %s\n", result.first_error.c_str());
  }
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s\n", perfbench::FormatMetric(name, metric).c_str());
  }

  std::string json = "{\"workload\":" + JsonString(workload);
  json += ",\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(o.attempted);
  json += ",\"failed\":" + std::to_string(o.failed());
  json += ",\"failed_share\":" + JsonNumber(perfbench::FailedShare(o));
  AppendMetrics(",\"metrics\":", result.metrics, &json);
  json += ",\"exact\":{";
  for (const auto& [name, value] : result.exact) {
    if (json.back() != '{') json += ',';
    json += JsonString(name);
    json += ':';
    json += std::to_string(value);
  }
  json += "},\"drift\":[";
  for (const std::string& d : result.drift) {
    if (json.back() != '[') json += ',';
    json += JsonString(d);
  }
  json += "],\"first_error\":" + JsonString(result.first_error) + "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}
