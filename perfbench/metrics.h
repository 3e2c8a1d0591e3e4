// The benchmark's metric math: percentiles, geometric means, failure
// shares and the client-overhead subtraction. Header-only and free of any
// gpulibdb dependency so metrics_test.cc can check it in isolation.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the value at 1-based rank
/// ceil(p * n). p in (0, 1]; the sample must be non-empty.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("NearestRank: no samples");
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps 0.99 * 100 (= 99.000000000000014) at rank 99.
  size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, 0.5);
}

/// A tail percentile chosen so that the sample supports it.
struct Tail {
  double value = 0;       ///< sample at the chosen rank
  double percentile = 0;  ///< rank / n actually reported
  size_t samples = 0;     ///< n
  size_t beyond = 0;      ///< samples ranked above the chosen one
};

/// The highest nearest-rank percentile, at most `target`, that leaves at
/// least `min_beyond` samples beyond it. With too few samples for even that
/// (n <= min_beyond) the lowest rank is reported and `beyond` says so.
inline Tail TailPercentile(std::vector<double> samples, double target = 0.99,
                           size_t min_beyond = 10) {
  if (samples.empty()) throw std::invalid_argument("TailPercentile: empty");
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(
      std::ceil(target * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n > min_beyond) rank = std::min(rank, n - min_beyond);
  else rank = 1;
  Tail t;
  t.value = samples[rank - 1];
  t.percentile = static_cast<double>(rank) / static_cast<double>(n);
  t.samples = n;
  t.beyond = n - rank;
  return t;
}

/// Geometric mean, as in the TPC-H Power metric. Every value must be > 0.
inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("GeoMean: no values");
  double log_sum = 0;
  for (const double v : values) {
    if (!(v > 0)) throw std::invalid_argument("GeoMean: value <= 0");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Outcome counts of one run. Every attempted query lands in exactly one of
/// ok / wrong / error / rejected / overloaded.
struct Outcomes {
  size_t attempted = 0;
  size_t wrong = 0;       ///< answered, but not the host reference's answer
  size_t error = 0;       ///< threw or returned an error reply
  size_t rejected = 0;    ///< refused by memory admission
  size_t overloaded = 0;  ///< shed by the server

  size_t failed() const { return wrong + error + rejected + overloaded; }
  void Add(const Outcomes& o) {
    attempted += o.attempted;
    wrong += o.wrong;
    error += o.error;
    rejected += o.rejected;
    overloaded += o.overloaded;
  }
};

/// (wrong + error + rejected + overloaded) / attempted; 0 when nothing ran.
inline double FailedShare(const Outcomes& o) {
  if (o.attempted == 0) return 0;
  return static_cast<double>(o.failed()) / static_cast<double>(o.attempted);
}

/// Time a served query spent outside the server's own accounting: the
/// client-observed latency minus the reply's queue wait, admission wait and
/// execution wall. What remains is protocol, socket and session-thread time.
inline double ClientOverheadMs(double client_ms, double queue_wait_ms,
                               double admission_wait_ms, double wall_ms) {
  return client_ms - (queue_wait_ms + admission_wait_ms + wall_ms);
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
