// Unit test of the benchmark's metric math (metrics.h). Plain main() with
// its own check macro so the benchmark package needs no test framework;
// perfbench/run.py runs it after every build and refuses to measure when it
// fails.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "metrics.h"

namespace {

int failures = 0;

#define CHECK(cond)                                               \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++failures;                                                 \
    }                                                             \
  } while (0)

bool Close(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::abs(b);
}

std::vector<double> Iota(size_t n) {  // 1, 2, ..., n in shuffled order
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<double>((i * 7) % n + 1));
  }
  return v;
}

void TestNearestRank() {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CHECK(perfbench::NearestRank(v, 0.5) == 5);
  CHECK(perfbench::NearestRank(v, 0.51) == 6);
  CHECK(perfbench::NearestRank(v, 1.0) == 10);
  CHECK(perfbench::NearestRank(v, 0.01) == 1);
  std::vector<double> h(100);
  for (size_t i = 0; i < h.size(); ++i) h[i] = static_cast<double>(i + 1);
  // 0.99 * 100 is not exactly 99 in binary; the rank must still be 99.
  CHECK(perfbench::NearestRank(h, 0.99) == 99);
  CHECK(perfbench::Median({3, 1, 2}) == 2);
  CHECK(perfbench::Median({4, 1, 3, 2}) == 2);
  bool threw = false;
  try {
    perfbench::NearestRank({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void TestTailPercentile() {
  // 2000 samples: p99 is rank 1980 with 20 beyond, so p99 itself is used.
  perfbench::Tail t = perfbench::TailPercentile(Iota(2000));
  CHECK(t.value == 1980);
  CHECK(t.beyond == 20);
  CHECK(t.samples == 2000);
  CHECK(Close(t.percentile, 0.99));
  // 1010 samples: p99 is rank 1000 with exactly 10 beyond.
  t = perfbench::TailPercentile(Iota(1010));
  CHECK(t.value == 1000);
  CHECK(t.beyond == 10);
  // 100 samples: p99 would leave 1 beyond; the highest percentile with 10
  // beyond is rank 90.
  t = perfbench::TailPercentile(Iota(100));
  CHECK(t.value == 90);
  CHECK(t.beyond == 10);
  CHECK(Close(t.percentile, 0.90));
  // 11 samples: only rank 1 leaves 10 beyond.
  t = perfbench::TailPercentile(Iota(11));
  CHECK(t.value == 1);
  CHECK(t.beyond == 10);
  // Too few samples for any supported tail: the lowest rank, and it says so.
  t = perfbench::TailPercentile(Iota(5));
  CHECK(t.value == 1);
  CHECK(t.beyond == 4);
  // The target bounds the percentile from above, too.
  t = perfbench::TailPercentile(Iota(2000), 0.5);
  CHECK(t.value == 1000);
}

void TestGeoMean() {
  CHECK(Close(perfbench::GeoMean({2, 8}), 4));
  CHECK(Close(perfbench::GeoMean({1, 10, 100}), 10));
  CHECK(Close(perfbench::GeoMean({5}), 5));
  bool threw = false;
  try {
    perfbench::GeoMean({1, 0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void TestFailedShare() {
  perfbench::Outcomes o;
  CHECK(perfbench::FailedShare(o) == 0);
  o.attempted = 200;
  CHECK(perfbench::FailedShare(o) == 0);
  o.wrong = 1;
  o.error = 2;
  o.rejected = 3;
  o.overloaded = 4;
  CHECK(o.failed() == 10);
  CHECK(Close(perfbench::FailedShare(o), 0.05));
  perfbench::Outcomes sum;
  sum.Add(o);
  sum.Add(o);
  CHECK(sum.attempted == 400 && sum.failed() == 20);
  CHECK(Close(perfbench::FailedShare(sum), 0.05));
}

void TestClientOverhead() {
  CHECK(Close(perfbench::ClientOverheadMs(13.0, 9.5, 0.5, 2.75), 0.25));
  CHECK(perfbench::ClientOverheadMs(1.0, 0, 0, 1.0) == 0);
  // Never clamped: a negative value would expose a clock mismatch.
  CHECK(perfbench::ClientOverheadMs(1.0, 0.5, 0, 1.0) < 0);
}

}  // namespace

int main() {
  TestNearestRank();
  TestTailPercentile();
  TestGeoMean();
  TestFailedShare();
  TestClientOverhead();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_metrics_test: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("perfbench_metrics_test: all checks passed\n");
  return 0;
}
