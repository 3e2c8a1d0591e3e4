// Property tests for the device algorithm primitives against scalar
// references, swept over sizes that exercise tile boundaries and multi-level
// recursion.
#include "gpusim/algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/exact_sum.h"

namespace gpusim {
namespace {

class AlgorithmsSizeTest : public ::testing::TestWithParam<size_t> {
 protected:
  AlgorithmsSizeTest() : stream_(Device::Default(), ApiProfile::Cuda()) {}

  std::vector<int32_t> RandomInts(size_t n, int32_t lo, int32_t hi,
                                  uint32_t seed = 1) {
    std::mt19937 rng(seed + static_cast<uint32_t>(n));
    std::uniform_int_distribution<int32_t> dist(lo, hi);
    std::vector<int32_t> out(n);
    for (auto& v : out) v = dist(rng);
    return out;
  }

  Stream stream_;
};

// Sizes straddle the 1024-element tile: sub-tile, exact, off-by-one, and
// multi-level (tile-of-tiles) cases.
INSTANTIATE_TEST_SUITE_P(Sizes, AlgorithmsSizeTest,
                         ::testing::Values(1, 2, 7, 1023, 1024, 1025, 4096,
                                           65536, 1048577));

TEST_P(AlgorithmsSizeTest, ReduceMatchesStdAccumulate) {
  const size_t n = GetParam();
  const auto host = RandomInts(n, -100, 100);
  auto dev = ToDevice(stream_, host);
  const int64_t expected =
      std::accumulate(host.begin(), host.end(), int64_t{0});
  // Reduce in int64 to avoid overflow: upconvert on upload.
  std::vector<int64_t> wide(host.begin(), host.end());
  auto dev64 = ToDevice(stream_, wide);
  const int64_t got =
      Reduce(stream_, dev64.data(), n, int64_t{0},
             [](int64_t a, int64_t b) { return a + b; });
  EXPECT_EQ(got, expected);
}

TEST_P(AlgorithmsSizeTest, ExactSumIsExactOrderIndependentAndChargesLikeReduce) {
  const size_t n = GetParam();
  // Multiples of 2^-10 sum exactly in a double, so the answer is known.
  const auto ints = RandomInts(n, -1000000, 1000000);
  std::vector<double> fixed(n);
  for (size_t i = 0; i < n; ++i) fixed[i] = std::ldexp(ints[i], -10);
  const int64_t int_total = std::accumulate(ints.begin(), ints.end(),
                                            int64_t{0});
  auto dev_fixed = ToDevice(stream_, fixed);
  EXPECT_EQ(ExactSum(stream_, dev_fixed.data(), n, "sum"),
            std::ldexp(static_cast<double>(int_total), -10));

  // Magnitudes over 40 binades: any reordering of a plain sum moves its
  // last bits; the exact sum must not move at all.
  std::mt19937 rng(7 + static_cast<uint32_t>(n));
  std::uniform_real_distribution<double> mant(-1.0, 1.0);
  std::uniform_int_distribution<int> expo(-20, 20);
  std::vector<double> wide(n);
  for (double& v : wide) v = std::ldexp(mant(rng), expo(rng));
  std::vector<double> shuffled = wide;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  auto dev_wide = ToDevice(stream_, wide);
  auto dev_shuffled = ToDevice(stream_, shuffled);
  const double a = ExactSum(stream_, dev_wide.data(), n, "sum");
  const double b = ExactSum(stream_, dev_shuffled.data(), n, "sum");
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b));
  long double approx = 0;
  for (double v : wide) approx += v;
  EXPECT_NEAR(a, static_cast<double>(approx),
              1e-9 * (1.0 + std::fabs(static_cast<double>(approx))));

  // Same launches, bytes and simulated time as the plain Reduce.
  Device exact_device(DeviceProperties(), 4);
  Stream exact(exact_device, ApiProfile::Cuda());
  auto exact_in = ToDevice(exact, wide);
  const auto exact_before = exact_device.Snapshot();
  ExactSum(exact, exact_in.data(), n, "sum");
  const auto exact_delta = exact_device.Snapshot().Delta(exact_before);
  Device plain_device(DeviceProperties(), 4);
  Stream plain(plain_device, ApiProfile::Cuda());
  auto plain_in = ToDevice(plain, wide);
  const auto plain_before = plain_device.Snapshot();
  Reduce(plain, plain_in.data(), n, 0.0,
         [](double x, double y) { return x + y; }, "sum");
  const auto plain_delta = plain_device.Snapshot().Delta(plain_before);
  EXPECT_EQ(exact.now_ns(), plain.now_ns());
  EXPECT_EQ(exact_delta.kernels_launched, plain_delta.kernels_launched);
  EXPECT_EQ(exact_delta.bytes_read, plain_delta.bytes_read);
  EXPECT_EQ(exact_delta.bytes_written, plain_delta.bytes_written);
  EXPECT_EQ(exact_delta.simulated_ns, plain_delta.simulated_ns);
  EXPECT_EQ(exact_delta.transfers, plain_delta.transfers);
  EXPECT_EQ(exact_delta.allocations, plain_delta.allocations);
}

TEST_P(AlgorithmsSizeTest, ExclusiveScanMatchesReference) {
  const size_t n = GetParam();
  const auto host = RandomInts(n, 0, 10);
  auto in = ToDevice(stream_, host);
  DeviceArray<int32_t> out(n, stream_.device());
  ExclusiveScan(stream_, in.data(), out.data(), n, int32_t{0},
                [](int32_t a, int32_t b) { return a + b; });
  const auto got = ToHost(stream_, out);
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], acc) << "at index " << i;
    acc += host[i];
  }
}

TEST_P(AlgorithmsSizeTest, InclusiveScanMatchesReference) {
  const size_t n = GetParam();
  const auto host = RandomInts(n, 0, 10);
  auto in = ToDevice(stream_, host);
  DeviceArray<int32_t> out(n, stream_.device());
  InclusiveScan(stream_, in.data(), out.data(), n,
                [](int32_t a, int32_t b) { return a + b; });
  const auto got = ToHost(stream_, out);
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += host[i];
    EXPECT_EQ(got[i], acc) << "at index " << i;
  }
}

TEST_P(AlgorithmsSizeTest, RadixSortKeysSortsInt32) {
  const size_t n = GetParam();
  auto host = RandomInts(n, std::numeric_limits<int32_t>::min(),
                         std::numeric_limits<int32_t>::max());
  auto dev = ToDevice(stream_, host);
  RadixSortKeys(stream_, dev.data(), n);
  auto got = ToHost(stream_, dev);
  std::sort(host.begin(), host.end());
  EXPECT_EQ(got, host);
}

TEST_P(AlgorithmsSizeTest, RadixSortPairsKeepsPairsTogether) {
  const size_t n = GetParam();
  const auto keys = RandomInts(n, 0, 1000);
  std::vector<uint32_t> vals(n);
  std::iota(vals.begin(), vals.end(), 0u);
  auto dkeys = ToDevice(stream_, keys);
  auto dvals = ToDevice(stream_, vals);
  RadixSortPairs(stream_, dkeys.data(), dvals.data(), n);
  const auto gk = ToHost(stream_, dkeys);
  const auto gv = ToHost(stream_, dvals);
  EXPECT_TRUE(std::is_sorted(gk.begin(), gk.end()));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(gk[i], keys[gv[i]]) << "pair broken at " << i;
  }
  // LSD radix with per-pass stable scatter is stable overall.
  for (size_t i = 1; i < n; ++i) {
    if (gk[i] == gk[i - 1]) {
      EXPECT_LT(gv[i - 1], gv[i]);
    }
  }
}

TEST_P(AlgorithmsSizeTest, CopyIfMatchesReference) {
  const size_t n = GetParam();
  const auto host = RandomInts(n, -50, 50);
  auto in = ToDevice(stream_, host);
  DeviceArray<int32_t> out(n, stream_.device());
  const auto pred = [](int32_t v) { return v > 0; };
  const size_t count = CopyIf(stream_, in.data(), n, out.data(), pred);
  std::vector<int32_t> expected;
  std::copy_if(host.begin(), host.end(), std::back_inserter(expected), pred);
  ASSERT_EQ(count, expected.size());
  auto got = ToHost(stream_, out);
  got.resize(count);
  EXPECT_EQ(got, expected);  // compaction is order-preserving
}

TEST_P(AlgorithmsSizeTest, CountIfMatchesReference) {
  const size_t n = GetParam();
  const auto host = RandomInts(n, -50, 50);
  auto in = ToDevice(stream_, host);
  const auto pred = [](int32_t v) { return v % 3 == 0; };
  const size_t got = CountIf(stream_, in.data(), n, pred);
  const size_t expected = std::count_if(host.begin(), host.end(), pred);
  EXPECT_EQ(got, expected);
}

TEST_P(AlgorithmsSizeTest, ReduceByKeyMatchesReference) {
  const size_t n = GetParam();
  auto keys = RandomInts(n, 0, 20);
  std::sort(keys.begin(), keys.end());
  const auto vals = RandomInts(n, -5, 5, /*seed=*/7);
  std::vector<int64_t> wide(vals.begin(), vals.end());
  auto dk = ToDevice(stream_, keys);
  auto dv = ToDevice(stream_, wide);
  DeviceArray<int32_t> ok(n, stream_.device());
  DeviceArray<int64_t> ov(n, stream_.device());
  const size_t groups =
      ReduceByKey(stream_, dk.data(), dv.data(), n, ok.data(), ov.data(),
                  [](int64_t a, int64_t b) { return a + b; });

  // Scalar reference.
  std::vector<int32_t> rk;
  std::vector<int64_t> rv;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || keys[i] != keys[i - 1]) {
      rk.push_back(keys[i]);
      rv.push_back(0);
    }
    rv.back() += wide[i];
  }
  ASSERT_EQ(groups, rk.size());
  auto gk = ToHost(stream_, ok);
  auto gv = ToHost(stream_, ov);
  gk.resize(groups);
  gv.resize(groups);
  EXPECT_EQ(gk, rk);
  EXPECT_EQ(gv, rv);
}

TEST_P(AlgorithmsSizeTest, UniqueSortedMatchesStdUnique) {
  const size_t n = GetParam();
  auto host = RandomInts(n, 0, 30);
  std::sort(host.begin(), host.end());
  auto in = ToDevice(stream_, host);
  DeviceArray<int32_t> out(n, stream_.device());
  const size_t count = UniqueSorted(stream_, in.data(), n, out.data());
  std::vector<int32_t> expected = host;
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  ASSERT_EQ(count, expected.size());
  auto got = ToHost(stream_, out);
  got.resize(count);
  EXPECT_EQ(got, expected);
}

class AlgorithmsTest : public ::testing::Test {
 protected:
  AlgorithmsTest() : stream_(Device::Default(), ApiProfile::Cuda()) {}
  Stream stream_;
};

TEST_F(AlgorithmsTest, FillAndSequence) {
  DeviceArray<int32_t> a(100, stream_.device());
  Fill(stream_, a.data(), 100, int32_t{42});
  for (int32_t v : ToHost(stream_, a)) EXPECT_EQ(v, 42);
  Sequence(stream_, a.data(), 100, int32_t{5}, int32_t{3});
  const auto got = ToHost(stream_, a);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(got[i], 5 + 3 * (int32_t)i);
}

TEST_F(AlgorithmsTest, ReduceEmptyReturnsInit) {
  const int32_t got = Reduce(stream_, static_cast<const int32_t*>(nullptr), 0,
                             int32_t{17},
                             [](int32_t a, int32_t b) { return a + b; });
  EXPECT_EQ(got, 17);
}

TEST_F(AlgorithmsTest, ExactSumRoundsOnceAndHandlesSpecialValues) {
  const auto sum = [&](const std::vector<double>& host) {
    auto dev = ToDevice(stream_, host);
    return ExactSum(stream_, dev.data(), host.size(), "sum");
  };
  // Ten copies of 0.1 sum to 1 + 2^-54 + ..., which rounds to 1.0; the
  // left-to-right double sum gives 0.9999999999999999.
  EXPECT_EQ(sum(std::vector<double>(10, 0.1)), 1.0);
  EXPECT_EQ(sum({1e300, 1.0, -1e300}), 1.0);
  EXPECT_EQ(sum({-2.5, 1.0}), -1.5);
  EXPECT_EQ(sum({1.0, -1.0}), 0.0);
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(sum({tiny, tiny, tiny}), 3 * tiny);
  const double big = std::numeric_limits<double>::max();
  EXPECT_EQ(sum({big, big, -big}), big);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(sum({1.0, inf}), inf);
  EXPECT_EQ(sum({-inf, 1.0}), -inf);
  EXPECT_TRUE(std::isnan(sum({inf, -inf})));
  EXPECT_TRUE(std::isnan(sum({1.0, std::nan("")})));

  std::vector<float> floats{0.5f, 0.25f, -1.0f};
  auto dev_floats = ToDevice(stream_, floats);
  EXPECT_EQ(ExactSum(stream_, dev_floats.data(), floats.size(), "sum"),
            -0.25f);
}

TEST_F(AlgorithmsTest, ExclusiveScanWithNonzeroInit) {
  std::vector<int32_t> host{1, 2, 3, 4};
  auto in = ToDevice(stream_, host);
  DeviceArray<int32_t> out(4, stream_.device());
  ExclusiveScan(stream_, in.data(), out.data(), 4, int32_t{100},
                [](int32_t a, int32_t b) { return a + b; });
  EXPECT_EQ(ToHost(stream_, out), (std::vector<int32_t>{100, 101, 103, 106}));
}

TEST_F(AlgorithmsTest, RadixSortFloatHandlesNegativesAndOrdering) {
  std::vector<float> host{3.5f, -1.25f, 0.0f, -100.0f, 2.0f, -0.5f, 1e10f,
                          -1e10f};
  auto dev = ToDevice(stream_, host);
  RadixSortKeys(stream_, dev.data(), host.size());
  auto got = ToHost(stream_, dev);
  std::sort(host.begin(), host.end());
  EXPECT_EQ(got, host);
}

TEST_F(AlgorithmsTest, RadixSortDoubleAndInt64) {
  std::vector<double> d{1.5, -2.5, 0.25, -0.125, 1e300, -1e300};
  auto dd = ToDevice(stream_, d);
  RadixSortKeys(stream_, dd.data(), d.size());
  auto gd = ToHost(stream_, dd);
  std::sort(d.begin(), d.end());
  EXPECT_EQ(gd, d);

  std::vector<int64_t> i{5, -5, (int64_t)1 << 40, -((int64_t)1 << 40), 0};
  auto di = ToDevice(stream_, i);
  RadixSortKeys(stream_, di.data(), i.size());
  auto gi = ToHost(stream_, di);
  std::sort(i.begin(), i.end());
  EXPECT_EQ(gi, i);
}

TEST_F(AlgorithmsTest, RadixTraitsRoundtripAndOrderPreserving) {
  EXPECT_EQ(RadixTraits<int32_t>::Decode(RadixTraits<int32_t>::Encode(-7)),
            -7);
  EXPECT_LT(RadixTraits<int32_t>::Encode(-7), RadixTraits<int32_t>::Encode(7));
  EXPECT_EQ(RadixTraits<float>::Decode(RadixTraits<float>::Encode(-2.5f)),
            -2.5f);
  EXPECT_LT(RadixTraits<float>::Encode(-2.5f),
            RadixTraits<float>::Encode(-1.0f));
  EXPECT_LT(RadixTraits<double>::Encode(-1.0), RadixTraits<double>::Encode(0.0));
  EXPECT_LT(RadixTraits<double>::Encode(0.0), RadixTraits<double>::Encode(1.0));
}

TEST_F(AlgorithmsTest, GatherScatterRoundtrip) {
  std::vector<double> src{10, 20, 30, 40, 50};
  std::vector<uint32_t> map{4, 3, 2, 1, 0};
  auto dsrc = ToDevice(stream_, src);
  auto dmap = ToDevice(stream_, map);
  DeviceArray<double> tmp(5, stream_.device());
  Gather(stream_, dmap.data(), 5, dsrc.data(), tmp.data());
  EXPECT_EQ(ToHost(stream_, tmp), (std::vector<double>{50, 40, 30, 20, 10}));
  DeviceArray<double> back(5, stream_.device());
  Scatter(stream_, tmp.data(), dmap.data(), 5, back.data());
  EXPECT_EQ(ToHost(stream_, back), src);
}

TEST_F(AlgorithmsTest, SetIntersectSortedMatchesStdSetIntersection) {
  std::vector<int32_t> a{1, 3, 5, 7, 9, 11};
  std::vector<int32_t> b{2, 3, 5, 8, 11, 20};
  auto da = ToDevice(stream_, a);
  auto db = ToDevice(stream_, b);
  DeviceArray<int32_t> out(a.size(), stream_.device());
  const size_t count = SetIntersectSorted(stream_, da.data(), a.size(),
                                          db.data(), b.size(), out.data());
  std::vector<int32_t> expected;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
  ASSERT_EQ(count, expected.size());
  auto got = ToHost(stream_, out);
  got.resize(count);
  EXPECT_EQ(got, expected);
}

TEST_F(AlgorithmsTest, SetIntersectEmptyInputs) {
  std::vector<int32_t> a{1, 2, 3};
  auto da = ToDevice(stream_, a);
  DeviceArray<int32_t> out(3, stream_.device());
  EXPECT_EQ(SetIntersectSorted(stream_, da.data(), 3,
                               static_cast<const int32_t*>(nullptr), 0,
                               out.data()),
            0u);
  EXPECT_EQ(SetIntersectSorted(stream_, static_cast<const int32_t*>(nullptr),
                               0, da.data(), 3, out.data()),
            0u);
}

TEST_F(AlgorithmsTest, BinarySearchContains) {
  std::vector<int32_t> v{2, 4, 6, 8};
  EXPECT_TRUE(BinarySearchContains(v.data(), v.size(), 2));
  EXPECT_TRUE(BinarySearchContains(v.data(), v.size(), 8));
  EXPECT_FALSE(BinarySearchContains(v.data(), v.size(), 1));
  EXPECT_FALSE(BinarySearchContains(v.data(), v.size(), 5));
  EXPECT_FALSE(BinarySearchContains(v.data(), v.size(), 9));
  EXPECT_FALSE(BinarySearchContains(v.data(), size_t{0}, 2));
}

TEST_F(AlgorithmsTest, ScanKernelCountGrowsWithLevels) {
  // One tile: 1 scan kernel. Many tiles: tile scan + recursive scan +
  // uniform add. The counter delta proves the multi-level structure.
  Device& device = stream_.device();
  DeviceArray<int32_t> small_in(100, device), small_out(100, device);
  Fill(stream_, small_in.data(), 100, 1);
  auto before = device.Snapshot();
  ExclusiveScan(stream_, small_in.data(), small_out.data(), 100, 0,
                [](int32_t a, int32_t b) { return a + b; });
  const auto small_kernels =
      device.Snapshot().Delta(before).kernels_launched;

  const size_t big_n = 4096;
  DeviceArray<int32_t> big_in(big_n, device), big_out(big_n, device);
  Fill(stream_, big_in.data(), big_n, 1);
  before = device.Snapshot();
  ExclusiveScan(stream_, big_in.data(), big_out.data(), big_n, 0,
                [](int32_t a, int32_t b) { return a + b; });
  const auto big_kernels = device.Snapshot().Delta(before).kernels_launched;
  EXPECT_GT(big_kernels, small_kernels);
}

}  // namespace
}  // namespace gpusim
