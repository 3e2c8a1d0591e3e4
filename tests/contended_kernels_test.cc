// Correctness of the kernels whose device atomics run chunk-privatized on
// the host (see gpusim::ParallelForChunks): hash grouped aggregation, the
// segmented combine of ReduceByKey, and the atomic-ticket compactions. Every
// test runs on a 4-thread device so grids really split into concurrent
// chunks, and uses integer values so results compare exactly against a host
// reference. Built into the concurrency_tests binary, which CI also runs
// under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "backends/backends.h"
#include "core/backend.h"
#include "gpusim/algorithms.h"
#include "handwritten/handwritten.h"
#include "storage/device_column.h"
#include "storage/encoded_column.h"
#include "storage/encoding.h"

namespace {

using core::CompareOp;
using core::Predicate;

constexpr unsigned kHostThreads = 4;

class ContendedKernelTest : public ::testing::Test {
 protected:
  ContendedKernelTest()
      : device_(gpusim::DeviceProperties(), kHostThreads),
        stream_(device_, gpusim::ApiProfile::Cuda()) {}

  /// Grouped sum, count (a sum over ones), min and max of `values` by
  /// `keys` through HashGroupByReduce, checked exactly against a host map.
  void ExpectGroupByMatches(const std::vector<int32_t>& keys,
                            const std::vector<int64_t>& values,
                            size_t expected_groups) {
    struct Ref {
      int64_t sum = 0, count = 0;
      int64_t min = std::numeric_limits<int64_t>::max();
      int64_t max = std::numeric_limits<int64_t>::lowest();
    };
    std::map<int32_t, Ref> ref;
    for (size_t i = 0; i < keys.size(); ++i) {
      Ref& r = ref[keys[i]];
      r.sum += values[i];
      r.count += 1;
      r.min = std::min(r.min, values[i]);
      r.max = std::max(r.max, values[i]);
    }
    ASSERT_EQ(ref.size(), expected_groups);

    const size_t n = keys.size();
    auto dk = gpusim::ToDevice(stream_, keys, device_);
    auto dv = gpusim::ToDevice(stream_, values, device_);
    auto ones = gpusim::ToDevice(stream_, std::vector<int64_t>(n, 1), device_);
    const auto run = [&](const int64_t* vals, int64_t identity, auto op) {
      auto grouped = handwritten::HashGroupByReduce(stream_, dk.data(), vals,
                                                    n, identity, op);
      EXPECT_EQ(grouped.num_groups, ref.size());
      auto gk = gpusim::ToHost(stream_, grouped.keys);
      auto gv = gpusim::ToHost(stream_, grouped.sums);
      std::map<int32_t, int64_t> got;
      for (size_t g = 0; g < grouped.num_groups; ++g) {
        EXPECT_TRUE(got.emplace(gk[g], gv[g]).second) << "dup key " << gk[g];
      }
      return got;
    };
    const auto sums = run(dv.data(), 0, [](int64_t a, int64_t b) {
      return a + b;
    });
    const auto counts = run(ones.data(), 0, [](int64_t a, int64_t b) {
      return a + b;
    });
    const auto mins = run(dv.data(), std::numeric_limits<int64_t>::max(),
                          [](int64_t a, int64_t b) { return b < a ? b : a; });
    const auto maxs = run(dv.data(), std::numeric_limits<int64_t>::lowest(),
                          [](int64_t a, int64_t b) { return a < b ? b : a; });
    for (const auto& [key, r] : ref) {
      ASSERT_EQ(sums.count(key), 1u) << key;
      EXPECT_EQ(sums.at(key), r.sum) << key;
      EXPECT_EQ(counts.at(key), r.count) << key;
      EXPECT_EQ(mins.at(key), r.min) << key;
      EXPECT_EQ(maxs.at(key), r.max) << key;
    }
  }

  /// Segmented sum and max of `values` over consecutive equal `keys`
  /// through ReduceByKey, checked exactly against a host pass.
  void ExpectReduceByKeyMatches(const std::vector<int32_t>& keys,
                                const std::vector<int64_t>& values) {
    std::vector<int32_t> ref_keys;
    std::vector<int64_t> ref_sums, ref_maxs;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i == 0 || keys[i] != keys[i - 1]) {
        ref_keys.push_back(keys[i]);
        ref_sums.push_back(values[i]);
        ref_maxs.push_back(values[i]);
      } else {
        ref_sums.back() += values[i];
        ref_maxs.back() = std::max(ref_maxs.back(), values[i]);
      }
    }
    const size_t n = keys.size();
    auto dk = gpusim::ToDevice(stream_, keys, device_);
    auto dv = gpusim::ToDevice(stream_, values, device_);
    gpusim::DeviceArray<int32_t> out_keys(n, device_);
    gpusim::DeviceArray<int64_t> out_vals(n, device_);
    const auto run = [&](auto op) {
      const size_t segments =
          gpusim::ReduceByKey(stream_, dk.data(), dv.data(), n,
                              out_keys.data(), out_vals.data(), op);
      EXPECT_EQ(segments, ref_keys.size());
      auto gk = gpusim::ToHost(stream_, out_keys);
      auto gv = gpusim::ToHost(stream_, out_vals);
      gk.resize(segments);
      gv.resize(segments);
      EXPECT_EQ(gk, ref_keys);
      return gv;
    };
    EXPECT_EQ(run([](int64_t a, int64_t b) { return a + b; }), ref_sums);
    EXPECT_EQ(run([](int64_t a, int64_t b) { return a < b ? b : a; }),
              ref_maxs);
  }

  gpusim::Device device_;
  gpusim::Stream stream_;
};

/// n uniform codes in [0, 100): a threshold t selects ~t% of the rows.
std::vector<int32_t> Codes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<int32_t> codes(n);
  for (auto& c : codes) c = static_cast<int32_t>(rng() % 100);
  return codes;
}

/// Host reference: ids of rows whose code is below `threshold`.
std::vector<uint32_t> RowsBelow(const std::vector<int32_t>& codes,
                                int32_t threshold) {
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < codes.size(); ++i) {
    if (codes[i] < threshold) rows.push_back(i);
  }
  return rows;
}

std::vector<uint32_t> SortedPrefix(std::vector<uint32_t> v, size_t count) {
  v.resize(count);
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<uint32_t> SortedRows(const gpusim::DeviceArray<uint32_t>& rows,
                                 size_t count, gpusim::Stream& stream) {
  return SortedPrefix(gpusim::ToHost(stream, rows), count);
}

std::vector<uint32_t> SortedRows(const core::SelectionResult& sel,
                                 gpusim::Stream& stream) {
  const storage::Column host = sel.row_ids.ToHost(stream);
  const auto& ids = host.values<int32_t>();
  return SortedPrefix(std::vector<uint32_t>(ids.begin(), ids.end()),
                      sel.count);
}

// 0%, ~50% and 100% selectivity over codes in [0, 100).
constexpr int32_t kThresholds[] = {0, 50, 100};
constexpr size_t kSelectRows = 300'000;

TEST_F(ContendedKernelTest, GroupByFewKeysManyRows) {
  // Four groups over a million rows: every chunk hits the same four global
  // slots, the case privatization exists for.
  const size_t n = 1 << 20;
  std::mt19937 rng(3);
  std::vector<int32_t> keys(n);
  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<int32_t>(rng() % 4) * 7 + 1;
    values[i] = static_cast<int64_t>(rng() % 2001) - 1000;
  }
  ExpectGroupByMatches(keys, values, 4);
}

TEST_F(ContendedKernelTest, GroupByManyKeysOverflowsPrivateTable) {
  // 200k distinct keys: every chunk overflows its private table and falls
  // back to global atomics for the rest of its rows.
  const size_t n = 1 << 20;
  const size_t groups = 200'000;
  std::mt19937 rng(4);
  std::vector<int32_t> keys(n);
  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    // Every key appears at least once; the rest are uniform.
    keys[i] = static_cast<int32_t>(i < groups ? i : rng() % groups);
    values[i] = static_cast<int64_t>(rng() % 1000);
  }
  std::shuffle(keys.begin(), keys.end(), rng);
  ExpectGroupByMatches(keys, values, groups);
}

TEST_F(ContendedKernelTest, ReduceByKeyOneSegmentSpanningEveryChunk) {
  const size_t n = 1 << 20;
  std::mt19937 rng(5);
  std::vector<int32_t> keys(n, 42);
  std::vector<int64_t> values(n);
  for (auto& v : values) v = static_cast<int64_t>(rng() % 1000) - 300;
  ExpectReduceByKeyMatches(keys, values);
}

TEST_F(ContendedKernelTest, ReduceByKeySegmentsStraddleChunkBoundaries) {
  // Segment lengths cycle through single heads, runs that end or start
  // exactly on a chunk edge, and runs covering several chunks.
  const size_t n = 1 << 20;
  const size_t chunk = gpusim::HostChunkThreads(n, kHostThreads);
  ASSERT_GT(n / chunk, 4u) << "grid must split into several chunks";
  const size_t lengths[] = {1, 2, chunk - 1, chunk, chunk + 1, 7,
                            3 * chunk + 5, 1, 1};
  std::mt19937 rng(6);
  std::vector<int32_t> keys;
  std::vector<int64_t> values;
  int32_t key = -5;
  for (size_t s = 0; keys.size() < n; ++s, key += 3) {
    const size_t len = std::min(lengths[s % std::size(lengths)],
                                n - keys.size());
    for (size_t j = 0; j < len; ++j) {
      keys.push_back(key);
      values.push_back(static_cast<int64_t>(rng() % 5000));
    }
  }
  ExpectReduceByKeyMatches(keys, values);
}

TEST_F(ContendedKernelTest, SelectIndicesReturnsExactRowSet) {
  const auto codes = Codes(kSelectRows, 7);
  auto col = gpusim::ToDevice(stream_, codes, device_);
  gpusim::DeviceArray<uint32_t> out(kSelectRows, device_);
  for (const int32_t t : kThresholds) {
    const size_t count = handwritten::SelectIndices(
        stream_, col.data(), kSelectRows, out.data(),
        [t](int32_t v) { return v < t; });
    EXPECT_EQ(SortedRows(out, count, stream_), RowsBelow(codes, t))
        << "threshold " << t;
  }
}

TEST_F(ContendedKernelTest, HashJoinProbeReturnsExactPairSet) {
  // Build keys 0, 2, 4, ...; probe keys in [0, 2 * build) hit for even keys
  // below the threshold, so the thresholds give 0%, ~50% and 100% matches.
  const size_t n_build = 50'000;
  std::vector<int32_t> build(n_build);
  for (size_t i = 0; i < n_build; ++i) build[i] = static_cast<int32_t>(2 * i);
  auto db = gpusim::ToDevice(stream_, build, device_);
  handwritten::HashJoin<int32_t> table(stream_, db.data(), n_build);

  std::mt19937 rng(8);
  const size_t n_probe = kSelectRows;
  for (const int32_t t : kThresholds) {
    std::vector<int32_t> probe(n_probe);
    std::vector<std::pair<uint32_t, uint32_t>> expected;
    for (uint32_t i = 0; i < n_probe; ++i) {
      const uint32_t b = rng() % n_build;
      const bool hit = static_cast<int32_t>(rng() % 100) < t;
      probe[i] = static_cast<int32_t>(2 * b + (hit ? 0 : 1));
      if (hit) expected.push_back({b, i});
    }
    auto dp = gpusim::ToDevice(stream_, probe, device_);
    gpusim::DeviceArray<uint32_t> build_rows(n_probe, device_);
    gpusim::DeviceArray<uint32_t> probe_rows(n_probe, device_);
    const size_t count = table.Probe(dp.data(), n_probe, build_rows.data(),
                                     probe_rows.data());
    ASSERT_EQ(count, expected.size()) << "threshold " << t;
    const auto gb = gpusim::ToHost(stream_, build_rows);
    const auto gp = gpusim::ToHost(stream_, probe_rows);
    std::vector<std::pair<uint32_t, uint32_t>> got;
    for (size_t i = 0; i < count; ++i) got.push_back({gb[i], gp[i]});
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "threshold " << t;
  }
}

TEST_F(ContendedKernelTest, FusedSelectsReturnExactRowSets) {
  // The backend's ticketed selects: compare-columns, multi-predicate
  // (conjunctive and disjunctive) and the encoded fused scan.
  gpusim::Device::DeviceGuard guard(device_);
  std::unique_ptr<core::Backend> backend = backends::CreateHandwrittenBackend();
  gpusim::Stream& bs = backend->stream();
  const auto codes = Codes(kSelectRows, 9);
  const storage::Column host_codes{std::vector<int32_t>(codes)};
  const storage::DeviceColumn raw = storage::UploadColumn(bs, host_codes);
  const storage::EncodedDeviceColumn enc = storage::UploadColumnEncoded(
      bs, storage::EncodeColumn(host_codes));
  ASSERT_NE(enc.encoding, storage::Encoding::kNone);

  for (const int32_t t : kThresholds) {
    const std::vector<uint32_t> expected = RowsBelow(codes, t);
    const Predicate below = Predicate::Make("c", CompareOp::kLt, t);
    SCOPED_TRACE(testing::Message() << "threshold " << t);

    const storage::DeviceColumn thresholds = storage::UploadColumn(
        bs, storage::Column{std::vector<int32_t>(kSelectRows, t)});
    EXPECT_EQ(SortedRows(backend->SelectCompareColumns(raw, CompareOp::kLt,
                                                       thresholds),
                         bs),
              expected);
    // c < t AND c < 100 (always true) / c < t OR c < 0 (never true).
    EXPECT_EQ(SortedRows(backend->SelectConjunctive(
                             {&raw, &raw},
                             {below, Predicate::Make("c", CompareOp::kLt,
                                                     100)}),
                         bs),
              expected);
    EXPECT_EQ(SortedRows(backend->SelectDisjunctive(
                             {&raw, &raw},
                             {below,
                              Predicate::Make("c", CompareOp::kLt, 0)}),
                         bs),
              expected);
    EXPECT_EQ(SortedRows(backend->SelectConjunctiveEncoded(
                             {core::ScanColumnRef::Encoded(enc),
                              core::ScanColumnRef::Raw(raw)},
                             {below, below}),
                         bs),
              expected);
  }
}

TEST_F(ContendedKernelTest, DenseEncodedGroupByMatchesReference) {
  // GroupByAggregateEncoded over a bit-packed 6-code key domain: every
  // chunk combines into the same few dense slots.
  gpusim::Device::DeviceGuard guard(device_);
  std::unique_ptr<core::Backend> backend = backends::CreateHandwrittenBackend();
  gpusim::Stream& bs = backend->stream();
  const size_t n = 1 << 20;
  std::mt19937 rng(10);
  std::vector<int32_t> keys(n);
  std::vector<int64_t> values(n);
  std::map<int32_t, int64_t> ref_sum, ref_count;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<int32_t>(rng() % 6);
    values[i] = static_cast<int64_t>(rng() % 1000);
    ref_sum[keys[i]] += values[i];
    ++ref_count[keys[i]];
  }
  const storage::Column host_keys{std::vector<int32_t>(keys)};
  const storage::EncodedDeviceColumn enc = storage::UploadColumnEncoded(
      bs, storage::EncodeColumn(host_keys));
  ASSERT_EQ(enc.encoding, storage::Encoding::kBitPack);
  const storage::DeviceColumn vals =
      storage::UploadColumn(bs, storage::Column{std::vector<int64_t>(values)});
  std::vector<int32_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int32_t>(i);
  core::SelectionResult rows;
  rows.row_ids = storage::UploadColumn(bs, storage::Column{std::move(ids)});
  rows.count = n;

  const auto collect = [&](const core::GroupByResult& r, auto tag) {
    using A = decltype(tag);
    const auto k = r.keys.ToHost(bs).values<int32_t>();
    const auto a = r.aggregate.ToHost(bs).values<A>();
    std::map<int32_t, int64_t> got;
    for (size_t g = 0; g < r.num_groups; ++g) {
      if (a[g] != 0) got[k[g]] = static_cast<int64_t>(a[g]);
    }
    return got;
  };
  EXPECT_EQ(collect(backend->GroupByAggregateEncoded(enc, rows, vals,
                                                     core::AggOp::kSum),
                    double{}),
            ref_sum);
  EXPECT_EQ(collect(backend->GroupByAggregateEncoded(enc, rows, vals,
                                                     core::AggOp::kCount),
                    int64_t{}),
            ref_count);
}

}  // namespace
