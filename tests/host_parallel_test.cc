// Host-parallel paths whose simulated charges must not depend on how many
// host threads run them: the chunked compaction behind afsim::where, the
// per-column analysis and encoding of a table upload, and the tile JIT.
// Devices here have 4 host threads, so grids and tables really split into
// concurrent chunks; CI also runs this binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "afsim/afsim.h"
#include "gpusim/algorithms.h"
#include "gpusim/trace.h"
#include "storage/encoded_column.h"
#include "storage/encoding.h"
#include "tpch/datagen.h"

namespace {

constexpr unsigned kHostThreads = 4;

/// One run of a compaction: output, simulated ns and counter deltas.
struct Compacted {
  std::vector<uint32_t> out;
  uint64_t ns = 0;
  gpusim::CounterSnapshot delta;
};

/// CopyIndexIf (flag kernel, scan, scatter) on a fresh device.
Compacted RunPipeline(const std::vector<uint8_t>& mask) {
  gpusim::Device device(gpusim::DeviceProperties(), kHostThreads);
  gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());
  std::vector<uint32_t> rows(mask.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  gpusim::DeviceArray<uint32_t> values(rows.size(), device);
  gpusim::DeviceArray<uint32_t> out(rows.size(), device);
  std::memcpy(values.data(), rows.data(), rows.size() * sizeof(uint32_t));
  const auto before = device.Snapshot();
  const uint64_t t0 = stream.now_ns();
  const uint8_t* m = mask.data();
  const size_t count = gpusim::CopyIndexIf(
      stream, mask.size(), values.data(), out.data(),
      [=](size_t i) { return m[i] != 0; });
  Compacted r;
  r.ns = stream.now_ns() - t0;
  r.delta = device.Snapshot().Delta(before);
  r.out.assign(out.data(), out.data() + count);
  return r;
}

/// The same compaction through ChunkedCompaction with CopyIndexIf's stats.
Compacted RunChunked(const std::vector<uint8_t>& mask) {
  gpusim::Device device(gpusim::DeviceProperties(), kHostThreads);
  gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());
  const size_t n = mask.size();
  gpusim::DeviceArray<uint32_t> values(n, device);
  gpusim::DeviceArray<uint32_t> out(n, device);
  const auto before = device.Snapshot();
  const uint64_t t0 = stream.now_ns();
  gpusim::KernelStats flags;
  flags.name = "copy_index_if_flags";
  flags.bytes_written = n * sizeof(uint32_t);
  gpusim::KernelStats scatter;
  scatter.name = "copy_index_if_scatter";
  scatter.bytes_read = n * (sizeof(uint32_t) + 2 * sizeof(uint32_t));
  const uint8_t* m = mask.data();
  uint32_t* o = out.data();
  size_t prepared = 0;
  const size_t count = gpusim::detail::ChunkedCompaction(
      stream, n, flags, scatter, sizeof(uint32_t),
      [=](size_t i) { return m[i] != 0; },
      [&](size_t c) { prepared = c; },
      [=](uint32_t pos, size_t i) { o[pos] = static_cast<uint32_t>(i); });
  EXPECT_EQ(prepared, count);
  Compacted r;
  r.ns = stream.now_ns() - t0;
  r.delta = device.Snapshot().Delta(before);
  r.out.assign(out.data(), out.data() + count);
  return r;
}

void ExpectSameCharges(const gpusim::CounterSnapshot& want,
                       const gpusim::CounterSnapshot& got,
                       const std::string& what) {
  EXPECT_EQ(got.kernels_launched, want.kernels_launched) << what;
  EXPECT_EQ(got.bytes_read, want.bytes_read) << what;
  EXPECT_EQ(got.bytes_written, want.bytes_written) << what;
  EXPECT_EQ(got.bytes_h2d, want.bytes_h2d) << what;
  EXPECT_EQ(got.bytes_d2h, want.bytes_d2h) << what;
  EXPECT_EQ(got.transfers, want.transfers) << what;
  EXPECT_EQ(got.allocations, want.allocations) << what;
  EXPECT_EQ(got.bytes_allocated, want.bytes_allocated) << what;
  EXPECT_EQ(got.peak_bytes, want.peak_bytes) << what;
}

TEST(ChunkedCompactionTest, ChargesAndOutputEqualTheThreePassPipeline) {
  std::mt19937 rng(3);
  for (const size_t n : {size_t{1}, size_t{64}, size_t{4096}, size_t{4097},
                         size_t{100000}, size_t{(1u << 20) + 3}}) {
    std::vector<std::pair<std::string, std::vector<uint8_t>>> masks;
    masks.emplace_back("none", std::vector<uint8_t>(n, 0));
    masks.emplace_back("all", std::vector<uint8_t>(n, 1));
    std::vector<uint8_t> half(n), sparse(n, 0), edges(n, 0);
    for (uint8_t& x : half) x = static_cast<uint8_t>(rng() % 2);
    for (size_t i = 0; i < n; i += 997) sparse[i] = 1;
    // Rows on both sides of every boundary a 4-thread grid may cut at.
    for (size_t b = 64; b < n; b += 64) edges[b - 1] = edges[b] = 1;
    edges[n - 1] = 1;
    masks.emplace_back("half", half);
    masks.emplace_back("sparse", sparse);
    masks.emplace_back("edges", edges);
    for (const auto& [name, mask] : masks) {
      const std::string what = name + " n=" + std::to_string(n);
      const Compacted want = RunPipeline(mask);
      const Compacted got = RunChunked(mask);
      EXPECT_EQ(got.out, want.out) << what;
      EXPECT_EQ(got.ns, want.ns) << what;
      ExpectSameCharges(want.delta, got.delta, what);
    }
  }
}

TEST(ParallelEncodingTest, UploadTimelineDoesNotDependOnHostThreads) {
  tpch::Config config;
  config.scale_factor = 0.01;
  const storage::Table lineitem = tpch::GenerateLineitem(config);

  struct Upload {
    uint64_t ns = 0;
    uint64_t bytes = 0;
    gpusim::CounterSnapshot delta;
    std::vector<std::string> timeline;  ///< transfers in stream order
    std::vector<std::vector<uint64_t>> words;  ///< packed payload per column
  };
  const auto timeline = [](const gpusim::Tracer& tracer) {
    std::vector<std::string> out;
    for (const gpusim::TraceEvent& e : tracer.events()) {
      out.push_back(e.name + "@" + std::to_string(e.start_ns) + "+" +
                    std::to_string(e.duration_ns));
    }
    return out;
  };
  const auto upload = [&](unsigned threads) {
    gpusim::Device device(gpusim::DeviceProperties(), threads);
    gpusim::Tracer tracer;
    device.set_tracer(&tracer);
    gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());
    const auto before = device.Snapshot();
    Upload u;
    const storage::DeviceTable table =
        storage::UploadTableEncoded(stream, lineitem, &u.bytes);
    u.ns = stream.now_ns();
    u.delta = device.Snapshot().Delta(before);
    u.timeline = timeline(tracer);
    device.set_tracer(nullptr);
    for (const std::string& name : lineitem.column_names()) {
      if (!table.HasEncoded(name)) continue;
      const storage::EncodedDeviceColumn& c = table.encoded(name);
      const uint64_t* w = c.words_data();
      u.words.emplace_back(w, w + c.words.size());
    }
    return u;
  };
  // The serial reference: analyze, encode and upload column by column.
  gpusim::Device device(gpusim::DeviceProperties(), 1);
  gpusim::Tracer tracer;
  device.set_tracer(&tracer);
  gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());
  const auto before = device.Snapshot();
  std::vector<storage::DeviceColumn> raw;
  std::vector<storage::EncodedDeviceColumn> serial;
  for (const std::string& name : lineitem.column_names()) {
    const storage::Column& c = lineitem.column(name);
    const storage::EncodingChoice choice =
        storage::ChooseEncoding(storage::AnalyzeColumn(c), c.size(), c.type());
    if (choice.encoding == storage::Encoding::kNone) {
      raw.push_back(storage::UploadColumn(stream, c));
    } else {
      serial.push_back(storage::UploadColumnEncoded(
          stream, storage::EncodeColumn(c, choice)));
    }
  }
  const gpusim::CounterSnapshot serial_delta =
      device.Snapshot().Delta(before);
  device.set_tracer(nullptr);

  const Upload one = upload(1);
  const Upload four = upload(kHostThreads);
  EXPECT_EQ(one.ns, stream.now_ns());
  ExpectSameCharges(serial_delta, one.delta, "serial");
  EXPECT_EQ(one.timeline, timeline(tracer));
  EXPECT_EQ(four.timeline, one.timeline);
  EXPECT_EQ(four.ns, one.ns);
  EXPECT_EQ(four.bytes, one.bytes);
  ExpectSameCharges(one.delta, four.delta, "upload");
  EXPECT_EQ(four.words, one.words);
  EXPECT_FALSE(one.words.empty());
}

TEST(ParallelEncodingTest, TableChoicesOnAFourThreadPoolMatchSerialAnalysis) {
  tpch::Config config;
  config.scale_factor = 0.01;
  const storage::Table orders = tpch::GenerateOrders(config);
  gpusim::Device device(gpusim::DeviceProperties(), kHostThreads);
  gpusim::Device::DeviceGuard guard(device);
  const std::vector<storage::EncodingChoice> choices =
      storage::ChooseTableEncodings(orders);
  ASSERT_EQ(choices.size(), orders.num_columns());
  for (size_t c = 0; c < choices.size(); ++c) {
    const storage::Column& column = orders.column(orders.column_names()[c]);
    const storage::EncodingChoice want = storage::ChooseEncoding(
        storage::AnalyzeColumn(column), column.size(), column.type());
    EXPECT_EQ(choices[c].encoding, want.encoding) << c;
    EXPECT_EQ(choices[c].bit_width, want.bit_width) << c;
    EXPECT_EQ(choices[c].reference, want.reference) << c;
    EXPECT_EQ(choices[c].encoded_bytes, want.encoded_bytes) << c;
  }
}

TEST(AfsimParallelTest, LargeJitAndWhereAcrossPoolChunks) {
  // The default device's pool splits a grid this size into many chunks.
  const size_t n = (1u << 20) + 17;
  std::vector<int32_t> keys(n);
  std::vector<double> prices(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<int32_t>((i * 2654435761u) % 1000);
    prices[i] = static_cast<double>(i % 97) * 0.5;
  }
  const afsim::array k = afsim::from_vector(keys);
  const afsim::array p = afsim::from_vector(prices);
  const afsim::array mask = (k < 250.0) && (p * 2.0 >= 10.0);
  const std::vector<uint8_t> got = mask.host<uint8_t>();
  std::vector<uint32_t> want_idx;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t want = keys[i] < 250 && prices[i] * 2.0 >= 10.0;
    ASSERT_EQ(got[i], want) << i;
    if (want) want_idx.push_back(static_cast<uint32_t>(i));
  }
  EXPECT_EQ(afsim::where(mask).host<uint32_t>(), want_idx);
}

}  // namespace
