// Tests of the lightweight column encodings (storage/encoding.h): randomized
// round-trip properties per scheme, encoded-domain predicate rewriting, the
// encoded-vs-raw differential over the TPC-H queries on every backend, and
// the footprint regression pinning encoded base-table sizing.
#include "storage/encoding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "backends/backends.h"
#include "core/backend.h"
#include "core/registry.h"
#include "plan/partition.h"
#include "plan/partition_detail.h"
#include "plan/prepared.h"
#include "storage/encoded_column.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace {

using core::CompareOp;
using core::Predicate;
using storage::ChooseEncoding;
using storage::Column;
using storage::DataType;
using storage::DecodeColumnHost;
using storage::EncodeColumn;
using storage::EncodedColumn;
using storage::Encoding;
using storage::EncodingChoice;

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

template <typename T>
void ExpectRoundTrip(const std::vector<T>& values,
                     const EncodingChoice& choice) {
  const Column original((std::vector<T>(values)));
  const EncodedColumn encoded = EncodeColumn(original, choice);
  const Column decoded = DecodeColumnHost(encoded);
  ASSERT_EQ(decoded.type(), original.type());
  ASSERT_EQ(decoded.size(), values.size());
  EXPECT_EQ(decoded.values<T>(), values);
}

EncodingChoice Force(Encoding e, unsigned bits = 0, int64_t reference = 0) {
  EncodingChoice c;
  c.encoding = e;
  c.bit_width = bits;
  c.reference = reference;
  return c;
}

TEST(EncodingRoundTripTest, BitPackRandomizedWidths) {
  std::mt19937 rng(7);
  for (int iter = 0; iter < 20; ++iter) {
    const unsigned bits = 1 + rng() % 31;
    const size_t n = 1 + rng() % 500;
    std::vector<int32_t> v(n);
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    for (auto& x : v) x = static_cast<int32_t>(rng() & mask);
    ExpectRoundTrip(v, Force(Encoding::kBitPack, bits));
  }
}

TEST(EncodingRoundTripTest, BitPackMaxWidthInt64) {
  // 63-bit codes force every pack/unpack to straddle word boundaries.
  std::mt19937_64 rng(11);
  std::vector<int64_t> v(257);
  for (auto& x : v) {
    x = static_cast<int64_t>(rng() & ((uint64_t{1} << 63) - 1));
  }
  v[0] = (int64_t{1} << 62) + ((int64_t{1} << 62) - 1);  // max 63-bit value
  v[1] = 0;
  ExpectRoundTrip(v, Force(Encoding::kBitPack, 63));
}

TEST(EncodingRoundTripTest, FrameOfReferenceRandomized) {
  std::mt19937 rng(13);
  for (int iter = 0; iter < 20; ++iter) {
    const unsigned bits = 1 + rng() % 20;
    const int64_t reference =
        static_cast<int64_t>(rng()) - 2000000000;  // negative frames too
    const size_t n = 1 + rng() % 500;
    std::vector<int64_t> v(n);
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    for (auto& x : v) x = reference + static_cast<int64_t>(rng() & mask);
    ExpectRoundTrip(v, Force(Encoding::kFor, bits, reference));
  }
}

TEST(EncodingRoundTripTest, DictionarySingleDistinctValue) {
  const std::vector<double> v(100, 0.0625);
  ExpectRoundTrip(v, Force(Encoding::kDictionary));
}

TEST(EncodingRoundTripTest, DictionaryAtMaxDistinctCap) {
  // Exactly kMaxDictSize distinct values, shuffled: 16-bit codes.
  std::vector<int32_t> v(storage::kMaxDictSize);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int32_t>(i) - 777;
  std::mt19937 rng(17);
  std::shuffle(v.begin(), v.end(), rng);
  const Column original((std::vector<int32_t>(v)));
  const EncodedColumn encoded =
      EncodeColumn(original, Force(Encoding::kDictionary));
  EXPECT_EQ(encoded.bit_width, 16u);
  EXPECT_EQ(encoded.dict_i64.size(), storage::kMaxDictSize);
  const Column decoded = DecodeColumnHost(encoded);
  EXPECT_EQ(decoded.values<int32_t>(), v);
}

TEST(EncodingRoundTripTest, DictionaryRandomFloatPool) {
  std::mt19937 rng(19);
  for (int iter = 0; iter < 20; ++iter) {
    const size_t pool = 1 + rng() % 50;
    std::vector<double> values(1 + rng() % 400);
    for (auto& x : values) {
      x = (static_cast<double>(rng() % pool) - pool / 2.0) / 16.0;
    }
    ExpectRoundTrip(values, Force(Encoding::kDictionary));
  }
}

TEST(EncodingRoundTripTest, RleSingleRun) {
  const std::vector<int32_t> v(1000, 42);
  const Column original((std::vector<int32_t>(v)));
  const EncodedColumn encoded = EncodeColumn(original, Force(Encoding::kRle));
  EXPECT_EQ(encoded.rle_values.size(), 1u);
  EXPECT_EQ(encoded.rle_ends.back(), 1000u);
  EXPECT_EQ(DecodeColumnHost(encoded).values<int32_t>(), v);
}

TEST(EncodingRoundTripTest, RleRandomRuns) {
  std::mt19937 rng(23);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<int32_t> v;
    int32_t value = static_cast<int32_t>(rng() % 100);
    while (v.size() < 300) {
      const size_t run = 1 + rng() % 17;
      for (size_t i = 0; i < run && v.size() < 300; ++i) v.push_back(value);
      value += 1 + static_cast<int32_t>(rng() % 3);
    }
    ExpectRoundTrip(v, Force(Encoding::kRle));
  }
}

TEST(EncodingRoundTripTest, EmptyColumnsEveryScheme) {
  ExpectRoundTrip(std::vector<int32_t>{}, Force(Encoding::kBitPack, 1));
  ExpectRoundTrip(std::vector<int64_t>{}, Force(Encoding::kFor, 1, 5));
  ExpectRoundTrip(std::vector<double>{}, Force(Encoding::kDictionary));
  ExpectRoundTrip(std::vector<int32_t>{}, Force(Encoding::kRle));
}

TEST(EncodingRoundTripTest, AutoChoiceRoundTripsDatagenColumns) {
  tpch::Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  for (const std::string& name : lineitem.column_names()) {
    const Column& c = lineitem.column(name);
    const EncodingChoice choice =
        ChooseEncoding(storage::AnalyzeColumn(c), c.size(), c.type());
    if (choice.encoding == Encoding::kNone) continue;
    const EncodedColumn encoded = EncodeColumn(c, choice);
    EXPECT_LE(encoded.encoded_byte_size(), c.byte_size()) << name;
    const Column decoded = DecodeColumnHost(encoded);
    ASSERT_EQ(decoded.size(), c.size()) << name;
    if (c.type() == DataType::kFloat64) {
      EXPECT_EQ(decoded.values<double>(), c.values<double>()) << name;
    } else if (c.type() == DataType::kInt32) {
      EXPECT_EQ(decoded.values<int32_t>(), c.values<int32_t>()) << name;
    } else if (c.type() == DataType::kInt64) {
      EXPECT_EQ(decoded.values<int64_t>(), c.values<int64_t>()) << name;
    }
  }
}

TEST(EncodingChoiceTest, PicksExpectedSchemesForTpchShapes) {
  tpch::Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const auto choose = [&](const char* name) {
    const Column& c = lineitem.column(name);
    return ChooseEncoding(storage::AnalyzeColumn(c), c.size(), c.type())
        .encoding;
  };
  EXPECT_EQ(choose("l_orderkey"), Encoding::kRle);      // sorted, long runs
  EXPECT_EQ(choose("l_shipdate"), Encoding::kFor);      // narrow date range
  EXPECT_EQ(choose("l_returnflag"), Encoding::kBitPack);  // tiny domain
  EXPECT_EQ(choose("l_discount"), Encoding::kDictionary);  // 11 floats
}

// ---------------------------------------------------------------------------
// Encoded-domain predicate rewriting
// ---------------------------------------------------------------------------

class PredicateRewriteTest : public ::testing::Test {
 protected:
  gpusim::Stream stream_{gpusim::Device::Default(),
                         gpusim::ApiProfile::Cuda()};

  /// Uploads `values` under the forced `choice` and checks that the encoded
  /// scan matcher agrees with a plain host evaluation for every row.
  template <typename T>
  void ExpectMatcherAgrees(const std::vector<T>& values,
                           const EncodingChoice& choice,
                           const Predicate& pred) {
    const Column host((std::vector<T>(values)));
    const storage::EncodedDeviceColumn dev =
        storage::UploadColumnEncoded(stream_, EncodeColumn(host, choice));
    const auto matcher =
        core::MakeScanMatcher(core::ScanColumnRef::Encoded(dev), pred);
    for (size_t i = 0; i < values.size(); ++i) {
      const double x = static_cast<double>(values[i]);
      const bool want = core::ApplyCompareOp(pred.op, x, pred.value_f);
      EXPECT_EQ(matcher(i), want)
          << "row " << i << " value " << x << " op "
          << core::CompareOpName(pred.op) << " " << pred.value_f;
    }
  }
};

TEST_F(PredicateRewriteTest, ForColumnAllOpsAllThresholds) {
  std::mt19937 rng(29);
  std::vector<int64_t> v(300);
  for (auto& x : v) x = 1000 + static_cast<int64_t>(rng() % 128);
  const EncodingChoice choice = Force(Encoding::kFor, 7, 1000);
  for (const CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                             CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
    // In-range, below-range, and above-range thresholds: the rewrite must
    // fold out-of-frame literals to kAlwaysTrue/kAlwaysFalse correctly.
    for (const double threshold : {1050.0, 500.0, 5000.0, 1000.0, 1127.0}) {
      ExpectMatcherAgrees(v, choice, Predicate::Make("c", op, threshold));
    }
  }
}

TEST_F(PredicateRewriteTest, DictionaryColumnNonMemberLiterals) {
  // Q6-style discount domain: multiples of 0.01. Literals between dictionary
  // entries must still compare correctly (kEq on a non-member is never true).
  std::vector<double> v;
  std::mt19937 rng(31);
  for (int i = 0; i < 400; ++i) v.push_back((rng() % 11) / 100.0);
  const EncodingChoice choice = Force(Encoding::kDictionary);
  for (const CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                             CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
    for (const double threshold : {0.05, 0.055, -1.0, 1.0, 0.0, 0.10}) {
      ExpectMatcherAgrees(v, choice, Predicate::Make("c", op, threshold));
    }
  }
}

TEST_F(PredicateRewriteTest, RleColumnBinarySearchesRuns) {
  std::vector<int32_t> v;
  for (int32_t run = 0; run < 50; ++run) {
    for (int i = 0; i < 1 + run % 7; ++i) v.push_back(run * 3);
  }
  for (const CompareOp op : {CompareOp::kLt, CompareOp::kGe, CompareOp::kEq,
                             CompareOp::kNe}) {
    ExpectMatcherAgrees(v, Force(Encoding::kRle),
                        Predicate::Make("c", op, 75.0));
  }
}

TEST_F(PredicateRewriteTest, RewriteFoldsOutOfRangeToConstants) {
  std::vector<int64_t> v(64);
  for (size_t i = 0; i < v.size(); ++i) v[i] = 100 + static_cast<int64_t>(i);
  const storage::EncodedDeviceColumn dev = storage::UploadColumnEncoded(
      stream_, EncodeColumn(Column((std::vector<int64_t>(v))),
                            Force(Encoding::kFor, 6, 100)));
  const core::EncodedPredicate below =
      core::RewritePredicate(dev, Predicate::Make("c", CompareOp::kLt, 50.0));
  EXPECT_EQ(below.kind, core::EncodedPredicate::Kind::kAlwaysFalse);
  const core::EncodedPredicate above =
      core::RewritePredicate(dev, Predicate::Make("c", CompareOp::kLt, 500.0));
  EXPECT_EQ(above.kind, core::EncodedPredicate::Kind::kAlwaysTrue);
}

// ---------------------------------------------------------------------------
// Encoded-vs-raw differential over the TPC-H queries, every backend
// ---------------------------------------------------------------------------

bool Near(double got, double want) {
  return std::abs(got - want) <= std::abs(want) * 1e-9 + 1e-6;
}

class EncodedQueryDifferentialTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() { core::RegisterBuiltinBackends(); }

  static tpch::Config SmallConfig() {
    tpch::Config config;
    config.scale_factor = 0.002;
    return config;
  }

  static std::unique_ptr<core::Backend> MakeBackend() {
    return core::BackendRegistry::Instance().Create(GetParam());
  }

  /// Runs `query` twice on fresh backends as the registry's plan pinned to
  /// the test's backend: over raw resident tables, then over encoded ones.
  static std::array<plan::TpchQueryResult, 2> RunBoth(
      plan::TpchQuery query, const plan::TpchHostTables& host) {
    std::array<plan::TpchQueryResult, 2> out;
    for (const bool encoded : {false, true}) {
      auto backend = MakeBackend();
      plan::QueryShape shape;
      shape.query = query;
      shape.use_encoding = encoded;
      out[encoded ? 1 : 0] =
          plan::PrepareTpchQuery(
              shape, plan::MakeResident(backend->stream(), host, encoded),
              GetParam())
              ->Run(*backend);
    }
    return out;
  }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, EncodedQueryDifferentialTest,
                         ::testing::Values(backends::kThrust,
                                           backends::kBoostCompute,
                                           backends::kArrayFire,
                                           backends::kHandwritten));

TEST_P(EncodedQueryDifferentialTest, Q1EncodedMatchesRaw) {
  const storage::Table host = tpch::GenerateLineitem(SmallConfig());
  const auto out = RunBoth(plan::TpchQuery::kQ1, {&host});
  const auto& raw = out[0].q1;
  const auto& enc = out[1].q1;
  ASSERT_EQ(raw.size(), enc.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(raw[i].returnflag, enc[i].returnflag);
    EXPECT_EQ(raw[i].linestatus, enc[i].linestatus);
    EXPECT_EQ(raw[i].count_order, enc[i].count_order);
    // Float sums may re-associate (the handwritten backend's atomic-ticket
    // row order is run-dependent): tolerance, not bit equality.
    EXPECT_TRUE(Near(enc[i].sum_qty, raw[i].sum_qty));
    EXPECT_TRUE(Near(enc[i].sum_base_price, raw[i].sum_base_price));
    EXPECT_TRUE(Near(enc[i].sum_disc_price, raw[i].sum_disc_price));
    EXPECT_TRUE(Near(enc[i].sum_charge, raw[i].sum_charge));
  }
}

TEST_P(EncodedQueryDifferentialTest, Q6EncodedMatchesRaw) {
  const storage::Table host = tpch::GenerateLineitem(SmallConfig());
  const auto out = RunBoth(plan::TpchQuery::kQ6, {&host});
  EXPECT_TRUE(Near(out[1].scalar, out[0].scalar))
      << out[0].scalar << " vs " << out[1].scalar;
  EXPECT_TRUE(Near(out[0].scalar, tpch::ReferenceQ6(host)));
}

TEST_P(EncodedQueryDifferentialTest, Q3EncodedMatchesRaw) {
  const tpch::Config config = SmallConfig();
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const auto out = RunBoth(plan::TpchQuery::kQ3,
                           {.lineitem = &lineitem, .orders = &orders,
                            .customer = &customer});
  ASSERT_EQ(out[0].q3.size(), out[1].q3.size());
  for (size_t i = 0; i < out[0].q3.size(); ++i) {
    EXPECT_EQ(out[0].q3[i].orderkey, out[1].q3[i].orderkey);
    EXPECT_TRUE(Near(out[1].q3[i].revenue, out[0].q3[i].revenue));
  }
}

TEST_P(EncodedQueryDifferentialTest, Q4EncodedMatchesRaw) {
  const tpch::Config config = SmallConfig();
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const auto out = RunBoth(plan::TpchQuery::kQ4,
                           {.lineitem = &lineitem, .orders = &orders});
  ASSERT_EQ(out[0].q4.size(), out[1].q4.size());
  for (size_t i = 0; i < out[0].q4.size(); ++i) {
    EXPECT_EQ(out[0].q4[i].orderpriority, out[1].q4[i].orderpriority);
    EXPECT_EQ(out[0].q4[i].order_count, out[1].q4[i].order_count);
  }
}

TEST_P(EncodedQueryDifferentialTest, Q14EncodedMatchesRaw) {
  const tpch::Config config = SmallConfig();
  const storage::Table part = tpch::GeneratePart(config);
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const auto out = RunBoth(plan::TpchQuery::kQ14,
                           {.lineitem = &lineitem, .part = &part});
  EXPECT_TRUE(Near(out[1].scalar, out[0].scalar))
      << out[0].scalar << " vs " << out[1].scalar;
}

// ---------------------------------------------------------------------------
// Footprint regression: encoded base tables, raw intermediates
// ---------------------------------------------------------------------------

TEST(EncodedFootprintTest, Q6EncodedFootprintBeatsRaw) {
  core::RegisterBuiltinBackends();
  tpch::Config config;
  config.scale_factor = 0.01;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table part = tpch::GeneratePart(config);
  plan::TpchHostTables tables;
  tables.lineitem = &lineitem;
  tables.orders = &orders;
  tables.customer = &customer;
  tables.part = &part;

  const uint64_t raw = plan::EstimateQueryFootprint(
      plan::TpchQuery::kQ6, tables, backends::kHandwritten);
  const uint64_t enc = plan::EstimateQueryFootprint(
      plan::TpchQuery::kQ6, tables, backends::kHandwritten,
      /*partitions=*/1, /*use_encoding=*/true);
  EXPECT_GT(enc, 0u);
  // The regression this pins: encoded sizing applies to the base-table scan
  // terms (Q6 reads l_shipdate/l_discount/l_quantity encoded and never
  // decodes them), so the encoded estimate must be strictly below raw — the
  // old uniform 2x-headroom sizing priced both identically.
  EXPECT_LT(enc, raw);
  // The saving is bounded by the scan share of the footprint (selection and
  // gather outputs stay raw-priced), but the three packed predicate columns
  // must still show up: require at least a 10% reduction.
  EXPECT_LT(enc, raw - raw / 10);
}

TEST(EncodedFootprintTest, EncodedEstimateAdmitsWhereRawPartitions) {
  core::RegisterBuiltinBackends();
  tpch::Config config;
  config.scale_factor = 0.01;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table part = tpch::GeneratePart(config);
  plan::TpchHostTables tables;
  tables.lineitem = &lineitem;
  tables.orders = &orders;
  tables.customer = &customer;
  tables.part = &part;

  for (const plan::TpchQuery q :
       {plan::TpchQuery::kQ1, plan::TpchQuery::kQ6, plan::TpchQuery::kQ14}) {
    const uint64_t raw = plan::EstimateQueryFootprint(
        q, tables, backends::kHandwritten, 1, false);
    const uint64_t enc = plan::EstimateQueryFootprint(
        q, tables, backends::kHandwritten, 1, true);
    EXPECT_LT(enc, raw) << plan::TpchQueryName(q);
  }
}

// ---------------------------------------------------------------------------
// Table analysis, distinct counting and the encoder against a reference
// ---------------------------------------------------------------------------

/// Field-by-field equality of two choices, dictionaries by content.
void ExpectSameChoice(const EncodingChoice& want, const EncodingChoice& got,
                      const std::string& what) {
  EXPECT_EQ(want.encoding, got.encoding) << what;
  EXPECT_EQ(want.bit_width, got.bit_width) << what;
  EXPECT_EQ(want.reference, got.reference) << what;
  EXPECT_EQ(want.encoded_bytes, got.encoded_bytes) << what;
  ASSERT_EQ(want.dictionary == nullptr, got.dictionary == nullptr) << what;
  if (want.dictionary != nullptr) {
    EXPECT_EQ(want.dictionary->i64, got.dictionary->i64) << what;
    EXPECT_EQ(want.dictionary->f64, got.dictionary->f64) << what;
  }
}

void ExpectTableChoicesMatchColumns(const storage::Table& table,
                                    const std::string& what) {
  const std::vector<EncodingChoice> choices =
      storage::ChooseTableEncodings(table);
  ASSERT_EQ(choices.size(), table.num_columns()) << what;
  for (size_t c = 0; c < choices.size(); ++c) {
    const std::string& name = table.column_names()[c];
    const Column& column = table.column(name);
    ExpectSameChoice(ChooseEncoding(storage::AnalyzeColumn(column),
                                    column.size(), column.type()),
                     choices[c], what + "." + name);
  }
}

TEST(EncodingTableAnalysisTest, MatchPerColumnChoicesOnTpchTablesAndSlices) {
  for (const double sf : {0.002, 0.01}) {
    tpch::Config config;
    config.scale_factor = sf;
    const storage::Table lineitem = tpch::GenerateLineitem(config);
    const std::string at = "sf" + std::to_string(sf) + ".";
    ExpectTableChoicesMatchColumns(lineitem, at + "lineitem");
    ExpectTableChoicesMatchColumns(tpch::GenerateOrders(config), at + "orders");
    ExpectTableChoicesMatchColumns(tpch::GenerateCustomer(config),
                                   at + "customer");
    ExpectTableChoicesMatchColumns(tpch::GeneratePart(config), at + "part");
    // The slices a governed run uploads at K = 4.
    const std::vector<plan::detail::RowRange> ranges =
        plan::detail::PartitionRanges(lineitem, 4, /*align_orderkey=*/true);
    for (size_t p = 0; p < ranges.size(); ++p) {
      ExpectTableChoicesMatchColumns(
          plan::detail::SliceTable(lineitem, ranges[p].first,
                                   ranges[p].second),
          at + "slice" + std::to_string(p));
    }
  }
}

TEST(EncodingDistinctCountTest, CapIsExactAtMaxDictSizeAndOneMore) {
  std::vector<int32_t> v(storage::kMaxDictSize);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int32_t>(i * 3);
  std::mt19937 rng(5);
  std::shuffle(v.begin(), v.end(), rng);
  const storage::ColumnStats at_cap =
      storage::AnalyzeColumn(Column(std::vector<int32_t>(v)));
  EXPECT_EQ(at_cap.distinct, storage::kMaxDictSize);
  v.push_back(-1);
  const storage::ColumnStats over =
      storage::AnalyzeColumn(Column(std::vector<int32_t>(v)));
  EXPECT_EQ(over.distinct, storage::kMaxDictSize + 1);
  EXPECT_EQ(over.dictionary, nullptr);
  EXPECT_THROW(EncodeColumn(Column(std::vector<int32_t>(v)),
                            Force(Encoding::kDictionary)),
               std::invalid_argument);
}

TEST(EncodingDistinctCountTest, NegativeZeroEqualsZeroAndTheFirstOneSeenIsKept) {
  const std::vector<double> v{-0.0, 1.5, 0.0, -0.0, 0.0, 1.5};
  const Column column((std::vector<double>(v)));
  EXPECT_EQ(storage::AnalyzeColumn(column).distinct, 2u);
  const EncodedColumn encoded =
      EncodeColumn(column, Force(Encoding::kDictionary));
  ASSERT_EQ(encoded.dict_f64.size(), 2u);
  EXPECT_TRUE(std::signbit(encoded.dict_f64[0]));  // -0.0 came first
  const std::vector<double> decoded = DecodeColumnHost(encoded).values<double>();
  for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(decoded[i], v[i]) << i;
}

TEST(EncodingDistinctCountTest, EveryNanIsDistinctAndHasNoCode) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Column column(std::vector<double>{nan, 2.0, nan, nan, 2.0});
  const storage::ColumnStats stats = storage::AnalyzeColumn(column);
  EXPECT_EQ(stats.distinct, 4u);
  EXPECT_EQ(stats.dictionary, nullptr);
  EXPECT_THROW(EncodeColumn(column, Force(Encoding::kDictionary)),
               std::invalid_argument);
}

TEST(EncodingDistinctCountTest, DoublesWithZeroLowMantissaBits) {
  // Whole numbers and large powers of two differ only in high bits; a hash
  // that ignored them would put every value in one probe chain.
  std::vector<double> v;
  for (int rep = 0; rep < 200; ++rep) {
    for (int k = 1; k <= 50; ++k) v.push_back(static_cast<double>(k));
    for (int e = 0; e < 30; ++e) v.push_back(std::ldexp(1.0, 20 + e));
  }
  const Column column((std::vector<double>(v)));
  const storage::ColumnStats stats = storage::AnalyzeColumn(column);
  EXPECT_EQ(stats.distinct, 80u);
  const EncodingChoice choice =
      ChooseEncoding(stats, column.size(), column.type());
  ASSERT_EQ(choice.encoding, Encoding::kDictionary);
  ASSERT_NE(choice.dictionary, nullptr);
  EXPECT_TRUE(std::is_sorted(choice.dictionary->f64.begin(),
                             choice.dictionary->f64.end()));
  EXPECT_EQ(DecodeColumnHost(EncodeColumn(column, choice)).values<double>(),
            v);
}

TEST(EncodingDistinctCountTest, Int64Extremes) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> v{lo, hi, 0, lo, hi, -1};
  const Column column((std::vector<int64_t>(v)));
  const storage::ColumnStats stats = storage::AnalyzeColumn(column);
  EXPECT_EQ(stats.distinct, 4u);
  EXPECT_EQ(stats.min_i, lo);
  EXPECT_EQ(stats.max_i, hi);
  const EncodedColumn encoded =
      EncodeColumn(column, Force(Encoding::kDictionary));
  EXPECT_EQ(encoded.dict_i64, (std::vector<int64_t>{lo, -1, 0, hi}));
  EXPECT_EQ(DecodeColumnHost(encoded).values<int64_t>(), v);
}

// A reference encoder written the plain way: an unordered_set of distinct
// values sorted into the dictionary, a lower_bound per row, and codes packed
// from an intermediate vector.
namespace reference {

void PackBits(const std::vector<uint64_t>& codes, unsigned bits,
              std::vector<uint64_t>* words) {
  words->assign(storage::PackedWordCount(codes.size(), bits), 0);
  const uint64_t mask =
      bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  for (size_t i = 0; i < codes.size(); ++i) {
    const uint64_t c = codes[i] & mask;
    const size_t bit = i * bits;
    const unsigned off = static_cast<unsigned>(bit & 63);
    (*words)[bit >> 6] |= c << off;
    if (off + bits > 64) (*words)[(bit >> 6) + 1] |= c >> (64 - off);
  }
}

template <typename T>
void EncodeDictionary(const std::vector<T>& v, EncodedColumn* out) {
  std::unordered_set<T> seen(v.begin(), v.end());
  std::vector<T> dict(seen.begin(), seen.end());
  std::sort(dict.begin(), dict.end());
  out->bit_width = dict.empty()
                       ? 1
                       : storage::BitsForMax(
                             static_cast<uint64_t>(dict.size() - 1));
  std::vector<uint64_t> codes(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    codes[i] = static_cast<uint64_t>(
        std::lower_bound(dict.begin(), dict.end(), v[i]) - dict.begin());
  }
  PackBits(codes, out->bit_width, &out->words);
  if constexpr (std::is_integral_v<T>) {
    out->dict_i64.assign(dict.begin(), dict.end());
  } else {
    out->dict_f64.assign(dict.begin(), dict.end());
  }
}

template <typename T>
EncodedColumn Encode(const std::vector<T>& v, const EncodingChoice& choice) {
  EncodedColumn out;
  out.encoding = choice.encoding;
  out.type = storage::DataTypeOf<T>();
  out.size = v.size();
  out.bit_width = choice.bit_width;
  out.reference = choice.reference;
  switch (choice.encoding) {
    case Encoding::kBitPack:
    case Encoding::kFor:
      if constexpr (std::is_integral_v<T>) {
        std::vector<uint64_t> codes(v.size());
        for (size_t i = 0; i < v.size(); ++i) {
          codes[i] = static_cast<uint64_t>(static_cast<int64_t>(v[i]) -
                                           choice.reference);
        }
        PackBits(codes, choice.bit_width, &out.words);
      }
      break;
    case Encoding::kDictionary:
      EncodeDictionary(v, &out);
      break;
    case Encoding::kRle:
      if constexpr (std::is_same_v<T, int32_t>) {
        for (size_t i = 0; i < v.size(); ++i) {
          if (out.rle_values.empty() || v[i] != out.rle_values.back()) {
            out.rle_values.push_back(v[i]);
            out.rle_ends.push_back(static_cast<uint32_t>(i + 1));
          } else {
            out.rle_ends.back() = static_cast<uint32_t>(i + 1);
          }
        }
      }
      break;
    case Encoding::kNone:
      break;
  }
  return out;
}

}  // namespace reference

template <typename T>
void ExpectMatchesReference(const std::vector<T>& v,
                            const EncodingChoice& choice,
                            const std::string& what) {
  const EncodedColumn want = reference::Encode(v, choice);
  const EncodedColumn got = EncodeColumn(Column(std::vector<T>(v)), choice);
  EXPECT_EQ(got.encoding, want.encoding) << what;
  EXPECT_EQ(got.bit_width, want.bit_width) << what;
  EXPECT_EQ(got.reference, want.reference) << what;
  EXPECT_EQ(got.words, want.words) << what;
  EXPECT_EQ(got.dict_i64, want.dict_i64) << what;
  ASSERT_EQ(got.dict_f64.size(), want.dict_f64.size()) << what;
  for (size_t i = 0; i < want.dict_f64.size(); ++i) {
    // Bits, so that -0.0 and 0.0 differ.
    EXPECT_EQ(std::bit_cast<uint64_t>(got.dict_f64[i]),
              std::bit_cast<uint64_t>(want.dict_f64[i]))
        << what << " entry " << i;
  }
  EXPECT_EQ(got.rle_values, want.rle_values) << what;
  EXPECT_EQ(got.rle_ends, want.rle_ends) << what;
}

TEST(EncodingReferenceTest, ByteIdenticalOnTpchColumns) {
  tpch::Config config;
  config.scale_factor = 0.005;
  for (const storage::Table& table :
       {tpch::GenerateLineitem(config), tpch::GenerateOrders(config),
        tpch::GenerateCustomer(config), tpch::GeneratePart(config)}) {
    for (const std::string& name : table.column_names()) {
      const Column& c = table.column(name);
      const EncodingChoice choice =
          ChooseEncoding(storage::AnalyzeColumn(c), c.size(), c.type());
      if (choice.encoding == Encoding::kNone) continue;
      switch (c.type()) {
        case DataType::kInt32:
          ExpectMatchesReference(c.values<int32_t>(), choice, name);
          break;
        case DataType::kInt64:
          ExpectMatchesReference(c.values<int64_t>(), choice, name);
          break;
        case DataType::kFloat64:
          ExpectMatchesReference(c.values<double>(), choice, name);
          break;
        case DataType::kFloat32:
          ExpectMatchesReference(c.values<float>(), choice, name);
          break;
      }
    }
  }
}

TEST(EncodingReferenceTest, ByteIdenticalOnRandomColumnsOfEveryScheme) {
  std::mt19937_64 rng(23);
  for (int iter = 0; iter < 40; ++iter) {
    const size_t n = rng() % 3000;
    const unsigned bits = 1 + static_cast<unsigned>(rng() % 64);
    std::vector<int64_t> packed(n);
    const uint64_t mask =
        bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
    for (int64_t& x : packed) x = static_cast<int64_t>(rng() & mask >> 1);
    const std::string at = "iter " + std::to_string(iter);
    ExpectMatchesReference(packed, Force(Encoding::kBitPack, bits), at);

    std::vector<int32_t> framed(n);
    for (int32_t& x : framed) x = 1000 + static_cast<int32_t>(rng() % 5000);
    ExpectMatchesReference(framed, Force(Encoding::kFor, 13, 1000), at);

    std::vector<int32_t> runs;
    while (runs.size() < n) runs.insert(runs.end(), 1 + rng() % 9, rng() % 7);
    ExpectMatchesReference(runs, Force(Encoding::kRle), at);

    const size_t pool = 1 + rng() % 300;
    std::vector<double> dict(n);
    for (double& x : dict) {
      const double k = static_cast<double>(rng() % pool);
      x = k == 0 && rng() % 2 == 0 ? -0.0 : k * 0.25 - 8.0;
    }
    ExpectMatchesReference(dict, Force(Encoding::kDictionary), at);
    std::vector<float> dict32(dict.begin(), dict.end());
    ExpectMatchesReference(dict32, Force(Encoding::kDictionary), at);
    std::vector<int64_t> wide(n);
    for (int64_t& x : wide) x = static_cast<int64_t>(rng() % pool) << 40;
    ExpectMatchesReference(wide, Force(Encoding::kDictionary), at);
  }
}

TEST(EncodingReferenceTest, NarrowAndWideIntegerRangesAnalyzeAlike) {
  // Analysis counts a narrow integer range in a byte map and a wide one in
  // the hash set; both give the exact count and the same dictionary.
  std::mt19937 rng(11);
  std::vector<int64_t> narrow(5000), wide(5000);
  for (size_t i = 0; i < narrow.size(); ++i) {
    narrow[i] = static_cast<int64_t>(rng() % 40) * 997 - 5000;
    wide[i] = narrow[i] * (int64_t{1} << 30);
  }
  const size_t distinct =
      std::unordered_set<int64_t>(narrow.begin(), narrow.end()).size();
  for (const std::vector<int64_t>* v : {&narrow, &wide}) {
    const std::string what = v == &narrow ? "narrow" : "wide";
    const Column column((std::vector<int64_t>(*v)));
    const storage::ColumnStats stats = storage::AnalyzeColumn(column);
    EXPECT_EQ(stats.distinct, distinct) << what;
    const EncodingChoice choice =
        ChooseEncoding(stats, column.size(), column.type());
    ASSERT_EQ(choice.encoding, Encoding::kDictionary) << what;
    ASSERT_NE(choice.dictionary, nullptr) << what;
    ExpectMatchesReference(*v, choice, what);
  }
}

}  // namespace
