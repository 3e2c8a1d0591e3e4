// Tests of the ArrayFire-compatible API surface, especially the lazy
// evaluation / JIT fusion behaviour that distinguishes it from the eager
// libraries.
#include "afsim/afsim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "gpusim/device.h"

namespace {

using afsim::array;
using afsim::dtype;

TEST(AfsimArrayTest, HostRoundtripPerType) {
  const std::vector<int32_t> i32{1, -2, 3};
  EXPECT_EQ(afsim::from_vector(i32).host<int32_t>(), i32);
  const std::vector<double> f64{1.5, -2.5};
  EXPECT_EQ(afsim::from_vector(f64).host<double>(), f64);
  const std::vector<int64_t> i64{int64_t{1} << 40};
  EXPECT_EQ(afsim::from_vector(i64).host<int64_t>(), i64);
}

TEST(AfsimArrayTest, HostTypeMismatchThrows) {
  array a = afsim::from_vector(std::vector<int32_t>{1});
  EXPECT_THROW(a.host<double>(), std::invalid_argument);
}

TEST(AfsimArrayTest, ScalarExtraction) {
  array a = afsim::from_vector(std::vector<double>{42.5, 1.0});
  EXPECT_EQ(a.scalar<double>(), 42.5);
  EXPECT_THROW(array().scalar<double>(), std::invalid_argument);
}

TEST(AfsimLazyTest, ElementwiseOpsAreLazyUntilEval) {
  array a = afsim::from_vector(std::vector<double>(1000, 2.0));
  array b = afsim::from_vector(std::vector<double>(1000, 3.0));
  const auto before = gpusim::Device::Default().Snapshot();
  array c = a * b + 1.0;
  // Graph building launches nothing.
  EXPECT_EQ(gpusim::Device::Default().Snapshot().Delta(before)
                .kernels_launched,
            0u);
  EXPECT_TRUE(c.is_lazy());
  c.eval();
  EXPECT_FALSE(c.is_lazy());
  const auto delta = gpusim::Device::Default().Snapshot().Delta(before);
  EXPECT_EQ(delta.kernels_launched, 1u);  // the whole chain fused
  EXPECT_EQ(c.host<double>()[0], 7.0);
}

TEST(AfsimLazyTest, FusionReadsEachLeafOnce) {
  const size_t n = 10000;
  array a = afsim::from_vector(std::vector<double>(n, 1.0));
  const auto before = gpusim::Device::Default().Snapshot();
  // Four chained element-wise stages over one input.
  array c = ((a + 1.0) * 2.0 - 3.0) * 0.5;
  c.eval();
  const auto delta = gpusim::Device::Default().Snapshot().Delta(before);
  EXPECT_EQ(delta.kernels_launched, 1u);
  // One pass: reads the single leaf once, writes the output once.
  EXPECT_EQ(delta.bytes_read, n * sizeof(double));
  EXPECT_EQ(delta.bytes_written, n * sizeof(double));
}

TEST(AfsimLazyTest, EvalIsIdempotentAndSharedAcrossHandles) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 2, 3});
  array b = a + 1.0;
  array alias = b;  // shares the lazy node
  b.eval();
  EXPECT_FALSE(alias.is_lazy());  // aliasing handle sees materialization
  const auto before = gpusim::Device::Default().Snapshot();
  b.eval();
  EXPECT_EQ(gpusim::Device::Default().Snapshot().Delta(before)
                .kernels_launched,
            0u);
}

TEST(AfsimLazyTest, DeepChainsAutoEvaluate) {
  array a = afsim::from_vector(std::vector<double>(64, 1.0));
  // Build a chain far beyond the JIT length bound; it must stay correct.
  for (int i = 0; i < 100; ++i) a = a + 1.0;
  EXPECT_EQ(a.host<double>()[0], 101.0);
}

TEST(AfsimTypeTest, ComparisonYieldsB8) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 5, 3});
  array m = a > 2.0;
  EXPECT_EQ(m.type(), dtype::b8);
  EXPECT_EQ(m.host<uint8_t>(), (std::vector<uint8_t>{0, 1, 1}));
}

TEST(AfsimTypeTest, ArithmeticPromotesToWiderType) {
  array i = afsim::from_vector(std::vector<int32_t>{4});
  array d = afsim::from_vector(std::vector<double>{0.5});
  EXPECT_EQ((i * d).type(), dtype::f64);
  EXPECT_EQ((i * d).host<double>()[0], 2.0);
  EXPECT_EQ((i + i).type(), dtype::s32);
}

TEST(AfsimTypeTest, IntegerScalarKeepsIntegerType) {
  array i = afsim::from_vector(std::vector<int32_t>{10});
  EXPECT_EQ((i + 1.0).type(), dtype::s32);
  EXPECT_EQ((i + 0.5).type(), dtype::f64);
}

TEST(AfsimTypeTest, CastConvertsValues) {
  array d = afsim::from_vector(std::vector<double>{2.75, -1.25});
  array i = afsim::cast(d, dtype::s32);
  EXPECT_EQ(i.host<int32_t>(), (std::vector<int32_t>{2, -1}));
  array b = afsim::cast(d, dtype::b8);
  EXPECT_EQ(b.host<uint8_t>(), (std::vector<uint8_t>{1, 1}));
}

TEST(AfsimTypeTest, LogicalOpsAndNot) {
  array a = afsim::from_vector(std::vector<int32_t>{0, 1, 2, 0});
  array b = afsim::from_vector(std::vector<int32_t>{1, 1, 0, 0});
  EXPECT_EQ((a && b).host<uint8_t>(), (std::vector<uint8_t>{0, 1, 0, 0}));
  EXPECT_EQ((a || b).host<uint8_t>(), (std::vector<uint8_t>{1, 1, 1, 0}));
  EXPECT_EQ((!a).host<uint8_t>(), (std::vector<uint8_t>{1, 0, 0, 1}));
}

TEST(AfsimTypeTest, SizeMismatchThrows) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 2});
  array b = afsim::from_vector(std::vector<int32_t>{1, 2, 3});
  EXPECT_THROW(a + b, std::invalid_argument);
}

TEST(AfsimWhereTest, WhereReturnsAscendingIndices) {
  array a = afsim::from_vector(std::vector<int32_t>{5, -1, 7, 0, 9});
  array idx = afsim::where(a > 0.0);
  EXPECT_EQ(idx.type(), dtype::u32);
  EXPECT_EQ(idx.host<uint32_t>(), (std::vector<uint32_t>{0, 2, 4}));
}

TEST(AfsimWhereTest, WhereOnFusedPredicate) {
  array qty = afsim::from_vector(std::vector<double>{10, 30, 20, 50});
  array disc = afsim::from_vector(std::vector<double>{0.05, 0.05, 0.10, 0.01});
  array idx = afsim::where(qty < 25.0 && disc >= 0.05);
  EXPECT_EQ(idx.host<uint32_t>(), (std::vector<uint32_t>{0, 2}));
}

TEST(AfsimWhereTest, LookupGathers) {
  array a = afsim::from_vector(std::vector<double>{10, 20, 30, 40});
  array idx = afsim::from_vector(std::vector<uint32_t>{3, 0, 3});
  EXPECT_EQ(afsim::lookup(a, idx).host<double>(),
            (std::vector<double>{40, 10, 40}));
}

TEST(AfsimReduceTest, SumMinMaxCount) {
  array a = afsim::from_vector(std::vector<double>{1.5, -2.0, 3.5});
  EXPECT_DOUBLE_EQ(afsim::sum<double>(a), 3.0);
  EXPECT_DOUBLE_EQ(afsim::min_all<double>(a), -2.0);
  EXPECT_DOUBLE_EQ(afsim::max_all<double>(a), 3.5);
  array m = afsim::from_vector(std::vector<int32_t>{0, 3, 0, 1});
  EXPECT_EQ(afsim::count(m), 2u);
  array i = afsim::from_vector(std::vector<int64_t>{1, 2, 3});
  EXPECT_EQ(afsim::sum<int64_t>(i), 6);
}

TEST(AfsimReduceTest, SumForcesEvaluationOfLazyInput) {
  array a = afsim::from_vector(std::vector<double>{1, 2, 3});
  array b = a * 2.0;
  EXPECT_TRUE(b.is_lazy());
  EXPECT_DOUBLE_EQ(afsim::sum<double>(b), 12.0);
  EXPECT_FALSE(b.is_lazy());
}

TEST(AfsimScanTest, AccumAndExclusiveScan) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 2, 3, 4});
  EXPECT_EQ(afsim::accum(a).host<int32_t>(),
            (std::vector<int32_t>{1, 3, 6, 10}));
  EXPECT_EQ(afsim::scan(a, /*inclusive_scan=*/false).host<int32_t>(),
            (std::vector<int32_t>{0, 1, 3, 6}));
}

TEST(AfsimSortTest, SortAndSortByKey) {
  array a = afsim::from_vector(std::vector<int32_t>{3, 1, 2});
  EXPECT_EQ(afsim::sort(a).host<int32_t>(), (std::vector<int32_t>{1, 2, 3}));
  // sort() returns a new array; the input is untouched.
  EXPECT_EQ(a.host<int32_t>(), (std::vector<int32_t>{3, 1, 2}));

  array keys = afsim::from_vector(std::vector<int32_t>{3, 1, 2});
  array vals = afsim::from_vector(std::vector<double>{30, 10, 20});
  array sk, sv;
  afsim::sort(&sk, &sv, keys, vals);
  EXPECT_EQ(sk.host<int32_t>(), (std::vector<int32_t>{1, 2, 3}));
  EXPECT_EQ(sv.host<double>(), (std::vector<double>{10, 20, 30}));
}

TEST(AfsimByKeyTest, SumByKeyOverGroupedKeys) {
  array keys = afsim::from_vector(std::vector<int32_t>{1, 1, 2, 5, 5, 5});
  array vals = afsim::from_vector(std::vector<double>{1, 2, 3, 4, 5, 6});
  array ok, ov;
  afsim::sumByKey(&ok, &ov, keys, vals);
  EXPECT_EQ(ok.host<int32_t>(), (std::vector<int32_t>{1, 2, 5}));
  EXPECT_EQ(ov.host<double>(), (std::vector<double>{3, 3, 15}));
}

TEST(AfsimByKeyTest, CountMinMaxByKey) {
  array keys = afsim::from_vector(std::vector<int32_t>{1, 1, 1, 9});
  array vals = afsim::from_vector(std::vector<double>{5, -2, 7, 4});
  array ok, oc;
  afsim::countByKey(&ok, &oc, keys);
  EXPECT_EQ(oc.host<uint32_t>(), (std::vector<uint32_t>{3, 1}));
  array ov;
  afsim::minByKey(&ok, &ov, keys, vals);
  EXPECT_EQ(ov.host<double>(), (std::vector<double>{-2, 4}));
  afsim::maxByKey(&ok, &ov, keys, vals);
  EXPECT_EQ(ov.host<double>(), (std::vector<double>{7, 4}));
}

TEST(AfsimReduceTest, MeanAnyAllTrue) {
  array a = afsim::from_vector(std::vector<double>{1.0, 2.0, 6.0});
  EXPECT_DOUBLE_EQ(afsim::mean(a), 3.0);
  array mask = afsim::from_vector(std::vector<int32_t>{1, 1, 0});
  EXPECT_TRUE(afsim::anyTrue(mask));
  EXPECT_FALSE(afsim::allTrue(mask));
  EXPECT_TRUE(afsim::allTrue(a > 0.0));
  EXPECT_FALSE(afsim::anyTrue(a > 100.0));
}

TEST(AfsimShapeTest, Diff1AndFlip) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 4, 9, 16});
  EXPECT_EQ(afsim::diff1(a).host<int32_t>(),
            (std::vector<int32_t>{3, 5, 7}));
  EXPECT_EQ(afsim::flip(a).host<int32_t>(),
            (std::vector<int32_t>{16, 9, 4, 1}));
  array single = afsim::from_vector(std::vector<int32_t>{7});
  EXPECT_TRUE(afsim::diff1(single).is_empty());
}

TEST(AfsimSetTest, UniqueIntersectUnion) {
  array a = afsim::from_vector(std::vector<int32_t>{3, 1, 3, 2, 1});
  EXPECT_EQ(afsim::setUnique(a).host<int32_t>(),
            (std::vector<int32_t>{1, 2, 3}));

  array b = afsim::from_vector(std::vector<int32_t>{2, 3, 9});
  EXPECT_EQ(afsim::setIntersect(a, b).host<int32_t>(),
            (std::vector<int32_t>{2, 3}));
  EXPECT_EQ(afsim::setUnion(a, b).host<int32_t>(),
            (std::vector<int32_t>{1, 2, 3, 9}));
}

TEST(AfsimSetTest, JoinConcatenates) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 2});
  array b = afsim::from_vector(std::vector<int32_t>{3});
  EXPECT_EQ(afsim::join(a, b).host<int32_t>(),
            (std::vector<int32_t>{1, 2, 3}));
}

TEST(AfsimFactoryTest, ConstantAndRange) {
  array c = afsim::constant(2.5, 4, dtype::f64);
  EXPECT_EQ(c.host<double>(), (std::vector<double>{2.5, 2.5, 2.5, 2.5}));
  array r = afsim::range(5, dtype::s32);
  EXPECT_EQ(r.host<int32_t>(), (std::vector<int32_t>{0, 1, 2, 3, 4}));
}

TEST(AfsimFactoryTest, ConstantBroadcastsAgainstArrays) {
  array a = afsim::from_vector(std::vector<double>{1, 2, 3});
  array c = afsim::constant(10.0, 3, dtype::f64);
  EXPECT_EQ((a + c).host<double>(), (std::vector<double>{11, 12, 13}));
}

TEST(AfsimScatterTest, AssignIndexedScatters) {
  array target = afsim::constant(0.0, 5, dtype::f64);
  target.eval();
  array idx = afsim::from_vector(std::vector<uint32_t>{4, 1});
  array vals = afsim::from_vector(std::vector<double>{9.0, 8.0});
  afsim::assign_indexed(target, idx, vals);
  EXPECT_EQ(target.host<double>(), (std::vector<double>{0, 8, 0, 0, 9}));
}

TEST(AfsimInteropTest, FromBufferIsZeroCopy) {
  auto& device = gpusim::Device::Default();
  gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());
  auto buffer = std::make_shared<gpusim::DeviceBuffer>(3 * sizeof(int32_t),
                                                       device);
  const std::vector<int32_t> host{1, 2, 3};
  gpusim::CopyHostToDevice(stream, buffer->data(), host.data(),
                           3 * sizeof(int32_t));
  array a = afsim::from_buffer(buffer, dtype::s32, 3);
  EXPECT_EQ(a.host<int32_t>(), host);
  // Mutating the underlying buffer is visible through the array (view).
  static_cast<int32_t*>(buffer->data())[0] = 99;
  EXPECT_EQ(a.host<int32_t>()[0], 99);
  EXPECT_EQ(a.device_ptr(), buffer->data());
}

TEST(AfsimTypeTest, CastBetweenAllNumericTypes) {
  array s32 = afsim::from_vector(std::vector<int32_t>{-3, 7});
  EXPECT_EQ(afsim::cast(s32, dtype::s64).host<int64_t>(),
            (std::vector<int64_t>{-3, 7}));
  EXPECT_EQ(afsim::cast(s32, dtype::f32).host<float>(),
            (std::vector<float>{-3.0f, 7.0f}));
  EXPECT_EQ(afsim::cast(s32, dtype::f64).host<double>(),
            (std::vector<double>{-3.0, 7.0}));
  array u = afsim::cast(afsim::from_vector(std::vector<int32_t>{5}),
                        dtype::u32);
  EXPECT_EQ(u.host<uint32_t>(), (std::vector<uint32_t>{5}));
  // cast to the same type is the identity (no new node needed).
  array same = afsim::cast(s32, dtype::s32);
  EXPECT_EQ(same.node(), s32.node());
}

TEST(AfsimReduceTest, SumOfEmptyArrayIsZero) {
  array empty = afsim::from_vector(std::vector<double>{});
  EXPECT_DOUBLE_EQ(afsim::sum<double>(empty), 0.0);
  EXPECT_EQ(afsim::count(empty), 0u);
  EXPECT_THROW(afsim::mean(empty), std::out_of_range);
}

TEST(AfsimWhereTest, WhereAllFalseIsEmpty) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 2, 3});
  array idx = afsim::where(a > 100.0);
  EXPECT_TRUE(idx.is_empty());
  EXPECT_TRUE(afsim::lookup(a, idx).is_empty());
}

TEST(AfsimSetTest, IntersectOfDisjointSetsIsEmpty) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 3, 5});
  array b = afsim::from_vector(std::vector<int32_t>{2, 4, 6});
  EXPECT_TRUE(afsim::setIntersect(a, b, /*is_unique=*/true).is_empty());
}

TEST(AfsimOverheadTest, GraphBuildingChargesHostOverhead) {
  array a = afsim::from_vector(std::vector<double>{1});
  const uint64_t before = afsim::default_stream().now_ns();
  array b = a + 1.0;
  const uint64_t after = afsim::default_stream().now_ns();
  EXPECT_GE(after - before, afsim::kJitNodeOverheadNs);
}

// ---------------------------------------------------------------------------
// The tile JIT against a per-element oracle
// ---------------------------------------------------------------------------

namespace oracle {

using afsim::detail::binary_op;
using afsim::detail::node;
using afsim::detail::unary_op;
using afsim::is_floating;

/// One element's value: f for f32/f64 nodes, i for every other node.
struct cell {
  double f = 0.0;
  int64_t i = 0;
};

cell load(const node* nd, size_t i) {
  cell c;
  const void* p = nd->buffer->data();
  switch (nd->type) {
    case dtype::b8: c.i = static_cast<const uint8_t*>(p)[i]; break;
    case dtype::s32: c.i = static_cast<const int32_t*>(p)[i]; break;
    case dtype::s64: c.i = static_cast<const int64_t*>(p)[i]; break;
    case dtype::u32: c.i = static_cast<const uint32_t*>(p)[i]; break;
    case dtype::f32: c.f = static_cast<const float*>(p)[i]; break;
    case dtype::f64: c.f = static_cast<const double*>(p)[i]; break;
  }
  return c;
}

double to_f(const cell& c, dtype t) {
  return is_floating(t) ? c.f : static_cast<double>(c.i);
}
int64_t to_i(const cell& c, dtype t) {
  return is_floating(t) ? static_cast<int64_t>(c.f) : c.i;
}
bool truthy(const cell& c, dtype t) {
  return is_floating(t) ? c.f != 0.0 : c.i != 0;
}

/// Recursive per-element interpretation of an element-wise tree.
cell eval_cell(const node* nd, size_t i) {
  switch (nd->k) {
    case node::kind::data:
      return load(nd, i);
    case node::kind::scalar: {
      cell c;
      if (is_floating(nd->type)) {
        c.f = nd->value.f;
      } else {
        c.i = nd->value.i;
      }
      return c;
    }
    case node::kind::unary: {
      const cell a = eval_cell(nd->lhs.get(), i);
      const dtype at = nd->lhs->type;
      cell c;
      switch (nd->uop) {
        case unary_op::neg:
          if (is_floating(nd->type)) {
            c.f = -to_f(a, at);
          } else {
            c.i = -to_i(a, at);
          }
          break;
        case unary_op::logical_not:
          c.i = truthy(a, at) ? 0 : 1;
          break;
        case unary_op::cast:
          if (is_floating(nd->type)) {
            c.f = to_f(a, at);
          } else if (nd->type == dtype::b8) {
            c.i = truthy(a, at) ? 1 : 0;
          } else {
            c.i = to_i(a, at);
          }
          break;
      }
      return c;
    }
    case node::kind::binary: {
      const cell a = eval_cell(nd->lhs.get(), i);
      const cell b = eval_cell(nd->rhs.get(), i);
      const dtype lt = nd->lhs->type;
      const dtype rt = nd->rhs->type;
      cell c;
      switch (nd->bop) {
        case binary_op::add:
        case binary_op::sub:
        case binary_op::mul:
        case binary_op::div:
        case binary_op::min:
        case binary_op::max:
          if (is_floating(nd->type)) {
            const double x = to_f(a, lt), y = to_f(b, rt);
            switch (nd->bop) {
              case binary_op::add: c.f = x + y; break;
              case binary_op::sub: c.f = x - y; break;
              case binary_op::mul: c.f = x * y; break;
              case binary_op::div: c.f = x / y; break;
              case binary_op::min: c.f = y < x ? y : x; break;
              default: c.f = x < y ? y : x; break;
            }
          } else {
            const int64_t x = to_i(a, lt), y = to_i(b, rt);
            switch (nd->bop) {
              case binary_op::add: c.i = x + y; break;
              case binary_op::sub: c.i = x - y; break;
              case binary_op::mul: c.i = x * y; break;
              case binary_op::div: c.i = y == 0 ? 0 : x / y; break;
              case binary_op::min: c.i = y < x ? y : x; break;
              default: c.i = x < y ? y : x; break;
            }
          }
          break;
        case binary_op::logical_and:
          c.i = truthy(a, lt) && truthy(b, rt);
          break;
        case binary_op::logical_or:
          c.i = truthy(a, lt) || truthy(b, rt);
          break;
        default:
          if (is_floating(lt) || is_floating(rt)) {
            const double x = to_f(a, lt), y = to_f(b, rt);
            switch (nd->bop) {
              case binary_op::gt: c.i = x > y; break;
              case binary_op::lt: c.i = x < y; break;
              case binary_op::ge: c.i = x >= y; break;
              case binary_op::le: c.i = x <= y; break;
              case binary_op::eq: c.i = x == y; break;
              default: c.i = x != y; break;
            }
          } else {
            const int64_t x = to_i(a, lt), y = to_i(b, rt);
            switch (nd->bop) {
              case binary_op::gt: c.i = x > y; break;
              case binary_op::lt: c.i = x < y; break;
              case binary_op::ge: c.i = x >= y; break;
              case binary_op::le: c.i = x <= y; break;
              case binary_op::eq: c.i = x == y; break;
              default: c.i = x != y; break;
            }
          }
          break;
      }
      return c;
    }
  }
  return cell{};
}

void store(void* p, dtype t, size_t i, const cell& c) {
  switch (t) {
    case dtype::b8:
      static_cast<uint8_t*>(p)[i] = static_cast<uint8_t>(c.i != 0);
      break;
    case dtype::s32:
      static_cast<int32_t*>(p)[i] = static_cast<int32_t>(c.i);
      break;
    case dtype::s64: static_cast<int64_t*>(p)[i] = c.i; break;
    case dtype::u32:
      static_cast<uint32_t*>(p)[i] = static_cast<uint32_t>(c.i);
      break;
    case dtype::f32:
      static_cast<float*>(p)[i] = static_cast<float>(c.f);
      break;
    case dtype::f64: static_cast<double*>(p)[i] = c.f; break;
  }
}

/// The bytes eval() must produce for a lazy array, computed element by
/// element before eval() replaces the tree.
std::vector<uint8_t> Expected(const array& a) {
  const node* root = a.node().get();
  std::vector<uint8_t> out(a.elements() * afsim::dtype_size(a.type()));
  for (size_t i = 0; i < a.elements(); ++i) {
    store(out.data(), a.type(), i, eval_cell(root, i));
  }
  return out;
}

}  // namespace oracle

/// Evaluates `a` and checks its bytes against the oracle.
void ExpectMatchesOracle(const array& a, const std::string& what) {
  ASSERT_TRUE(a.is_lazy()) << what;
  const std::vector<uint8_t> want = oracle::Expected(a);
  a.eval();
  ASSERT_EQ(a.elements() * afsim::dtype_size(a.type()), want.size()) << what;
  if (want.empty()) return;
  EXPECT_EQ(0, std::memcmp(a.node()->buffer->data(), want.data(),
                           want.size()))
      << what;
}

constexpr dtype kAllTypes[] = {dtype::b8,  dtype::s32, dtype::s64,
                               dtype::u32, dtype::f32, dtype::f64};

/// Random element-wise trees over one leaf of every dtype. Values stay small
/// so that no int64 lane overflows; zeros are common, so integer division by
/// zero and falsy operands of the logical ops occur throughout.
class TreeGen {
 public:
  TreeGen(size_t n, uint64_t seed) : n_(n), rng_(seed) {
    for (dtype t : kAllTypes) leaves_.push_back(MakeLeaf(t));
  }

  array Tree(int depth) {
    if (depth == 0 || Pick(5) == 0) return Leaf();
    switch (Pick(4)) {
      case 0: {  // unary
        const array a = Tree(depth - 1);
        switch (Pick(3)) {
          case 0: return -a;
          case 1: return !a;
          default: return afsim::cast(a, kAllTypes[Pick(6)]);
        }
      }
      case 1: {  // with a scalar
        const array a = Tree(depth - 1);
        static constexpr double kScalars[] = {-3.0, -1.0, 0.0, 0.5,
                                              2.0,  2.5,  7.0};
        const double c = kScalars[Pick(7)];
        switch (Pick(8)) {
          case 0: return a + c;
          case 1: return a * c;
          case 2: return a / c;
          case 3: return a > c;
          case 4: return a == c;
          case 5: return c - a;
          case 6: return c < a;
          default: return a <= c;
        }
      }
      case 2: {  // a subtree read twice
        const array a = Tree(depth - 1);
        return Pick(2) == 0 ? a * a : (a > 1.0) || (a < -1.0 && a != 0.0);
      }
      default:
        return Binary(Tree(depth - 1), Tree(depth - 1));
    }
  }

 private:
  size_t Pick(size_t k) { return static_cast<size_t>(rng_() % k); }

  array Leaf() { return leaves_[Pick(leaves_.size())]; }

  array MakeLeaf(dtype t) {
    const auto small = [&] { return static_cast<int>(Pick(21)) - 10; };
    switch (t) {
      case dtype::b8: {
        std::vector<uint8_t> v(n_);
        for (uint8_t& x : v) x = static_cast<uint8_t>(Pick(3));
        return afsim::from_vector(v);
      }
      case dtype::s32: {
        std::vector<int32_t> v(n_);
        for (int32_t& x : v) x = small();
        return afsim::from_vector(v);
      }
      case dtype::s64: {
        std::vector<int64_t> v(n_);
        for (int64_t& x : v) x = small();
        return afsim::from_vector(v);
      }
      case dtype::u32: {
        std::vector<uint32_t> v(n_);
        for (uint32_t& x : v) x = static_cast<uint32_t>(Pick(12));
        return afsim::from_vector(v);
      }
      case dtype::f32: {
        std::vector<float> v(n_);
        for (float& x : v) x = static_cast<float>(small()) * 0.375f;
        return afsim::from_vector(v);
      }
      case dtype::f64: {
        std::vector<double> v(n_);
        for (double& x : v) x = static_cast<double>(small()) * 0.625;
        return afsim::from_vector(v);
      }
    }
    return array();
  }

  array Binary(const array& a, const array& b) {
    switch (Pick(14)) {
      case 0: return a + b;
      case 1: return a - b;
      case 2: return a * b;
      case 3: return a / b;
      case 4: return a > b;
      case 5: return a < b;
      case 6: return a >= b;
      case 7: return a <= b;
      case 8: return a == b;
      case 9: return a != b;
      case 10: return a && b;
      case 11: return a || b;
      case 12: return afsim::min_of(a, b);
      default: return afsim::max_of(a, b);
    }
  }

  size_t n_;
  std::mt19937_64 rng_;
  std::vector<array> leaves_;
};

TEST(AfsimTileJitTest, RandomTreesMatchPerElementOracle) {
  const size_t n = 3 * afsim::detail::kJitTile + 77;
  TreeGen gen(n, 2024);
  int checked = 0;
  for (int t = 0; t < 600; ++t) {
    const array a = gen.Tree(3);
    if (!a.is_lazy()) continue;  // a bare leaf
    ExpectMatchesOracle(a, "tree " + std::to_string(t));
    ++checked;
  }
  EXPECT_GT(checked, 300);
}

TEST(AfsimTileJitTest, EveryOpOnEveryDtypePair) {
  // Each unary op on each dtype and each binary op on each dtype pair,
  // including integer division by zero and mixed int/float compares.
  // Values past 32 bits (but whose products stay within int64) check that
  // no int64 value is narrowed, and that casts and stores truncate only at
  // the root.
  const size_t n = afsim::detail::kJitTile + 3;
  const double big = 2147483648.0 + 5.0;  // 2^31 + 5
  const double values[] = {-4, -3, -1, 0, 0, 1, 2, 3.5, 4, big, -big};
  std::mt19937_64 rng(7);
  std::vector<array> leaves;
  for (dtype t : kAllTypes) {
    std::vector<double> v(n);
    for (double& x : v) {
      x = values[rng() % std::size(values)];
      if (t == dtype::s32 && std::abs(x) > 100) x = -2147483647.0;
      if (t == dtype::u32 && x < 0) x = -x;
      if (t == dtype::b8) x = static_cast<double>(rng() % 3);
    }
    leaves.push_back(afsim::cast(afsim::from_vector(v), t).eval());
  }
  for (size_t i = 0; i < leaves.size(); ++i) {
    const array& a = leaves[i];
    const std::string at = afsim::dtype_name(a.type());
    ExpectMatchesOracle(-a, "neg " + at);
    ExpectMatchesOracle(!a, "not " + at);
    for (dtype t : kAllTypes) {
      if (t != a.type()) {
        ExpectMatchesOracle(afsim::cast(a, t),
                            "cast " + at + "->" + afsim::dtype_name(t));
      }
    }
    for (size_t j = 0; j < leaves.size(); ++j) {
      const array& b = leaves[j];
      const std::string ab = at + "," + afsim::dtype_name(b.type());
      const std::vector<std::pair<const char*, array>> ops = {
          {"+", a + b},  {"-", a - b},  {"*", a * b},
          {"/", a / b},  {">", a > b},  {"<", a < b},
          {">=", a >= b}, {"<=", a <= b}, {"==", a == b},
          {"!=", a != b}, {"&&", a && b}, {"||", a || b},
          {"min", afsim::min_of(a, b)}, {"max", afsim::max_of(a, b)}};
      for (const auto& [name, e] : ops) ExpectMatchesOracle(e, name + (" " + ab));
    }
  }
}

TEST(AfsimTileJitTest, TileAndChunkEdgeSizes) {
  const size_t tile = afsim::detail::kJitTile;
  for (const size_t n : {size_t{0}, size_t{1}, tile - 1, tile, tile + 1,
                         size_t{5 * 4096 + 333}}) {
    TreeGen gen(n, 99 + n);
    std::vector<int32_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = static_cast<int32_t>(i % 37);
    const array k = afsim::from_vector(keys);
    const std::string at = "n=" + std::to_string(n);
    ExpectMatchesOracle(k == 17.0, at + " s32==k");
    ExpectMatchesOracle(k * 2.5 + 1.0, at + " s32*f+f");
    ExpectMatchesOracle(afsim::cast(k, dtype::f32) / 3.0, at + " cast/");
    for (int t = 0; t < 40; ++t) {
      const array a = gen.Tree(3);
      if (a.is_lazy()) ExpectMatchesOracle(a, at + " tree " + std::to_string(t));
    }
  }
}

TEST(AfsimTileJitTest, ScalarRootAndSharedSubtreeChargeLikeOneKernel) {
  array c = afsim::constant(2.5, 5000, dtype::f64);
  ExpectMatchesOracle(c, "constant");
  const array x = afsim::from_vector(std::vector<double>(5000, 3.0));
  const array shared = x * 2.0;
  const array e = shared * shared + shared;
  const auto before = gpusim::Device::Default().Snapshot();
  ExpectMatchesOracle(e, "shared");
  const auto delta = gpusim::Device::Default().Snapshot().Delta(before);
  EXPECT_EQ(delta.kernels_launched, 1u);
  EXPECT_EQ(delta.bytes_read, 5000 * sizeof(double));  // the leaf, once
  EXPECT_EQ(e.host<double>()[4999], 42.0);
}

// ---------------------------------------------------------------------------
// where(): indices and charges equal the three-pass pipeline's
// ---------------------------------------------------------------------------

/// Figures recorded from the flag-kernel + scan + scatter implementation.
struct WhereCharges {
  uint64_t ns, kernels, read, written, d2h, transfers, allocations,
      bytes_allocated;
};

/// Charges of `run`, which calls where() (after building its mask, if lazy).
void ExpectWhere(const std::function<array()>& run,
                 const std::vector<uint32_t>& want,
                 const WhereCharges& charges, const std::string& what) {
  gpusim::Device& device = gpusim::Device::Default();
  const auto before = device.Snapshot();
  const uint64_t t0 = afsim::default_stream().now_ns();
  const array idx = run();
  const uint64_t ns = afsim::default_stream().now_ns() - t0;
  const auto d = device.Snapshot().Delta(before);
  EXPECT_EQ(ns, charges.ns) << what;
  EXPECT_EQ(d.kernels_launched, charges.kernels) << what;
  EXPECT_EQ(d.bytes_read, charges.read) << what;
  EXPECT_EQ(d.bytes_written, charges.written) << what;
  EXPECT_EQ(d.bytes_d2h, charges.d2h) << what;
  EXPECT_EQ(d.transfers, charges.transfers) << what;
  EXPECT_EQ(d.allocations, charges.allocations) << what;
  EXPECT_EQ(d.bytes_allocated, charges.bytes_allocated) << what;
  ASSERT_EQ(idx.type(), dtype::u32) << what;
  EXPECT_EQ(idx.host<uint32_t>(), want) << what;
}

template <typename T>
std::vector<uint32_t> NonZero(const std::vector<T>& v) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] != T{}) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

TEST(AfsimWhereTest, MasksMatchRecordedPipelineCharges) {
  const size_t n = 3 * 4096 + 123;  // several host chunks and a ragged tail
  std::vector<uint8_t> none(n, 0), all(n, 1), straddle(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = i % 4096;  // both sides of every 4096-row boundary
    if (r == 4095 || r == 0 || r == 1) straddle[i] = 1;
  }
  std::fill(straddle.begin() + 8000, straddle.begin() + 8300, 1);
  straddle[n - 1] = 1;
  const auto where_of = [](const array& mask) {
    return [mask] { return afsim::where(mask); };
  };
  ExpectWhere(where_of(afsim::from_vector(none)), {},
              {45855, 5, 211091, 149040, 8, 2, 6, 99397}, "all false");
  ExpectWhere(where_of(afsim::from_vector(all)), NonZero(all),
              {45973, 5, 211091, 198684, 8, 2, 6, 149040}, "all true");
  ExpectWhere(where_of(afsim::from_vector(straddle)), NonZero(straddle),
              {45858, 5, 211091, 150276, 8, 2, 6, 100632}, "straddling");

  std::vector<double> f(5000);
  for (size_t i = 0; i < f.size(); ++i) f[i] = static_cast<double>(i % 10) - 4.5;
  ExpectWhere(where_of(afsim::from_vector(f)), NonZero(f),
              {45474, 5, 120040, 80044, 8, 2, 6, 60044}, "f64");
  ExpectWhere(where_of(afsim::from_vector(std::vector<uint8_t>{1})), {0},
              {35000, 3, 13, 16, 8, 2, 4, 16}, "one row");
}

TEST(AfsimWhereTest, FusedCompareMatchesRecordedPipelineCharges) {
  std::vector<int32_t> keys(70000);
  std::vector<uint8_t> hits(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int32_t>((i * 7919) % 1000);
    hits[i] = keys[i] == 17;
  }
  const array right = afsim::from_vector(keys);
  ExpectWhere([&] { return afsim::where(right == 17.0); }, NonZero(hits),
              {56367, 6, 1470552, 910836, 8, 2, 7, 630836}, "right == 17");
}

}  // namespace
