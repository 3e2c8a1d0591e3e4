// JIT evaluation: fuses an element-wise expression tree into a single kernel.
//
// eval() compiles the tree once into a short program of tile ops, the
// stand-in for the code ArrayFire's JIT would generate, and runs it on each
// host chunk kJitTile elements at a time. Element-wise semantics are those of
// typed registers: f32/f64 nodes hold doubles and every other node an int64,
// a value keeps that width until the root's typed store, and it changes
// class only through the three conversions to_f, to_i and truthy. The tile
// ops compute exactly that, bit for bit. Data leaves of a register's own
// type are read in place, scalars stay broadcast constants, and a subtree
// shared by several parents runs once.
#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "afsim/array.h"
#include "gpusim/algorithms.h"

namespace afsim {

gpusim::Stream& default_stream() {
  static gpusim::Stream* stream =
      new gpusim::Stream(gpusim::Device::Default(), gpusim::ApiProfile::Cuda());
  return *stream;
}

namespace detail {

node_ptr make_data_node(dtype t, size_t n) {
  auto nd = std::make_shared<node>();
  nd->k = node::kind::data;
  nd->type = t;
  nd->n = n;
  nd->buffer = std::make_shared<gpusim::DeviceBuffer>(
      n * dtype_size(t), default_stream().device());
  return nd;
}

namespace {

/// Register lanes. Every element-wise value is an int64 (b8/s32/s64/u32
/// nodes) or a double (f32/f64 nodes); i32 holds int64 values known to fit
/// in 32 bits (s32 and b8 data, 0/1 flags, min/max of such values), which
/// keeps compares and stores of 32-bit data in 32-bit vector lanes.
enum class lane : uint8_t { i32, i64, f64 };

enum class opcode : uint8_t {
  load,     ///< b8 -> i32, u32 -> i64, f32 -> f64
  convert,  ///< i32 -> i64, i32/i64 -> f64 (exact), f64 -> i64 (truncating)
  neg,
  add, sub, mul, div, min, max,  ///< result in the input lane
  gt, lt, ge, le, eq, ne,        ///< i32 0/1 result
  logical_and, logical_or,       ///< i32 inputs, i32 0/1 result
};

/// An op input: a register, a data leaf read in place (its dtype is the
/// lane's type), or a constant broadcast over the tile.
struct operand {
  lane l = lane::i64;
  int reg = -1;
  const node* leaf = nullptr;
  int64_t i = 0;  ///< constant of an integer lane
  double f = 0;   ///< constant of the f64 lane
};

struct tile_op {
  opcode code = opcode::load;
  lane in = lane::i64;   ///< lane of the inputs
  lane out = lane::i64;  ///< lane of the result
  int dst = 0;
  operand a, b;
};

constexpr size_t kLanes = 3;

bool fits_i32(int64_t v) {
  return v >= std::numeric_limits<int32_t>::min() &&
         v <= std::numeric_limits<int32_t>::max();
}

operand int_constant(int64_t v) {
  operand c;
  c.l = fits_i32(v) ? lane::i32 : lane::i64;
  c.i = v;
  return c;
}

operand zero_of(lane l) {
  operand c;
  c.l = l;
  return c;
}

/// op(x, y), wrapping in integer lanes like the two's-complement registers
/// they stand for.
template <typename T, typename Op>
T wrapping(T x, T y, Op op) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(op(static_cast<U>(x), static_cast<U>(y)));
  } else {
    return op(x, y);
  }
}

/// The register files of one host chunk: `tile` elements per register.
struct files {
  int32_t* i32;
  int64_t* i64;
  double* f64;
  size_t tile;
  size_t base;  ///< first element of the current tile

  template <typename T>
  T* reg(int r) const {
    if constexpr (std::is_same_v<T, int32_t>) {
      return i32 + r * tile;
    } else if constexpr (std::is_same_v<T, int64_t>) {
      return i64 + r * tile;
    } else {
      return f64 + r * tile;
    }
  }

  /// The operand's elements of this tile; null for a constant.
  template <typename T>
  const T* in(const operand& o) const {
    if (o.reg >= 0) return reg<T>(o.reg);
    if (o.leaf != nullptr) {
      return static_cast<const T*>(o.leaf->buffer->data()) + base;
    }
    return nullptr;
  }
};

template <typename T>
T constant(const operand& o) {
  if constexpr (std::is_same_v<T, double>) {
    return o.f;
  } else {
    return static_cast<T>(o.i);
  }
}

/// dst[j] = fn(a[j]) over one tile.
template <typename In, typename Out, typename Fn>
void map1(const files& fl, const operand& a, Out* dst, size_t m, Fn fn) {
  const In* x = fl.in<In>(a);
  if (x == nullptr) {
    std::fill(dst, dst + m, fn(constant<In>(a)));
    return;
  }
  for (size_t j = 0; j < m; ++j) dst[j] = fn(x[j]);
}

/// dst[j] = fn(a[j], b[j]) over one tile; constants stay scalars in the loop.
template <typename In, typename Out, typename Fn>
void map2(const files& fl, const operand& a, const operand& b, Out* dst,
          size_t m, Fn fn) {
  const In* x = fl.in<In>(a);
  const In* y = fl.in<In>(b);
  const In cx = constant<In>(a);
  const In cy = constant<In>(b);
  if (x != nullptr && y != nullptr) {
    for (size_t j = 0; j < m; ++j) dst[j] = fn(x[j], y[j]);
  } else if (x != nullptr) {
    for (size_t j = 0; j < m; ++j) dst[j] = fn(x[j], cy);
  } else if (y != nullptr) {
    for (size_t j = 0; j < m; ++j) dst[j] = fn(cx, y[j]);
  } else {
    std::fill(dst, dst + m, fn(cx, cy));
  }
}

/// The ops computed within one lane `T`: arithmetic into `T`, compares into
/// i32 flags.
template <typename T>
void exec_in(const tile_op& op, const files& fl, size_t m) {
  const operand& a = op.a;
  const operand& b = op.b;
  T* same = op.out == op.in ? fl.reg<T>(op.dst) : nullptr;
  int32_t* flags = op.out == lane::i32 ? fl.reg<int32_t>(op.dst) : nullptr;
  const auto flag = [](bool v) { return static_cast<int32_t>(v); };
  switch (op.code) {
    case opcode::neg:
      map1<T>(fl, a, same, m, [](T x) {
        if constexpr (std::is_integral_v<T>) {
          return wrapping(T{0}, x, std::minus<>());
        } else {
          return -x;
        }
      });
      return;
    case opcode::add:
      map2<T>(fl, a, b, same, m,
              [](T x, T y) { return wrapping(x, y, std::plus<>()); });
      return;
    case opcode::sub:
      map2<T>(fl, a, b, same, m,
              [](T x, T y) { return wrapping(x, y, std::minus<>()); });
      return;
    case opcode::mul:
      map2<T>(fl, a, b, same, m,
              [](T x, T y) { return wrapping(x, y, std::multiplies<>()); });
      return;
    case opcode::div:
      map2<T>(fl, a, b, same, m, [](T x, T y) {
        if constexpr (std::is_integral_v<T>) {
          return y == 0 ? T{0} : x / y;
        } else {
          return x / y;
        }
      });
      return;
    case opcode::min:
      map2<T>(fl, a, b, same, m, [](T x, T y) { return y < x ? y : x; });
      return;
    case opcode::max:
      map2<T>(fl, a, b, same, m, [](T x, T y) { return x < y ? y : x; });
      return;
    case opcode::gt:
      map2<T>(fl, a, b, flags, m, [=](T x, T y) { return flag(x > y); });
      return;
    case opcode::lt:
      map2<T>(fl, a, b, flags, m, [=](T x, T y) { return flag(x < y); });
      return;
    case opcode::ge:
      map2<T>(fl, a, b, flags, m, [=](T x, T y) { return flag(x >= y); });
      return;
    case opcode::le:
      map2<T>(fl, a, b, flags, m, [=](T x, T y) { return flag(x <= y); });
      return;
    case opcode::eq:
      map2<T>(fl, a, b, flags, m, [=](T x, T y) { return flag(x == y); });
      return;
    case opcode::ne:
      map2<T>(fl, a, b, flags, m, [=](T x, T y) { return flag(x != y); });
      return;
    default:
      return;
  }
}

template <typename Src, typename Lane>
void load_leaf(const files& fl, const operand& leaf, Lane* dst, size_t m) {
  const Src* src =
      static_cast<const Src*>(leaf.leaf->buffer->data()) + fl.base;
  for (size_t j = 0; j < m; ++j) dst[j] = static_cast<Lane>(src[j]);
}

void exec(const tile_op& op, const files& fl, size_t m) {
  switch (op.code) {
    case opcode::load:
      switch (op.a.leaf->type) {
        case dtype::b8:
          load_leaf<uint8_t>(fl, op.a, fl.reg<int32_t>(op.dst), m);
          break;
        case dtype::u32:
          load_leaf<uint32_t>(fl, op.a, fl.reg<int64_t>(op.dst), m);
          break;
        default:  // f32
          load_leaf<float>(fl, op.a, fl.reg<double>(op.dst), m);
          break;
      }
      return;
    case opcode::convert:
      if (op.out == lane::f64) {
        const auto to_f = [](auto x) { return static_cast<double>(x); };
        if (op.in == lane::i32) {
          map1<int32_t>(fl, op.a, fl.reg<double>(op.dst), m, to_f);
        } else {
          map1<int64_t>(fl, op.a, fl.reg<double>(op.dst), m, to_f);
        }
      } else if (op.in == lane::i32) {
        map1<int32_t>(fl, op.a, fl.reg<int64_t>(op.dst), m,
                      [](int32_t x) { return static_cast<int64_t>(x); });
      } else {
        map1<double>(fl, op.a, fl.reg<int64_t>(op.dst), m,
                     [](double x) { return static_cast<int64_t>(x); });
      }
      return;
    case opcode::logical_and:
      map2<int32_t>(fl, op.a, op.b, fl.reg<int32_t>(op.dst), m,
                    [](int32_t x, int32_t y) {
                      return static_cast<int32_t>(x != 0 && y != 0);
                    });
      return;
    case opcode::logical_or:
      map2<int32_t>(fl, op.a, op.b, fl.reg<int32_t>(op.dst), m,
                    [](int32_t x, int32_t y) {
                      return static_cast<int32_t>(x != 0 || y != 0);
                    });
      return;
    default:
      break;
  }
  switch (op.in) {
    case lane::i32: exec_in<int32_t>(op, fl, m); break;
    case lane::i64: exec_in<int64_t>(op, fl, m); break;
    case lane::f64: exec_in<double>(op, fl, m); break;
  }
}

/// Typed store of the root value into the output buffer.
template <typename Lane>
void store(const files& fl, const operand& r, void* out, dtype t, size_t m) {
  const size_t at = fl.base;
  switch (t) {
    case dtype::b8:
      map1<Lane>(fl, r, static_cast<uint8_t*>(out) + at, m,
                 [](Lane x) { return static_cast<uint8_t>(x != 0); });
      break;
    case dtype::s32:
      map1<Lane>(fl, r, static_cast<int32_t*>(out) + at, m,
                 [](Lane x) { return static_cast<int32_t>(x); });
      break;
    case dtype::s64:
      map1<Lane>(fl, r, static_cast<int64_t*>(out) + at, m,
                 [](Lane x) { return static_cast<int64_t>(x); });
      break;
    case dtype::u32:
      map1<Lane>(fl, r, static_cast<uint32_t*>(out) + at, m,
                 [](Lane x) { return static_cast<uint32_t>(x); });
      break;
    case dtype::f32:
      map1<Lane>(fl, r, static_cast<float*>(out) + at, m,
                 [](Lane x) { return static_cast<float>(x); });
      break;
    case dtype::f64:
      map1<Lane>(fl, r, static_cast<double*>(out) + at, m,
                 [](Lane x) { return static_cast<double>(x); });
      break;
  }
}

/// The compiled tree: ops in dependency order over three register files,
/// each register one tile wide. Registers are reused once their last reader
/// ran, so an op may write over its own input.
class tile_program {
 public:
  explicit tile_program(const node* root) {
    count_uses(root);
    result_ = emit(root);
  }

  /// Distinct data leaves, for the kernel's byte accounting.
  const std::vector<const node*>& leaves() const { return leaves_; }

  /// Evaluates elements [begin, end) into `out`, typed `t` (the root's type).
  void run(void* out, dtype t, size_t begin, size_t end) const {
    const size_t tile = std::min(kJitTile, end - begin);
    std::unique_ptr<int32_t[]> i32(new int32_t[refs_[0].size() * tile]);
    std::unique_ptr<int64_t[]> i64(new int64_t[refs_[1].size() * tile]);
    std::unique_ptr<double[]> f64(new double[refs_[2].size() * tile]);
    files fl{i32.get(), i64.get(), f64.get(), tile, begin};
    for (; fl.base < end; fl.base += tile) {
      const size_t m = std::min(tile, end - fl.base);
      for (const tile_op& op : ops_) exec(op, fl, m);
      switch (result_.l) {
        case lane::i32: store<int32_t>(fl, result_, out, t, m); break;
        case lane::i64: store<int64_t>(fl, result_, out, t, m); break;
        case lane::f64: store<double>(fl, result_, out, t, m); break;
      }
    }
  }

 private:
  struct entry {
    const node* nd;
    int uses;
    bool emitted;
    operand result;
  };

  entry& entry_of(const node* nd) {
    for (entry& e : entries_) {
      if (e.nd == nd) return e;
    }
    entries_.push_back(entry{nd, 0, false, operand{}});
    return entries_.back();
  }

  /// Counts each node's parent edges; visits a shared subtree once.
  void count_uses(const node* nd) {
    const size_t before = entries_.size();
    entry_of(nd);
    if (entries_.size() == before) return;  // seen already
    for (const node* child : {nd->lhs.get(), nd->rhs.get()}) {
      if (child == nullptr) continue;
      count_uses(child);
      ++entry_of(child).uses;
    }
  }

  std::vector<int>& refs(lane l) { return refs_[static_cast<size_t>(l)]; }

  int alloc(lane l) {
    std::vector<int>& r = refs(l);
    for (size_t i = 0; i < r.size(); ++i) {
      if (r[i] == 0) {
        r[i] = 1;
        return static_cast<int>(i);
      }
    }
    r.push_back(1);
    return static_cast<int>(r.size() - 1);
  }

  void consume(const operand& o) {
    if (o.reg >= 0) --refs(o.l)[o.reg];
  }

  /// Appends an op; its result is a fresh register read once.
  operand apply(opcode code, lane in, lane out, const operand& a,
                const operand& b = operand{}) {
    consume(a);
    consume(b);
    tile_op op;
    op.code = code;
    op.in = in;
    op.out = out;
    op.a = a;
    op.b = b;
    op.dst = alloc(out);
    ops_.push_back(op);
    operand r;
    r.l = out;
    r.reg = op.dst;
    return r;
  }

  /// The value of `a` in lane `to`: exact widening, or to_i's truncation
  /// from f64. Never narrows a register to i32.
  operand to_lane(const operand& a, lane to) {
    if (a.l == to) return a;
    if (a.reg < 0 && a.leaf == nullptr) {
      operand c;
      c.l = to;
      if (to == lane::f64) {
        c.f = a.l == lane::f64 ? a.f : static_cast<double>(a.i);
      } else {
        c.i = a.l == lane::f64 ? static_cast<int64_t>(a.f) : a.i;
      }
      return c;
    }
    return apply(opcode::convert, a.l, to, a);
  }

  /// The lane an int-class op whose result stays within its inputs' range
  /// (compare, min, max) runs in.
  static lane int_lane(const operand& a, const operand& b) {
    return a.l == lane::i32 && b.l == lane::i32 ? lane::i32 : lane::i64;
  }

  /// truthy(a) as i32: i32 values are tested against zero by the logical
  /// ops themselves; wider ones become 0/1 first.
  operand truth(const operand& a) {
    if (a.l == lane::i32) return a;
    return apply(opcode::ne, a.l, lane::i32, a, zero_of(a.l));
  }

  operand emit(const node* nd) {
    {
      const entry& e = entry_of(nd);
      if (e.emitted) return e.result;
    }
    const bool f = is_floating(nd->type);
    const lane wide = f ? lane::f64 : lane::i64;  // arithmetic lane
    operand r;
    switch (nd->k) {
      case node::kind::data: {
        leaves_.push_back(nd);
        operand leaf;
        leaf.leaf = nd;
        switch (nd->type) {
          case dtype::s32: leaf.l = lane::i32; r = leaf; break;
          case dtype::s64: leaf.l = lane::i64; r = leaf; break;
          case dtype::f64: leaf.l = lane::f64; r = leaf; break;
          case dtype::b8: r = apply(opcode::load, lane::i32, lane::i32, leaf); break;
          case dtype::u32: r = apply(opcode::load, lane::i64, lane::i64, leaf); break;
          case dtype::f32: r = apply(opcode::load, lane::f64, lane::f64, leaf); break;
        }
        break;
      }
      case node::kind::scalar:
        if (f) {
          r.l = lane::f64;
          r.f = nd->value.f;
        } else {
          r = int_constant(nd->value.i);
        }
        break;
      case node::kind::unary: {
        const operand a = emit(nd->lhs.get());
        switch (nd->uop) {
          case unary_op::neg:
            r = apply(opcode::neg, wide, wide, to_lane(a, wide));
            break;
          case unary_op::logical_not:  // !truthy(a)
            r = apply(opcode::eq, a.l, lane::i32, a, zero_of(a.l));
            break;
          case unary_op::cast:
            if (nd->type == dtype::b8) {  // truthy(a)
              r = apply(opcode::ne, a.l, lane::i32, a, zero_of(a.l));
            } else if (f || a.l == lane::f64) {
              r = to_lane(a, wide);
            } else {
              r = a;  // int to int keeps the value
            }
            break;
        }
        break;
      }
      case node::kind::binary: {
        const operand a = emit(nd->lhs.get());
        const operand b = emit(nd->rhs.get());
        switch (nd->bop) {
          case binary_op::add:
          case binary_op::sub:
          case binary_op::mul:
          case binary_op::div:
          case binary_op::min:
          case binary_op::max: {
            const bool narrow = !f && (nd->bop == binary_op::min ||
                                       nd->bop == binary_op::max);
            const lane l = narrow ? int_lane(a, b) : wide;
            const operand x = to_lane(a, l);
            const operand y = to_lane(b, l);
            r = apply(arith_code(nd->bop), l, l, x, y);
            break;
          }
          case binary_op::gt:
          case binary_op::lt:
          case binary_op::ge:
          case binary_op::le:
          case binary_op::eq:
          case binary_op::ne: {
            const lane l = a.l == lane::f64 || b.l == lane::f64
                               ? lane::f64
                               : int_lane(a, b);
            const operand x = to_lane(a, l);
            const operand y = to_lane(b, l);
            r = apply(compare_code(nd->bop), l, lane::i32, x, y);
            break;
          }
          case binary_op::logical_and:
          case binary_op::logical_or: {
            const operand x = truth(a);
            const operand y = truth(b);
            r = apply(nd->bop == binary_op::logical_and ? opcode::logical_and
                                                        : opcode::logical_or,
                      lane::i32, lane::i32, x, y);
            break;
          }
        }
        break;
      }
    }
    // The node's readers take over the single read its register holds.
    entry& e = entry_of(nd);
    if (r.reg >= 0) refs(r.l)[r.reg] += e.uses - 1;
    e.emitted = true;
    e.result = r;
    return r;
  }

  static opcode arith_code(binary_op op) {
    switch (op) {
      case binary_op::add: return opcode::add;
      case binary_op::sub: return opcode::sub;
      case binary_op::mul: return opcode::mul;
      case binary_op::div: return opcode::div;
      case binary_op::min: return opcode::min;
      default: return opcode::max;
    }
  }

  static opcode compare_code(binary_op op) {
    switch (op) {
      case binary_op::gt: return opcode::gt;
      case binary_op::lt: return opcode::lt;
      case binary_op::ge: return opcode::ge;
      case binary_op::le: return opcode::le;
      case binary_op::eq: return opcode::eq;
      default: return opcode::ne;
    }
  }

  std::vector<entry> entries_;
  std::vector<tile_op> ops_;
  std::vector<const node*> leaves_;
  std::vector<int> refs_[kLanes];  ///< pending reads per register
  operand result_;
};

}  // namespace
}  // namespace detail

array from_buffer(std::shared_ptr<gpusim::DeviceBuffer> buffer, dtype t,
                  size_t n) {
  auto nd = std::make_shared<detail::node>();
  nd->k = detail::node::kind::data;
  nd->type = t;
  nd->n = n;
  nd->buffer = std::move(buffer);
  return array(std::move(nd));
}

const array& array::eval() const {
  using detail::node;
  if (!node_ || node_->k == node::kind::data) return *this;
  const size_t n = node_->n;
  auto buffer = std::make_shared<gpusim::DeviceBuffer>(
      n * dtype_size(node_->type), default_stream().device());

  const detail::tile_program program(node_.get());
  uint64_t bytes_read = 0;
  for (const node* leaf : program.leaves()) {
    bytes_read += leaf->n * dtype_size(leaf->type);
  }

  gpusim::KernelStats stats;
  stats.name = "af::jit_fused";
  stats.bytes_read = bytes_read;
  stats.bytes_written = n * dtype_size(node_->type);
  stats.ops = static_cast<uint64_t>(n) * node_->tree_size;
  void* out = buffer->data();
  const dtype t = node_->type;
  gpusim::ParallelForChunks(default_stream(), n, stats,
                            [&](size_t begin, size_t end) {
                              program.run(out, t, begin, end);
                            });

  // Mutate the shared node into a data node so every aliasing handle sees
  // the materialized result (af semantics).
  node_->k = node::kind::data;
  node_->buffer = std::move(buffer);
  node_->lhs.reset();
  node_->rhs.reset();
  node_->tree_size = 1;
  return *this;
}

}  // namespace afsim
