// Order-independent floating-point sum.
//
// A floating-point sum depends on the order of its terms. Kernels that
// compact with an atomic ticket (handwritten::TicketedSelect) leave their
// survivors in host-thread-timing order, so a plain tree reduction over
// them returns a different last bit from run to run. ExactSum folds every
// term into a fixed-point accumulator wide enough to hold any finite double
// exactly. Integer addition is associative, so the total, and the one
// rounding to T at the end, are the same for every order of the terms.
//
// The accumulator is host state (the analogue of a block's registers and
// shared memory). ExactSum charges exactly what Reduce charges for the same
// T and n: same launches, same KernelStats, same device partials.
#ifndef GPUSIM_EXACT_SUM_H_
#define GPUSIM_EXACT_SUM_H_

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "gpusim/algorithms.h"

namespace gpusim {

/// Exact sum of doubles: a two's-complement fixed-point number with its
/// least significant bit at 2^-1074 (the smallest subnormal), held as
/// 32-bit digits in int64 limbs so that additions defer their carries.
class ExactAccumulator {
 public:
  void Add(double x) {
    if (!std::isfinite(x)) {
      if (std::isnan(x)) {
        nan_ = true;
      } else if (x > 0) {
        pos_inf_ = true;
      } else {
        neg_inf_ = true;
      }
      return;
    }
    const uint64_t bits = std::bit_cast<uint64_t>(x);
    const uint64_t biased = (bits >> 52) & 0x7ff;
    uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
    if (biased != 0) mantissa |= uint64_t{1} << 52;
    if (mantissa == 0) return;
    // x = mantissa * 2^(biased - 1075) for normals, 2^-1074 for subnormals.
    const size_t pos = biased == 0 ? 0 : static_cast<size_t>(biased - 1);
    const unsigned __int128 shifted = static_cast<unsigned __int128>(mantissa)
                                      << (pos % kDigitBits);
    const int64_t sign = (bits >> 63) != 0 ? -1 : 1;
    const size_t k = pos / kDigitBits;
    for (size_t d = 0; d < 3; ++d) {
      limbs_[k + d] +=
          sign * static_cast<int64_t>((shifted >> (d * kDigitBits)) & kMask);
    }
    Defer(1);
  }

  void Merge(const ExactAccumulator& other) {
    for (size_t i = 0; i < kLimbs; ++i) limbs_[i] += other.limbs_[i];
    nan_ |= other.nan_;
    pos_inf_ |= other.pos_inf_;
    neg_inf_ |= other.neg_inf_;
    Defer(other.pending_ + 1);
  }

  /// The exact sum rounded to double (round to nearest, ties to even,
  /// except for double rounding into the subnormal range).
  double Round() const {
    if (nan_ || (pos_inf_ && neg_inf_)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (pos_inf_) return std::numeric_limits<double>::infinity();
    if (neg_inf_) return -std::numeric_limits<double>::infinity();
    ExactAccumulator n = *this;
    n.Normalize();
    const bool negative = n.limbs_[kLimbs - 1] < 0;
    if (negative) n.Negate();
    size_t top = kLimbs;
    while (top > 0 && n.limbs_[top - 1] == 0) --top;
    if (top == 0) return 0.0;
    // The three highest digits hold at least 65 significant bits; any
    // nonzero digit below them only breaks ties (sticky bit).
    const size_t low = top >= 3 ? top - 3 : 0;
    unsigned __int128 head = 0;
    for (size_t i = top; i-- > low;) {
      head = (head << kDigitBits) | static_cast<uint64_t>(n.limbs_[i]);
    }
    for (size_t i = 0; i < low; ++i) {
      if (n.limbs_[i] != 0) {
        head |= 1;
        break;
      }
    }
    const double magnitude = std::ldexp(
        static_cast<double>(head), static_cast<int>(low * kDigitBits) - 1074);
    return negative ? -magnitude : magnitude;
  }

 private:
  static constexpr size_t kDigitBits = 32;
  static constexpr int64_t kMask = (int64_t{1} << kDigitBits) - 1;
  // Bits 0..2098 hold any finite double's mantissa; the spare digits take
  // the carries of up to 2^62 terms.
  static constexpr size_t kLimbs = 2098 / kDigitBits + 4;
  // Each limb absorbs this many unnormalized digit-sized additions.
  static constexpr uint64_t kMaxPending = uint64_t{1} << 30;

  void Defer(uint64_t additions) {
    pending_ += additions;
    if (pending_ >= kMaxPending) Normalize();
  }

  /// Carries every limb into [0, 2^32) except the top one, which keeps
  /// the sign.
  void Normalize() {
    for (size_t i = 0; i + 1 < kLimbs; ++i) {
      const int64_t carry = limbs_[i] >> kDigitBits;  // floor division
      limbs_[i] -= carry * (int64_t{1} << kDigitBits);
      limbs_[i + 1] += carry;
    }
    pending_ = 0;
  }

  /// Two's-complement negation of a normalized value.
  void Negate() {
    int64_t borrow = 0;
    for (size_t i = 0; i < kLimbs; ++i) {
      int64_t digit = -limbs_[i] - borrow;
      borrow = 0;
      if (digit < 0 && i + 1 < kLimbs) {
        digit += int64_t{1} << kDigitBits;
        borrow = 1;
      }
      limbs_[i] = digit;
    }
  }

  std::array<int64_t, kLimbs> limbs_{};
  uint64_t pending_ = 0;
  bool nan_ = false;
  bool pos_inf_ = false;
  bool neg_inf_ = false;
};

/// Sum of in[0, n) that is the same for every order of the terms. Charges
/// exactly what Reduce(stream, in, n, T{}, plus, name) charges.
template <typename T>
T ExactSum(Stream& stream, const T* in, size_t n, const char* name) {
  static_assert(std::is_floating_point_v<T>);
  if (n == 0) return T{};
  Device& device = stream.device();
  size_t num_tiles = detail::NumTiles(n);
  DeviceArray<T> partials(num_tiles, device);
  DeviceArray<T> partials2(detail::NumTiles(num_tiles), device);
  // Host mirror of the device partials, one exact accumulator per tile.
  std::vector<ExactAccumulator> accs(num_tiles);
  std::vector<ExactAccumulator> accs2(detail::NumTiles(num_tiles));

  {
    KernelStats stats;
    stats.name = name;
    stats.bytes_read = n * sizeof(T);
    stats.bytes_written = num_tiles * sizeof(T);
    stats.ops = n;
    T* out = partials.data();
    ExactAccumulator* acc_out = accs.data();
    LaunchBlocks(stream, num_tiles, kDefaultBlockSize, stats,
                 [=](const BlockContext& ctx) {
                   const size_t begin = ctx.block_id * kTileSize;
                   const size_t end = std::min(begin + kTileSize, n);
                   ExactAccumulator acc;
                   for (size_t i = begin; i < end; ++i) {
                     acc.Add(static_cast<double>(in[i]));
                   }
                   out[ctx.block_id] = static_cast<T>(acc.Round());
                   acc_out[ctx.block_id] = acc;
                 });
  }

  T* src = partials.data();
  T* dst = partials2.data();
  ExactAccumulator* acc_src = accs.data();
  ExactAccumulator* acc_dst = accs2.data();
  size_t m = num_tiles;
  while (m > 1) {
    const size_t tiles = detail::NumTiles(m);
    KernelStats stats;
    stats.name = "reduce_partials";
    stats.bytes_read = m * sizeof(T);
    stats.bytes_written = tiles * sizeof(T);
    stats.ops = m;
    T* d = dst;
    const ExactAccumulator* as = acc_src;
    ExactAccumulator* ad = acc_dst;
    const size_t mm = m;
    LaunchBlocks(stream, tiles, kDefaultBlockSize, stats,
                 [=](const BlockContext& ctx) {
                   const size_t begin = ctx.block_id * kTileSize;
                   const size_t end = std::min(begin + kTileSize, mm);
                   ExactAccumulator acc;
                   for (size_t i = begin; i < end; ++i) acc.Merge(as[i]);
                   d[ctx.block_id] = static_cast<T>(acc.Round());
                   ad[ctx.block_id] = acc;
                 });
    std::swap(src, dst);
    std::swap(acc_src, acc_dst);
    m = tiles;
  }

  T result;
  CopyDeviceToHost(stream, &result, src, sizeof(T));
  return T{} + result;
}

}  // namespace gpusim

#endif  // GPUSIM_EXACT_SUM_H_
