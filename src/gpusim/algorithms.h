// Device-side algorithm primitives with GPU-faithful pass structure.
//
// Each primitive here is decomposed into the same sequence of kernel launches
// a real GPU implementation uses (per-block partials + tree reduction,
// multi-level Blelloch scan, LSD radix sort with per-tile histograms, flag +
// scan + scatter stream compaction). The libraries under test (thrustsim,
// bcsim, afsim) wrap these primitives with their own APIs and charge their
// own API profiles through the Stream they pass in, so launch counts, bytes
// moved, and therefore simulated time differ per library exactly as the call
// structure differs.
#ifndef GPUSIM_ALGORITHMS_H_
#define GPUSIM_ALGORITHMS_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "gpusim/atomic_ops.h"
#include "gpusim/kernel.h"
#include "gpusim/memory.h"

namespace gpusim {

/// Elements processed per simulated thread block in multi-pass primitives.
inline constexpr size_t kTileSize = 1024;

namespace detail {
inline size_t NumTiles(size_t n) { return (n + kTileSize - 1) / kTileSize; }
}  // namespace detail

// ---------------------------------------------------------------------------
// Fill / sequence
// ---------------------------------------------------------------------------

/// out[i] = value for i in [0, n).
template <typename T>
void Fill(Stream& stream, T* out, size_t n, T value) {
  KernelStats stats;
  stats.name = "fill";
  stats.bytes_written = n * sizeof(T);
  ParallelFor(stream, n, stats, [=](size_t i) { out[i] = value; });
}

/// out[i] = start + i * step.
template <typename T>
void Sequence(Stream& stream, T* out, size_t n, T start = T{0}, T step = T{1}) {
  KernelStats stats;
  stats.name = "sequence";
  stats.bytes_written = n * sizeof(T);
  ParallelFor(stream, n, stats,
              [=](size_t i) { out[i] = start + static_cast<T>(i) * step; });
}

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

/// Tree reduction: per-block partials, repeated until one value remains,
/// then a single-element device-to-host copy. Returns op(init, reduce(in)).
template <typename T, typename BinOp>
T Reduce(Stream& stream, const T* in, size_t n, T init, BinOp op,
         const char* name = "reduce") {
  if (n == 0) return init;
  Device& device = stream.device();
  size_t num_tiles = detail::NumTiles(n);
  DeviceArray<T> partials(num_tiles, device);
  DeviceArray<T> partials2(detail::NumTiles(num_tiles), device);

  {
    KernelStats stats;
    stats.name = name;
    stats.bytes_read = n * sizeof(T);
    stats.bytes_written = num_tiles * sizeof(T);
    stats.ops = n;
    T* out = partials.data();
    LaunchBlocks(stream, num_tiles, kDefaultBlockSize, stats,
                 [=](const BlockContext& ctx) {
                   const size_t begin = ctx.block_id * kTileSize;
                   const size_t end = std::min(begin + kTileSize, n);
                   T acc = in[begin];
                   for (size_t i = begin + 1; i < end; ++i) acc = op(acc, in[i]);
                   out[ctx.block_id] = acc;
                 });
  }

  T* src = partials.data();
  T* dst = partials2.data();
  size_t m = num_tiles;
  while (m > 1) {
    const size_t tiles = detail::NumTiles(m);
    KernelStats stats;
    stats.name = "reduce_partials";
    stats.bytes_read = m * sizeof(T);
    stats.bytes_written = tiles * sizeof(T);
    stats.ops = m;
    const T* s = src;
    T* d = dst;
    const size_t mm = m;
    LaunchBlocks(stream, tiles, kDefaultBlockSize, stats,
                 [=](const BlockContext& ctx) {
                   const size_t begin = ctx.block_id * kTileSize;
                   const size_t end = std::min(begin + kTileSize, mm);
                   T acc = s[begin];
                   for (size_t i = begin + 1; i < end; ++i) acc = op(acc, s[i]);
                   d[ctx.block_id] = acc;
                 });
    std::swap(src, dst);
    m = tiles;
  }

  T result;
  CopyDeviceToHost(stream, &result, src, sizeof(T));
  return op(init, result);
}

// ---------------------------------------------------------------------------
// Scans (multi-level Blelloch structure)
// ---------------------------------------------------------------------------

namespace detail {

/// Per-tile scan writing tile totals; then recursive scan of totals; then a
/// uniform-add pass. `kInclusive` selects inclusive vs exclusive semantics.
template <bool kInclusive, typename T, typename BinOp>
void ScanImpl(Stream& stream, const T* in, T* out, size_t n, T identity,
              BinOp op) {
  if (n == 0) return;
  Device& device = stream.device();
  const size_t num_tiles = NumTiles(n);
  DeviceArray<T> tile_sums(num_tiles, device);

  {
    KernelStats stats;
    stats.name = kInclusive ? "scan_tiles_inclusive" : "scan_tiles_exclusive";
    stats.bytes_read = n * sizeof(T);
    stats.bytes_written = (n + num_tiles) * sizeof(T);
    stats.ops = n;
    T* sums = tile_sums.data();
    LaunchBlocks(stream, num_tiles, kDefaultBlockSize, stats,
                 [=](const BlockContext& ctx) {
                   const size_t begin = ctx.block_id * kTileSize;
                   const size_t end = std::min(begin + kTileSize, n);
                   T acc = identity;
                   for (size_t i = begin; i < end; ++i) {
                     const T v = in[i];
                     if constexpr (kInclusive) {
                       acc = op(acc, v);
                       out[i] = acc;
                     } else {
                       out[i] = acc;
                       acc = op(acc, v);
                     }
                   }
                   sums[ctx.block_id] = acc;
                 });
  }

  if (num_tiles > 1) {
    DeviceArray<T> sums_scanned(num_tiles, device);
    ScanImpl<false>(stream, tile_sums.data(), sums_scanned.data(), num_tiles,
                    identity, op);
    KernelStats stats;
    stats.name = "scan_uniform_add";
    stats.bytes_read = (n + num_tiles) * sizeof(T);
    stats.bytes_written = n * sizeof(T);
    stats.ops = n;
    const T* offsets = sums_scanned.data();
    LaunchBlocks(stream, num_tiles, kDefaultBlockSize, stats,
                 [=](const BlockContext& ctx) {
                   const size_t begin = ctx.block_id * kTileSize;
                   const size_t end = std::min(begin + kTileSize, n);
                   const T offset = offsets[ctx.block_id];
                   for (size_t i = begin; i < end; ++i) {
                     out[i] = op(offset, out[i]);
                   }
                 });
  }
}

}  // namespace detail

/// Exclusive scan: out[0] = init, out[i] = op(out[i-1], in[i-1]).
template <typename T, typename BinOp>
void ExclusiveScan(Stream& stream, const T* in, T* out, size_t n, T init,
                   BinOp op) {
  detail::ScanImpl<false>(stream, in, out, n, T{}, op);
  if (init != T{}) {
    KernelStats stats;
    stats.name = "scan_apply_init";
    stats.bytes_read = n * sizeof(T);
    stats.bytes_written = n * sizeof(T);
    ParallelFor(stream, n, stats, [=](size_t i) { out[i] = op(init, out[i]); });
  }
}

/// Inclusive scan: out[i] = op(in[0], ..., in[i]).
template <typename T, typename BinOp>
void InclusiveScan(Stream& stream, const T* in, T* out, size_t n, BinOp op) {
  detail::ScanImpl<true>(stream, in, out, n, T{}, op);
}

// ---------------------------------------------------------------------------
// Gather / scatter
// ---------------------------------------------------------------------------

/// dst[i] = src[map[i]] for i in [0, n).
template <typename T, typename I>
void Gather(Stream& stream, const I* map, size_t n, const T* src, T* dst) {
  KernelStats stats;
  stats.name = "gather";
  stats.bytes_read = n * (sizeof(T) + sizeof(I));
  stats.bytes_written = n * sizeof(T);
  ParallelFor(stream, n, stats,
              [=](size_t i) { dst[i] = src[static_cast<size_t>(map[i])]; });
}

/// dst[map[i]] = src[i] for i in [0, n).
template <typename T, typename I>
void Scatter(Stream& stream, const T* src, const I* map, size_t n, T* dst) {
  KernelStats stats;
  stats.name = "scatter";
  stats.bytes_read = n * (sizeof(T) + sizeof(I));
  stats.bytes_written = n * sizeof(T);
  ParallelFor(stream, n, stats,
              [=](size_t i) { dst[static_cast<size_t>(map[i])] = src[i]; });
}

// ---------------------------------------------------------------------------
// Stream compaction (flag + scan + scatter)
// ---------------------------------------------------------------------------

/// Writes in[i] to out (densely) for every i with pred(in[i]). Returns the
/// number of elements written. Three kernels plus a scan, matching the
/// canonical GPU compaction pipeline.
template <typename T, typename Pred>
size_t CopyIf(Stream& stream, const T* in, size_t n, T* out, Pred pred) {
  if (n == 0) return 0;
  Device& device = stream.device();
  DeviceArray<uint32_t> flags(n, device);
  DeviceArray<uint32_t> positions(n, device);

  {
    KernelStats stats;
    stats.name = "copy_if_flags";
    stats.bytes_read = n * sizeof(T);
    stats.bytes_written = n * sizeof(uint32_t);
    uint32_t* f = flags.data();
    ParallelFor(stream, n, stats,
                [=](size_t i) { f[i] = pred(in[i]) ? 1u : 0u; });
  }
  ExclusiveScan(stream, flags.data(), positions.data(), n, uint32_t{0},
                [](uint32_t a, uint32_t b) { return a + b; });

  uint32_t last_pos = 0, last_flag = 0;
  CopyDeviceToHost(stream, &last_pos, positions.data() + (n - 1),
                   sizeof(uint32_t));
  CopyDeviceToHost(stream, &last_flag, flags.data() + (n - 1),
                   sizeof(uint32_t));
  const size_t count = last_pos + last_flag;

  {
    KernelStats stats;
    stats.name = "copy_if_scatter";
    stats.bytes_read = n * (sizeof(T) + 2 * sizeof(uint32_t));
    stats.bytes_written = count * sizeof(T);
    const uint32_t* f = flags.data();
    const uint32_t* pos = positions.data();
    ParallelFor(stream, n, stats, [=](size_t i) {
      if (f[i]) out[pos[i]] = in[i];
    });
  }
  return count;
}

/// Like CopyIf but the predicate sees the *index*, and the copied value is
/// taken from `values`. Used to compact row ids by a selection predicate on
/// another column (the transform & scan & gather pipeline of Table II).
template <typename T, typename Pred>
size_t CopyIndexIf(Stream& stream, size_t n, const T* values, T* out,
                   Pred pred) {
  if (n == 0) return 0;
  Device& device = stream.device();
  DeviceArray<uint32_t> flags(n, device);
  DeviceArray<uint32_t> positions(n, device);
  {
    KernelStats stats;
    stats.name = "copy_index_if_flags";
    stats.bytes_written = n * sizeof(uint32_t);
    uint32_t* f = flags.data();
    ParallelFor(stream, n, stats, [=](size_t i) { f[i] = pred(i) ? 1u : 0u; });
  }
  ExclusiveScan(stream, flags.data(), positions.data(), n, uint32_t{0},
                [](uint32_t a, uint32_t b) { return a + b; });
  uint32_t last_pos = 0, last_flag = 0;
  CopyDeviceToHost(stream, &last_pos, positions.data() + (n - 1),
                   sizeof(uint32_t));
  CopyDeviceToHost(stream, &last_flag, flags.data() + (n - 1),
                   sizeof(uint32_t));
  const size_t count = last_pos + last_flag;
  {
    KernelStats stats;
    stats.name = "copy_index_if_scatter";
    stats.bytes_read = n * (sizeof(T) + 2 * sizeof(uint32_t));
    stats.bytes_written = count * sizeof(T);
    const uint32_t* f = flags.data();
    const uint32_t* pos = positions.data();
    ParallelFor(stream, n, stats, [=](size_t i) {
      if (f[i]) out[pos[i]] = values[i];
    });
  }
  return count;
}

/// Counts elements satisfying pred (flag kernel + tree reduction).
template <typename T, typename Pred>
size_t CountIf(Stream& stream, const T* in, size_t n, Pred pred) {
  if (n == 0) return 0;
  Device& device = stream.device();
  DeviceArray<uint32_t> flags(n, device);
  {
    KernelStats stats;
    stats.name = "count_if_flags";
    stats.bytes_read = n * sizeof(T);
    stats.bytes_written = n * sizeof(uint32_t);
    uint32_t* f = flags.data();
    ParallelFor(stream, n, stats,
                [=](size_t i) { f[i] = pred(in[i]) ? 1u : 0u; });
  }
  return Reduce(stream, flags.data(), n, uint32_t{0},
                [](uint32_t a, uint32_t b) { return a + b; }, "count_if");
}

// ---------------------------------------------------------------------------
// Radix sort (LSD, 8-bit digits, per-tile histograms)
// ---------------------------------------------------------------------------

/// Bijective mapping of a key type onto unsigned integers that preserves the
/// key's ordering, as used by GPU radix sorts.
template <typename K>
struct RadixTraits;

template <>
struct RadixTraits<uint32_t> {
  using Unsigned = uint32_t;
  static Unsigned Encode(uint32_t k) { return k; }
  static uint32_t Decode(Unsigned u) { return u; }
};

template <>
struct RadixTraits<uint64_t> {
  using Unsigned = uint64_t;
  static Unsigned Encode(uint64_t k) { return k; }
  static uint64_t Decode(Unsigned u) { return u; }
};

template <>
struct RadixTraits<int32_t> {
  using Unsigned = uint32_t;
  static Unsigned Encode(int32_t k) {
    return static_cast<uint32_t>(k) ^ 0x80000000u;
  }
  static int32_t Decode(Unsigned u) {
    return static_cast<int32_t>(u ^ 0x80000000u);
  }
};

template <>
struct RadixTraits<int64_t> {
  using Unsigned = uint64_t;
  static Unsigned Encode(int64_t k) {
    return static_cast<uint64_t>(k) ^ 0x8000000000000000ull;
  }
  static int64_t Decode(Unsigned u) {
    return static_cast<int64_t>(u ^ 0x8000000000000000ull);
  }
};

template <>
struct RadixTraits<float> {
  using Unsigned = uint32_t;
  static Unsigned Encode(float k) {
    uint32_t u;
    std::memcpy(&u, &k, sizeof(u));
    return (u & 0x80000000u) ? ~u : (u | 0x80000000u);
  }
  static float Decode(Unsigned u) {
    u = (u & 0x80000000u) ? (u & ~0x80000000u) : ~u;
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
  }
};

template <>
struct RadixTraits<double> {
  using Unsigned = uint64_t;
  static Unsigned Encode(double k) {
    uint64_t u;
    std::memcpy(&u, &k, sizeof(u));
    return (u & 0x8000000000000000ull) ? ~u : (u | 0x8000000000000000ull);
  }
  static double Decode(Unsigned u) {
    u = (u & 0x8000000000000000ull) ? (u & ~0x8000000000000000ull) : ~u;
    double f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
  }
};

namespace detail {

inline constexpr uint32_t kRadixBits = 8;
inline constexpr uint32_t kRadixBuckets = 1u << kRadixBits;

/// One stable LSD pass over `shift`-th digit: histogram, scan, scatter.
/// kHasValues controls whether the payload arrays participate.
template <bool kHasValues, typename U, typename V>
void RadixPass(Stream& stream, const U* keys_in, U* keys_out, const V* vals_in,
               V* vals_out, size_t n, uint32_t shift, uint32_t* counts,
               uint32_t* offsets, size_t num_tiles) {
  // Per-tile digit histograms stored digit-major: counts[d * num_tiles + t],
  // so a single exclusive scan of the whole array yields global offsets for
  // each (digit, tile) pair — the standard GPU radix layout.
  {
    KernelStats stats;
    stats.name = "radix_histogram";
    stats.bytes_read = n * sizeof(U);
    stats.bytes_written = num_tiles * kRadixBuckets * sizeof(uint32_t);
    stats.ops = n;
    LaunchBlocks(stream, num_tiles, kDefaultBlockSize, stats,
                 [=](const BlockContext& ctx) {
                   uint32_t local[kRadixBuckets] = {0};
                   const size_t begin = ctx.block_id * kTileSize;
                   const size_t end = std::min(begin + kTileSize, n);
                   for (size_t i = begin; i < end; ++i) {
                     const uint32_t d =
                         static_cast<uint32_t>(keys_in[i] >> shift) &
                         (kRadixBuckets - 1);
                     ++local[d];
                   }
                   for (uint32_t d = 0; d < kRadixBuckets; ++d) {
                     counts[static_cast<size_t>(d) * num_tiles + ctx.block_id] =
                         local[d];
                   }
                 });
  }
  ExclusiveScan(stream, counts, offsets, num_tiles * kRadixBuckets,
                uint32_t{0}, [](uint32_t a, uint32_t b) { return a + b; });
  {
    KernelStats stats;
    stats.name = "radix_scatter";
    stats.bytes_read = n * (sizeof(U) + (kHasValues ? sizeof(V) : 0));
    stats.bytes_written = n * (sizeof(U) + (kHasValues ? sizeof(V) : 0));
    stats.ops = n;
    LaunchBlocks(stream, num_tiles, kDefaultBlockSize, stats,
                 [=](const BlockContext& ctx) {
                   uint32_t local[kRadixBuckets];
                   for (uint32_t d = 0; d < kRadixBuckets; ++d) {
                     local[d] = offsets[static_cast<size_t>(d) * num_tiles +
                                        ctx.block_id];
                   }
                   const size_t begin = ctx.block_id * kTileSize;
                   const size_t end = std::min(begin + kTileSize, n);
                   for (size_t i = begin; i < end; ++i) {
                     const uint32_t d =
                         static_cast<uint32_t>(keys_in[i] >> shift) &
                         (kRadixBuckets - 1);
                     const uint32_t p = local[d]++;
                     keys_out[p] = keys_in[i];
                     if constexpr (kHasValues) vals_out[p] = vals_in[i];
                   }
                 });
  }
}

template <bool kHasValues, typename K, typename V>
void RadixSortImpl(Stream& stream, K* keys, V* values, size_t n) {
  if (n <= 1) return;
  using Traits = RadixTraits<K>;
  using U = typename Traits::Unsigned;
  Device& device = stream.device();
  const size_t num_tiles = NumTiles(n);

  DeviceArray<U> ukeys_a(n, device);
  DeviceArray<U> ukeys_b(n, device);
  DeviceArray<V> vals_b(kHasValues ? n : 0, device);
  DeviceArray<uint32_t> counts(num_tiles * kRadixBuckets, device);
  DeviceArray<uint32_t> offsets(num_tiles * kRadixBuckets, device);

  {
    KernelStats stats;
    stats.name = "radix_encode";
    stats.bytes_read = n * sizeof(K);
    stats.bytes_written = n * sizeof(U);
    U* out = ukeys_a.data();
    ParallelFor(stream, n, stats,
                [=](size_t i) { out[i] = Traits::Encode(keys[i]); });
  }

  U* src_k = ukeys_a.data();
  U* dst_k = ukeys_b.data();
  V* src_v = values;
  V* dst_v = kHasValues ? vals_b.data() : nullptr;
  const uint32_t passes = sizeof(U);
  for (uint32_t p = 0; p < passes; ++p) {
    RadixPass<kHasValues>(stream, src_k, dst_k, src_v, dst_v, n,
                          p * kRadixBits, counts.data(), offsets.data(),
                          num_tiles);
    std::swap(src_k, dst_k);
    if constexpr (kHasValues) std::swap(src_v, dst_v);
  }
  // sizeof(U) is even (4 or 8), so after the swaps src_k == ukeys_a and for
  // values src_v == values: payload ends in the caller's buffer.
  {
    KernelStats stats;
    stats.name = "radix_decode";
    stats.bytes_read = n * sizeof(U);
    stats.bytes_written = n * sizeof(K);
    const U* in = src_k;
    ParallelFor(stream, n, stats,
                [=](size_t i) { keys[i] = Traits::Decode(in[i]); });
  }
}

}  // namespace detail

/// In-place ascending radix sort of keys.
template <typename K>
void RadixSortKeys(Stream& stream, K* keys, size_t n) {
  detail::RadixSortImpl<false, K, uint8_t>(stream, keys, nullptr, n);
}

/// In-place ascending stable radix sort of (key, value) pairs.
template <typename K, typename V>
void RadixSortPairs(Stream& stream, K* keys, V* values, size_t n) {
  detail::RadixSortImpl<true>(stream, keys, values, n);
}

// ---------------------------------------------------------------------------
// Reduce by key (requires sorted keys; head flags + scan + atomic combine)
// ---------------------------------------------------------------------------

namespace detail {

/// CAS-loop combine for generic commutative+associative ops.
template <typename V, typename BinOp>
void AtomicCombine(V* address, V val, BinOp op) {
  std::atomic_ref<V> ref(*address);
  V old = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(old, op(old, val),
                                    std::memory_order_acq_rel)) {
  }
}

}  // namespace detail

/// Segmented reduction over equal consecutive keys, the GPU realization of
/// grouped aggregation after a sort-by-key (Table II: reduce_by_key /
/// sumByKey). `op` must be commutative and associative; like Thrust's
/// reduce_by_key, only actual segment elements are combined (each segment is
/// seeded from its head element, so no identity value is needed). Returns
/// the number of distinct segments; out_keys/out_vals must have room for n
/// entries.
template <typename K, typename V, typename BinOp>
size_t ReduceByKey(Stream& stream, const K* keys, const V* vals, size_t n,
                   K* out_keys, V* out_vals, BinOp op) {
  if (n == 0) return 0;
  Device& device = stream.device();
  DeviceArray<uint32_t> flags(n, device);
  DeviceArray<uint32_t> segids(n, device);

  {
    KernelStats stats;
    stats.name = "rbk_head_flags";
    stats.bytes_read = 2 * n * sizeof(K);
    stats.bytes_written = n * sizeof(uint32_t);
    uint32_t* f = flags.data();
    ParallelFor(stream, n, stats, [=](size_t i) {
      f[i] = (i == 0 || keys[i] != keys[i - 1]) ? 1u : 0u;
    });
  }
  InclusiveScan(stream, flags.data(), segids.data(), n,
                [](uint32_t a, uint32_t b) { return a + b; });
  uint32_t num_segments = 0;
  CopyDeviceToHost(stream, &num_segments, segids.data() + (n - 1),
                   sizeof(uint32_t));

  {
    KernelStats stats;
    stats.name = "rbk_seed_heads";
    stats.bytes_read = n * (sizeof(K) + sizeof(V) + 2 * sizeof(uint32_t));
    stats.bytes_written = num_segments * (sizeof(K) + sizeof(V));
    const uint32_t* f = flags.data();
    const uint32_t* s = segids.data();
    ParallelFor(stream, n, stats, [=](size_t i) {
      if (f[i]) {
        const size_t seg = s[i] - 1;
        out_keys[seg] = keys[i];
        out_vals[seg] = vals[i];
      }
    });
  }
  {
    KernelStats stats;
    stats.name = "rbk_combine";
    stats.bytes_read = n * (sizeof(V) + 2 * sizeof(uint32_t));
    stats.bytes_written = num_segments * sizeof(V);
    stats.ops = 2 * n;
    const uint32_t* f = flags.data();
    const uint32_t* s = segids.data();
    // Each chunk folds the non-head elements of a run locally and combines
    // once per run fragment; only fragments at chunk edges share a segment.
    ParallelForChunks(stream, n, stats, [=](size_t begin, size_t end) {
      size_t i = begin;
      while (i < end) {
        const uint32_t seg = s[i];
        if (f[i]) ++i;  // the head's value was seeded above
        if (i == end || s[i] != seg) continue;
        V acc = vals[i];
        for (++i; i < end && s[i] == seg; ++i) acc = op(acc, vals[i]);
        detail::AtomicCombine(&out_vals[seg - 1], acc, op);
      }
    });
  }
  return num_segments;
}

// ---------------------------------------------------------------------------
// Unique / merge-based set operations over sorted inputs
// ---------------------------------------------------------------------------

/// Compacts consecutive duplicates of a *sorted* array into out; returns the
/// number of unique elements.
template <typename T>
size_t UniqueSorted(Stream& stream, const T* in, size_t n, T* out) {
  if (n == 0) return 0;
  Device& device = stream.device();
  DeviceArray<uint32_t> flags(n, device);
  DeviceArray<uint32_t> positions(n, device);
  {
    KernelStats stats;
    stats.name = "unique_flags";
    stats.bytes_read = 2 * n * sizeof(T);
    stats.bytes_written = n * sizeof(uint32_t);
    uint32_t* f = flags.data();
    ParallelFor(stream, n, stats, [=](size_t i) {
      f[i] = (i == 0 || in[i] != in[i - 1]) ? 1u : 0u;
    });
  }
  ExclusiveScan(stream, flags.data(), positions.data(), n, uint32_t{0},
                [](uint32_t a, uint32_t b) { return a + b; });
  uint32_t last_pos = 0, last_flag = 0;
  CopyDeviceToHost(stream, &last_pos, positions.data() + (n - 1),
                   sizeof(uint32_t));
  CopyDeviceToHost(stream, &last_flag, flags.data() + (n - 1),
                   sizeof(uint32_t));
  const size_t count = last_pos + last_flag;
  {
    KernelStats stats;
    stats.name = "unique_scatter";
    stats.bytes_read = n * (sizeof(T) + 2 * sizeof(uint32_t));
    stats.bytes_written = count * sizeof(T);
    const uint32_t* f = flags.data();
    const uint32_t* pos = positions.data();
    ParallelFor(stream, n, stats, [=](size_t i) {
      if (f[i]) out[pos[i]] = in[i];
    });
  }
  return count;
}

/// Binary search for `key` in sorted [data, data+n): true if present.
template <typename T>
inline bool BinarySearchContains(const T* data, size_t n, T key) {
  size_t lo = 0, hi = n;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < n && data[lo] == key;
}

/// Intersection of two sorted unique arrays; returns the output size.
/// One flag kernel with per-element binary search + compaction, the way
/// ArrayFire's setIntersect is realized on GPUs.
template <typename T>
size_t SetIntersectSorted(Stream& stream, const T* a, size_t na, const T* b,
                          size_t nb, T* out) {
  if (na == 0 || nb == 0) return 0;
  const double log_nb = nb > 1 ? std::log2(static_cast<double>(nb)) : 1.0;
  KernelStats probe_stats;
  probe_stats.name = "set_intersect_probe";
  probe_stats.bytes_read =
      na * sizeof(T) + static_cast<uint64_t>(na * log_nb * sizeof(T));
  probe_stats.ops = static_cast<uint64_t>(na * log_nb);
  // CopyIf charges its own kernels; fold the probe cost into the predicate
  // kernel by pre-charging the binary-search traffic here.
  stream.ChargeKernel(probe_stats);
  return CopyIf(stream, a, na, out,
                [=](T key) { return BinarySearchContains(b, nb, key); });
}

}  // namespace gpusim

#endif  // GPUSIM_ALGORITHMS_H_
