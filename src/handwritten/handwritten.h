// Handwritten "expert" kernels — the baseline the paper compares libraries
// against, and the realization of the operators no library supports
// (hashing: hash join, hash-based grouped aggregation).
//
// These kernels are fused: selection emits its result in ONE kernel (atomic
// ticketing) instead of the library's transform + scan + gather pipeline;
// filter+aggregate queries run as a single pass; joins and grouping use
// open-addressing hash tables built and probed with device atomics.
//
// Like expert GPU kernels, the ticketing and grouping kernels privatize per
// block: each host chunk stages survivors or partial aggregates in host
// memory (the analogue of shared memory) and touches the global atomics once
// per chunk or once per distinct key (see TicketedCompact and
// PrivatizedGroupReduce). Simulated cost is the declared KernelStats either
// way; privatization only removes host contention.
#ifndef HANDWRITTEN_HANDWRITTEN_H_
#define HANDWRITTEN_HANDWRITTEN_H_

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gpusim/algorithms.h"
#include "gpusim/atomic_ops.h"
#include "gpusim/kernel.h"
#include "gpusim/memory.h"

namespace handwritten {

/// The default stream used by handwritten kernels (CUDA profile).
inline gpusim::Stream& default_stream() {
  static gpusim::Stream* stream =
      new gpusim::Stream(gpusim::Device::Default(), gpusim::ApiProfile::Cuda());
  return *stream;
}

namespace detail {
inline size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Finalizer mixing for hash tables (Murmur3).
inline uint64_t MixHash(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// Per-host-thread staging buffer of TicketedCompact, one per item type and
/// reused across launches. A chunk body fills and drains it without
/// dispatching other work, so one buffer per thread suffices.
template <typename Item>
std::vector<Item>& StagingBuffer() {
  thread_local std::vector<Item> buffer;
  return buffer;
}

/// Chunk-private aggregation table of PrivatizedGroupReduce: open addressing
/// over kSlots host-resident slots, holding at most kMaxKeys keys so that a
/// miss ends at an empty slot after a few probes.
template <typename K, typename V>
class PrivateAggTable {
 public:
  static constexpr size_t kSlots = 256;
  static constexpr size_t kMaxKeys = kSlots / 2;

  /// Combines v into key's slot, seeding the slot on the key's first row.
  /// Returns false, changing nothing, if key is absent and the table full.
  template <typename BinOp>
  bool Combine(K key, uint64_t hash, V v, BinOp op) {
    size_t slot = hash & (kSlots - 1);
    while (used_[slot]) {
      if (keys_[slot] == key) {
        vals_[slot] = op(vals_[slot], v);
        return true;
      }
      slot = (slot + 1) & (kSlots - 1);
    }
    if (size_ == kMaxKeys) return false;
    used_[slot] = true;
    keys_[slot] = key;
    vals_[slot] = v;
    ++size_;
    return true;
  }

  /// Calls f(key, value) once per key held.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t slot = 0; slot < kSlots; ++slot) {
      if (used_[slot]) f(keys_[slot], vals_[slot]);
    }
  }

 private:
  bool used_[kSlots] = {};
  K keys_[kSlots] = {};
  V vals_[kSlots] = {};
  size_t size_ = 0;
};
}  // namespace detail

// ---------------------------------------------------------------------------
// Block-privatized building blocks
// ---------------------------------------------------------------------------

/// Atomic-ticket compaction over the grid [0, n), launched as `stats`. Each
/// host chunk stages the items match(i, &item) accepts in host memory, then
/// reserves its output range with ONE AtomicAdd on the device counter and
/// hands every staged item to store(ticket, item) — how a block compacts
/// through shared memory before one global atomic. Output order is
/// nondeterministic at chunk granularity (ascending within a chunk).
/// Charges the counter memset, the kernel and the 4-byte count readback;
/// returns the count.
template <typename Item, typename Match, typename Store>
size_t TicketedCompact(gpusim::Stream& stream, size_t n,
                       const gpusim::KernelStats& stats, Match match,
                       Store store) {
  gpusim::DeviceArray<uint32_t> counter(1, stream.device());
  gpusim::MemsetDevice(stream, counter.data(), 0, sizeof(uint32_t));
  uint32_t* c = counter.data();
  gpusim::ParallelForChunks(stream, n, stats, [=](size_t begin, size_t end) {
    std::vector<Item>& staged = detail::StagingBuffer<Item>();
    staged.clear();
    Item item{};
    for (size_t i = begin; i < end; ++i) {
      if (match(i, &item)) staged.push_back(item);
    }
    if (staged.empty()) return;
    const uint32_t base =
        gpusim::AtomicAdd(c, static_cast<uint32_t>(staged.size()));
    for (size_t k = 0; k < staged.size(); ++k) {
      store(base + static_cast<uint32_t>(k), staged[k]);
    }
  });
  uint32_t count = 0;
  gpusim::CopyDeviceToHost(stream, &count, c, sizeof(uint32_t));
  return count;
}

/// TicketedCompact of row ids: writes every i in [0, n) with keep(i) to
/// out_rows and returns the count.
template <typename Keep>
size_t TicketedSelect(gpusim::Stream& stream, size_t n,
                      const gpusim::KernelStats& stats, uint32_t* out_rows,
                      Keep keep) {
  return TicketedCompact<uint32_t>(
      stream, n, stats,
      [=](size_t i, uint32_t* row) {
        *row = static_cast<uint32_t>(i);
        return keep(i);
      },
      [=](uint32_t ticket, uint32_t row) { out_rows[ticket] = row; });
}

/// Chunk body of a block-privatized grouped reduction over rows
/// [begin, end): row i carries key key_of(i) and value val_of(i). The chunk
/// folds its rows into a private host table, then calls
/// global(key, value) once per distinct key to combine into the device-wide
/// result with atomics. When the chunk meets more distinct keys than the
/// private table holds, it flushes the table and sends its remaining rows
/// straight to global(), so a high-cardinality chunk costs at most
/// kMaxKeys extra private inserts over the unprivatized kernel.
template <typename K, typename V, typename KeyOf, typename ValOf,
          typename BinOp, typename Global>
void PrivatizedGroupReduce(size_t begin, size_t end, KeyOf key_of,
                           ValOf val_of, BinOp op, Global global) {
  detail::PrivateAggTable<K, V> table;
  size_t i = begin;
  for (; i < end; ++i) {
    const K key = key_of(i);
    if (!table.Combine(key, detail::MixHash(static_cast<uint64_t>(key)),
                       val_of(i), op)) {
      break;
    }
  }
  table.ForEach(global);
  for (; i < end; ++i) global(key_of(i), val_of(i));
}

// ---------------------------------------------------------------------------
// Fused selection
// ---------------------------------------------------------------------------

/// Single-kernel selection: writes the row ids of all rows satisfying
/// pred(col[i]) into out_indices via an atomic ticket counter and returns the
/// match count. Result order is nondeterministic (a deliberate trade the
/// hand-tuned kernel makes that libraries cannot).
template <typename T, typename Pred>
size_t SelectIndices(gpusim::Stream& stream, const T* col, size_t n,
                     uint32_t* out_indices, Pred pred) {
  gpusim::KernelStats stats;
  stats.name = "hw::select_fused";
  stats.bytes_read = n * sizeof(T);
  stats.bytes_written = n * sizeof(uint32_t);  // upper bound
  return TicketedSelect(stream, n, stats, out_indices,
                        [=](size_t i) { return pred(col[i]); });
}

/// Single-pass fused filter + aggregate: sum of value(i) over rows where
/// pred(i), computed with per-block partials and a tree reduction (no
/// intermediate materialization at all). `bytes_per_row` should account for
/// every column the two callbacks read.
template <typename Acc, typename Pred, typename Value>
Acc FusedFilterSum(gpusim::Stream& stream, size_t n, Pred pred, Value value,
                   uint64_t bytes_per_row) {
  if (n == 0) return Acc{};
  gpusim::Device& device = stream.device();
  const size_t num_tiles = (n + gpusim::kTileSize - 1) / gpusim::kTileSize;
  gpusim::DeviceArray<Acc> partials(num_tiles, device);
  gpusim::KernelStats stats;
  stats.name = "hw::fused_filter_sum";
  stats.bytes_read = n * bytes_per_row;
  stats.bytes_written = num_tiles * sizeof(Acc);
  stats.ops = 2 * n;
  Acc* p = partials.data();
  gpusim::LaunchBlocks(stream, num_tiles, gpusim::kDefaultBlockSize, stats,
                       [=](const gpusim::BlockContext& ctx) {
                         const size_t begin = ctx.block_id * gpusim::kTileSize;
                         const size_t end =
                             std::min(begin + gpusim::kTileSize, n);
                         Acc acc{};
                         for (size_t i = begin; i < end; ++i) {
                           if (pred(i)) acc += value(i);
                         }
                         p[ctx.block_id] = acc;
                       });
  return gpusim::Reduce(stream, partials.data(), num_tiles, Acc{},
                        [](Acc a, Acc b) { return a + b; },
                        "hw::fused_filter_sum_final");
}

// ---------------------------------------------------------------------------
// Hash join (the primitive the paper found missing from every library)
// ---------------------------------------------------------------------------

/// Open-addressing hash table over device memory for a unique (PK) build
/// side. Key slots start at the empty sentinel (numeric_limits<K>::max());
/// keys must not equal the sentinel.
template <typename K>
class HashJoin {
 public:
  /// Builds the table from build_keys (one kernel, atomic CAS insertion).
  HashJoin(gpusim::Stream& stream, const K* build_keys, size_t n)
      : stream_(stream),
        capacity_(detail::NextPow2(n < 8 ? 16 : 2 * n)),
        keys_(capacity_, stream.device()),
        rows_(capacity_, stream.device()) {
    gpusim::Fill(stream, keys_.data(), capacity_, kEmpty);
    gpusim::KernelStats stats;
    stats.name = "hw::hash_build";
    stats.bytes_read = n * sizeof(K);
    stats.bytes_written = n * (sizeof(K) + sizeof(uint32_t));
    stats.ops = 2 * n;
    K* table_keys = keys_.data();
    uint32_t* table_rows = rows_.data();
    const size_t mask = capacity_ - 1;
    gpusim::ParallelFor(stream, n, stats, [=](size_t i) {
      const K key = build_keys[i];
      size_t slot = detail::MixHash(static_cast<uint64_t>(key)) & mask;
      while (true) {
        const K prev = gpusim::AtomicCas(&table_keys[slot], kEmpty, key);
        if (prev == kEmpty) {
          table_rows[slot] = static_cast<uint32_t>(i);
          return;
        }
        if (prev == key) return;  // duplicate PK: keep first
        slot = (slot + 1) & mask;
      }
    });
  }

  /// Probes with probe_keys; appends (build_row, probe_row) pairs for every
  /// match via an atomic ticket. out_* must have room for probe n entries
  /// (PK side is unique, so each probe row matches at most once). Returns
  /// the number of result pairs.
  size_t Probe(const K* probe_keys, size_t n, uint32_t* out_build_rows,
               uint32_t* out_probe_rows) const {
    gpusim::KernelStats stats;
    stats.name = "hw::hash_probe";
    stats.bytes_read = n * (sizeof(K) + sizeof(K) + sizeof(uint32_t));
    stats.bytes_written = n * 2 * sizeof(uint32_t);
    stats.ops = 3 * n;
    const K* table_keys = keys_.data();
    const uint32_t* table_rows = rows_.data();
    const size_t mask = capacity_ - 1;
    using RowPair = std::pair<uint32_t, uint32_t>;  // (build row, probe row)
    return TicketedCompact<RowPair>(
        stream_, n, stats,
        [=](size_t i, RowPair* match) {
          const K key = probe_keys[i];
          size_t slot = detail::MixHash(static_cast<uint64_t>(key)) & mask;
          while (true) {
            const K stored = table_keys[slot];
            if (stored == kEmpty) return false;  // no match
            if (stored == key) {
              *match = {table_rows[slot], static_cast<uint32_t>(i)};
              return true;
            }
            slot = (slot + 1) & mask;
          }
        },
        [=](uint32_t ticket, const RowPair& match) {
          out_build_rows[ticket] = match.first;
          out_probe_rows[ticket] = match.second;
        });
  }

  size_t capacity() const { return capacity_; }

 private:
  static constexpr K kEmpty = std::numeric_limits<K>::max();

  gpusim::Stream& stream_;
  size_t capacity_;
  gpusim::DeviceArray<K> keys_;
  gpusim::DeviceArray<uint32_t> rows_;
};

// ---------------------------------------------------------------------------
// Hash-based grouped aggregation
// ---------------------------------------------------------------------------

/// Result of HashGroupByReduce: parallel arrays of group keys and
/// aggregates.
template <typename K, typename V>
struct GroupedSums {
  gpusim::DeviceArray<K> keys;
  gpusim::DeviceArray<V> sums;
  size_t num_groups = 0;
};

/// One-pass hash grouped reduction (sum/min/max with the matching identity;
/// a count is a sum over ones) using an open-addressing hash table with
/// atomic combines, then a compaction of occupied slots. Contrast with the
/// libraries' only option: sort_by_key + reduce_by_key (Table II). Each
/// chunk pre-aggregates privately (PrivatizedGroupReduce). Keys must not
/// equal numeric_limits<K>::max(). Returns compacted (keys, values).
template <typename K, typename V, typename BinOp>
GroupedSums<K, V> HashGroupByReduce(gpusim::Stream& stream, const K* keys,
                                    const V* values, size_t n, V identity,
                                    BinOp op, size_t expected_groups = 0) {
  constexpr K kEmpty = std::numeric_limits<K>::max();
  gpusim::Device& device = stream.device();
  const size_t hint = expected_groups > 0 ? expected_groups : n;
  const size_t capacity = detail::NextPow2(hint < 8 ? 16 : 2 * hint);
  gpusim::DeviceArray<K> table_keys(capacity, device);
  gpusim::DeviceArray<V> table_vals(capacity, device);
  gpusim::Fill(stream, table_keys.data(), capacity, kEmpty);
  gpusim::Fill(stream, table_vals.data(), capacity, identity);

  {
    gpusim::KernelStats stats;
    stats.name = "hw::hash_group_reduce";
    stats.bytes_read = n * (sizeof(K) + sizeof(V));
    stats.bytes_written = n * sizeof(V);
    stats.ops = 4 * n;
    K* tk = table_keys.data();
    V* tv = table_vals.data();
    const size_t mask = capacity - 1;
    const auto global = [=](K key, V v) {
      size_t slot = detail::MixHash(static_cast<uint64_t>(key)) & mask;
      while (true) {
        const K stored = gpusim::AtomicLoad(&tk[slot]);
        if (stored == key) break;
        if (stored == kEmpty) {
          if (gpusim::AtomicCas(&tk[slot], kEmpty, key) == kEmpty) break;
          continue;
        }
        slot = (slot + 1) & mask;
      }
      gpusim::detail::AtomicCombine(&tv[slot], v, op);
    };
    gpusim::ParallelForChunks(
        stream, n, stats, [=](size_t begin, size_t end) {
          PrivatizedGroupReduce<K, V>(
              begin, end, [=](size_t i) { return keys[i]; },
              [=](size_t i) { return values[i]; }, op, global);
        });
  }

  GroupedSums<K, V> out;
  out.keys = gpusim::DeviceArray<K>(capacity, device);
  out.sums = gpusim::DeviceArray<V>(capacity, device);
  gpusim::DeviceArray<uint32_t> flags(capacity, device);
  gpusim::DeviceArray<uint32_t> positions(capacity, device);
  {
    gpusim::KernelStats stats;
    stats.name = "hw::group_slot_flags";
    stats.bytes_read = capacity * sizeof(K);
    stats.bytes_written = capacity * sizeof(uint32_t);
    const K* tk = table_keys.data();
    uint32_t* f = flags.data();
    gpusim::ParallelFor(stream, capacity, stats,
                        [=](size_t i) { f[i] = tk[i] != kEmpty ? 1u : 0u; });
  }
  gpusim::ExclusiveScan(stream, flags.data(), positions.data(), capacity,
                        uint32_t{0},
                        [](uint32_t a, uint32_t b) { return a + b; });
  uint32_t last_pos = 0, last_flag = 0;
  gpusim::CopyDeviceToHost(stream, &last_pos,
                           positions.data() + (capacity - 1),
                           sizeof(uint32_t));
  gpusim::CopyDeviceToHost(stream, &last_flag, flags.data() + (capacity - 1),
                           sizeof(uint32_t));
  out.num_groups = last_pos + last_flag;
  {
    gpusim::KernelStats stats;
    stats.name = "hw::group_compact";
    stats.bytes_read =
        capacity * (sizeof(K) + sizeof(V) + 2 * sizeof(uint32_t));
    stats.bytes_written = out.num_groups * (sizeof(K) + sizeof(V));
    const K* tk = table_keys.data();
    const V* tv = table_vals.data();
    const uint32_t* f = flags.data();
    const uint32_t* pos = positions.data();
    K* ok = out.keys.data();
    V* os = out.sums.data();
    gpusim::ParallelFor(stream, capacity, stats, [=](size_t i) {
      if (f[i]) {
        const uint32_t p = pos[i];
        ok[p] = tk[i];
        os[p] = tv[i];
      }
    });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Nested-loops join (for completeness; what the libraries are forced to do)
// ---------------------------------------------------------------------------

/// Count-then-fill nested-loops equi-join: one kernel counting matches per
/// outer row, a prefix sum over the counts, and one kernel writing pairs.
/// Deterministic output order; O(|R|*|S|) work. Returns the pair count.
template <typename K>
size_t NestedLoopsJoin(gpusim::Stream& stream, const K* outer, size_t n_outer,
                       const K* inner, size_t n_inner,
                       gpusim::DeviceArray<uint32_t>* out_outer_rows,
                       gpusim::DeviceArray<uint32_t>* out_inner_rows) {
  gpusim::Device& device = stream.device();
  if (n_outer == 0 || n_inner == 0) {
    *out_outer_rows = gpusim::DeviceArray<uint32_t>(0, device);
    *out_inner_rows = gpusim::DeviceArray<uint32_t>(0, device);
    return 0;
  }
  gpusim::DeviceArray<uint32_t> counts(n_outer, device);
  gpusim::DeviceArray<uint32_t> offsets(n_outer, device);
  {
    gpusim::KernelStats stats;
    stats.name = "hw::nlj_count";
    stats.bytes_read =
        n_outer * sizeof(K) +
        static_cast<uint64_t>(n_outer) * n_inner * sizeof(K);
    stats.bytes_written = n_outer * sizeof(uint32_t);
    stats.ops = static_cast<uint64_t>(n_outer) * n_inner;
    uint32_t* c = counts.data();
    gpusim::ParallelFor(stream, n_outer, stats, [=](size_t i) {
      const K key = outer[i];
      uint32_t matches = 0;
      for (size_t j = 0; j < n_inner; ++j) {
        if (inner[j] == key) ++matches;
      }
      c[i] = matches;
    });
  }
  gpusim::ExclusiveScan(stream, counts.data(), offsets.data(), n_outer,
                        uint32_t{0},
                        [](uint32_t a, uint32_t b) { return a + b; });
  uint32_t last_off = 0, last_count = 0;
  gpusim::CopyDeviceToHost(stream, &last_off, offsets.data() + (n_outer - 1),
                           sizeof(uint32_t));
  gpusim::CopyDeviceToHost(stream, &last_count, counts.data() + (n_outer - 1),
                           sizeof(uint32_t));
  const size_t total = last_off + last_count;

  *out_outer_rows = gpusim::DeviceArray<uint32_t>(total, device);
  *out_inner_rows = gpusim::DeviceArray<uint32_t>(total, device);
  {
    gpusim::KernelStats stats;
    stats.name = "hw::nlj_fill";
    stats.bytes_read =
        n_outer * (sizeof(K) + sizeof(uint32_t)) +
        static_cast<uint64_t>(n_outer) * n_inner * sizeof(K);
    stats.bytes_written = total * 2 * sizeof(uint32_t);
    stats.ops = static_cast<uint64_t>(n_outer) * n_inner;
    const uint32_t* off = offsets.data();
    uint32_t* oo = out_outer_rows->data();
    uint32_t* oi = out_inner_rows->data();
    gpusim::ParallelFor(stream, n_outer, stats, [=](size_t i) {
      const K key = outer[i];
      uint32_t w = off[i];
      for (size_t j = 0; j < n_inner; ++j) {
        if (inner[j] == key) {
          oo[w] = static_cast<uint32_t>(i);
          oi[w] = static_cast<uint32_t>(j);
          ++w;
        }
      }
    });
  }
  return total;
}

}  // namespace handwritten

#endif  // HANDWRITTEN_HANDWRITTEN_H_
