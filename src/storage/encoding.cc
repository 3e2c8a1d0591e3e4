#include "storage/encoding.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace storage {
namespace {

bool IsFloatType(DataType t) {
  return t == DataType::kFloat64 || t == DataType::kFloat32;
}

/// Applies `fn(const std::vector<T>&)` to the column's typed storage.
template <typename Fn>
void VisitColumn(const Column& column, Fn&& fn) {
  switch (column.type()) {
    case DataType::kInt32: fn(column.values<int32_t>()); break;
    case DataType::kInt64: fn(column.values<int64_t>()); break;
    case DataType::kFloat64: fn(column.values<double>()); break;
    case DataType::kFloat32: fn(column.values<float>()); break;
  }
}

/// The type distinct values are counted in: integers widen to int64 and
/// floats to double, both exactly, so == keeps its meaning.
template <typename T>
using KeyOf = std::conditional_t<std::is_floating_point_v<T>, double, int64_t>;

/// MurmurHash3's 64-bit finalizer. Every input bit reaches the low bits the
/// index masks with, so keys that differ only in high bits (doubles with
/// zero low mantissa bits) still spread.
inline uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

inline uint64_t HashKey(int64_t x) { return Mix(static_cast<uint64_t>(x)); }

inline uint64_t HashKey(double x) {
  // -0.0 == 0.0, so both hash as +0.0.
  return Mix(std::bit_cast<uint64_t>(x == 0.0 ? 0.0 : x));
}

template <typename K>
const std::vector<K>& SortedOf(const ColumnDictionary& d) {
  if constexpr (std::is_same_v<K, double>) {
    return d.f64;
  } else {
    return d.i64;
  }
}

/// Distinct keys in first-seen order, found through an open-addressed index
/// (linear probing, load at most 1/4). Keys compare with ==.
template <typename K>
class DistinctSet {
 public:
  /// Adds x unless an equal key is present. A NaN equals nothing, so every
  /// NaN is a new key; it is counted but never indexed.
  void Insert(K x) {
    if constexpr (std::is_floating_point_v<K>) {
      if (std::isnan(x)) {
        keys_.push_back(x);
        has_nan_ = true;
        return;
      }
    }
    if ((keys_.size() + 1) * 4 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = HashKey(x) & mask;
    for (uint32_t s; (s = slots_[i]) != 0; i = (i + 1) & mask) {
      if (keys_[s - 1] == x) return;
    }
    keys_.push_back(x);
    slots_[i] = static_cast<uint32_t>(keys_.size());
  }

  size_t size() const { return keys_.size(); }
  bool has_nan() const { return has_nan_; }

  /// Sorts the keys and rewrites the index to map each key to its rank.
  /// Requires !has_nan().
  ColumnDictionary ToDictionary() && {
    std::vector<uint32_t> order(keys_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return keys_[a] < keys_[b]; });
    std::vector<K> sorted(keys_.size());
    std::vector<uint32_t> rank(keys_.size());
    for (size_t k = 0; k < order.size(); ++k) {
      sorted[k] = keys_[order[k]];
      rank[order[k]] = static_cast<uint32_t>(k);
    }
    for (uint32_t& s : slots_) {
      if (s != 0) s = rank[s - 1] + 1;
    }
    if (slots_.empty()) slots_.assign(1, 0);
    ColumnDictionary dict;
    if constexpr (std::is_same_v<K, double>) {
      dict.f64 = std::move(sorted);
    } else {
      dict.i64 = std::move(sorted);
    }
    dict.slots = std::move(slots_);
    return dict;
  }

 private:
  void Grow() {
    slots_.assign(std::max<size_t>(64, slots_.size() * 2), 0);
    const size_t mask = slots_.size() - 1;
    for (size_t k = 0; k < keys_.size(); ++k) {
      if constexpr (std::is_floating_point_v<K>) {
        if (std::isnan(keys_[k])) continue;
      }
      size_t i = HashKey(keys_[k]) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(k + 1);
    }
  }

  std::vector<K> keys_;
  std::vector<uint32_t> slots_;  ///< 0 = empty, else key index + 1
  bool has_nan_ = false;
};

/// Code of x in a dictionary; throws when x is not in it.
template <typename K>
uint32_t CodeOf(const ColumnDictionary& dict, K x) {
  const std::vector<K>& sorted = SortedOf<K>(dict);
  const size_t mask = dict.slots.size() - 1;
  for (size_t i = HashKey(x) & mask;; i = (i + 1) & mask) {
    const uint32_t s = dict.slots[i];
    if (s == 0) break;
    if (sorted[s - 1] == x) return s - 1;
  }
  throw std::invalid_argument("EncodeColumn: value missing from dict");
}

/// v's distinct values in first-seen order, collected until there are more
/// than kMaxDictSize.
template <typename T>
DistinctSet<KeyOf<T>> CollectDistinct(const std::vector<T>& v) {
  DistinctSet<KeyOf<T>> set;
  for (size_t i = 0; i < v.size() && set.size() <= kMaxDictSize; ++i) {
    // A value equal to its predecessor is in the set already.
    if (i == 0 || v[i] != v[i - 1]) set.Insert(static_cast<KeyOf<T>>(v[i]));
  }
  return set;
}

/// The dictionary of a column EncodeColumn is forced to dictionary-encode
/// without an analysis.
template <typename T>
std::shared_ptr<const ColumnDictionary> BuildDictionary(
    const std::vector<T>& v) {
  DistinctSet<KeyOf<T>> set = CollectDistinct(v);
  if (set.size() > kMaxDictSize) {
    throw std::invalid_argument("EncodeColumn: dictionary too large");
  }
  if (set.has_nan()) {
    throw std::invalid_argument("EncodeColumn: value missing from dict");
  }
  return std::make_shared<const ColumnDictionary>(
      std::move(set).ToDictionary());
}

/// Packs code(0), ..., code(n - 1) into `bits`-wide little-endian fields,
/// calling `code` once per row, in row order.
template <typename CodeFn>
void PackCodes(size_t n, unsigned bits, std::vector<uint64_t>* words,
               CodeFn&& code) {
  words->assign(PackedWordCount(n, bits), 0);
  uint64_t* out = words->data();
  const uint64_t mask =
      bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  uint64_t acc = 0;
  unsigned fill = 0;  // bits of acc in use, always < 64
  for (size_t i = 0; i < n; ++i) {
    const uint64_t c = code(i) & mask;
    acc |= c << fill;
    fill += bits;
    if (fill >= 64) {
      *out++ = acc;
      fill -= 64;
      acc = fill == 0 ? 0 : c >> (bits - fill);
    }
  }
  if (fill > 0) *out = acc;
}

/// Integer columns whose value range is at most this many times their row
/// count (and at most 16 Mi values) count distinct values with one byte per
/// value of the range instead of a hash set.
constexpr uint64_t kDenseRangePerRow = 8;
constexpr uint64_t kMaxDenseRange = uint64_t{1} << 24;

template <typename T>
ColumnStats Analyze(const std::vector<T>& v, DataType type) {
  ColumnStats stats;
  stats.is_float = std::is_floating_point_v<T>;
  if (v.empty()) return stats;
  size_t runs = 1;
  bool monotonic = true;
  T lo = v[0], hi = v[0];
  for (size_t i = 1; i < v.size(); ++i) {
    const T x = v[i];
    const T prev = v[i - 1];
    lo = x < lo ? x : lo;
    hi = hi < x ? x : hi;
    monotonic &= !(x < prev);
    runs += x != prev;
  }
  stats.runs = runs;
  stats.monotonic = monotonic;
  const auto dictionary_wins = [&] {
    return ChooseEncoding(stats, v.size(), type).encoding ==
           Encoding::kDictionary;
  };

  if constexpr (std::is_integral_v<T>) {
    stats.min_i = lo;
    stats.max_i = hi;
    const uint64_t range =
        static_cast<uint64_t>(stats.max_i) - static_cast<uint64_t>(stats.min_i);
    if (range < std::min(kDenseRangePerRow * v.size(), kMaxDenseRange)) {
      std::vector<uint8_t> seen(range + 1, 0);
      for (const T x : v) seen[static_cast<int64_t>(x) - stats.min_i] = 1;
      const size_t distinct = std::count(seen.begin(), seen.end(), 1);
      stats.distinct = std::min(distinct, kMaxDictSize + 1);
      if (dictionary_wins()) {
        DistinctSet<int64_t> sorted;  // inserted in ascending order
        for (uint64_t k = 0; k <= range; ++k) {
          if (seen[k]) sorted.Insert(stats.min_i + static_cast<int64_t>(k));
        }
        stats.dictionary = std::make_shared<const ColumnDictionary>(
            std::move(sorted).ToDictionary());
      }
      return stats;
    }
  }

  DistinctSet<KeyOf<T>> set = CollectDistinct(v);
  stats.distinct = set.size();
  if (!set.has_nan() && dictionary_wins()) {
    stats.dictionary = std::make_shared<const ColumnDictionary>(
        std::move(set).ToDictionary());
  }
  return stats;
}

}  // namespace

const char* EncodingName(Encoding e) {
  switch (e) {
    case Encoding::kNone: return "none";
    case Encoding::kDictionary: return "dict";
    case Encoding::kRle: return "rle";
    case Encoding::kBitPack: return "bitpack";
    case Encoding::kFor: return "for";
  }
  return "?";
}

unsigned BitsForMax(uint64_t max_code) {
  unsigned bits = 1;
  while (bits < 64 && (max_code >> bits) != 0) ++bits;
  return bits;
}

void UnpackBits(const uint64_t* words, size_t n, unsigned bits,
                uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = UnpackBit(words, bits, i);
}

ColumnStats AnalyzeColumn(const Column& column) {
  ColumnStats stats;
  VisitColumn(column, [&](const auto& v) { stats = Analyze(v, column.type()); });
  return stats;
}

EncodingChoice ChooseEncoding(const ColumnStats& stats, size_t n,
                              DataType type) {
  EncodingChoice best;  // kNone
  if (n == 0) return best;
  const uint64_t raw = static_cast<uint64_t>(n) * DataTypeSize(type);
  best.encoded_bytes = raw;

  // RLE: int32 columns that arrive sorted (orderkeys) with real runs. Taken
  // outright when the runs amortize — the run-level layout is what enables
  // run-aware aggregation and O(log runs) random access, worth more to the
  // scan paths than a few bits of extra width.
  if (type == DataType::kInt32 && stats.monotonic && stats.runs > 0 &&
      n / stats.runs >= 2) {
    const uint64_t rle_bytes =
        static_cast<uint64_t>(stats.runs) * (sizeof(int32_t) +
                                             sizeof(uint32_t));
    if (rle_bytes < raw) {
      best.encoding = Encoding::kRle;
      best.encoded_bytes = rle_bytes;
      return best;
    }
  }

  // Frame-of-reference / bit-pack for integer columns.
  if (!stats.is_float &&
      (type == DataType::kInt32 || type == DataType::kInt64)) {
    const uint64_t range = static_cast<uint64_t>(stats.max_i) -
                           static_cast<uint64_t>(stats.min_i);
    const unsigned bits = BitsForMax(range);
    const uint64_t packed = PackedWordCount(n, bits) * sizeof(uint64_t);
    if (packed < best.encoded_bytes) {
      best.encoding =
          stats.min_i == 0 ? Encoding::kBitPack : Encoding::kFor;
      best.bit_width = bits;
      best.reference = stats.min_i;
      best.encoded_bytes = packed;
    }
  }

  // Dictionary for low-cardinality columns of any type.
  if (stats.distinct > 0 && stats.distinct <= kMaxDictSize) {
    const unsigned bits =
        BitsForMax(static_cast<uint64_t>(stats.distinct - 1));
    const uint64_t bytes = PackedWordCount(n, bits) * sizeof(uint64_t) +
                           static_cast<uint64_t>(stats.distinct) *
                               DataTypeSize(type);
    if (bytes < best.encoded_bytes) {
      best.encoding = Encoding::kDictionary;
      best.bit_width = bits;
      best.reference = 0;
      best.encoded_bytes = bytes;
      best.dictionary = stats.dictionary;
    }
  }

  if (best.encoding == Encoding::kNone) best.encoded_bytes = raw;
  return best;
}

uint64_t EncodedColumn::encoded_byte_size() const {
  const size_t dict_entries = dict_f64.size() + dict_i64.size();
  return words.size() * sizeof(uint64_t) +
         static_cast<uint64_t>(dict_entries) * DataTypeSize(type) +
         rle_values.size() * sizeof(int32_t) +
         rle_ends.size() * sizeof(uint32_t);
}

EncodedColumn EncodeColumn(const Column& column,
                           const EncodingChoice& choice) {
  EncodedColumn out;
  out.encoding = choice.encoding;
  out.type = column.type();
  out.size = column.size();
  out.bit_width = choice.bit_width;
  out.reference = choice.reference;

  switch (choice.encoding) {
    case Encoding::kNone:
      throw std::invalid_argument("EncodeColumn: nothing to encode (kNone)");

    case Encoding::kBitPack:
    case Encoding::kFor:
      if (IsFloatType(column.type())) {
        throw std::invalid_argument(
            "EncodeColumn: bit-pack/FOR need integer columns");
      }
      VisitColumn(column, [&](const auto& v) {
        using T = typename std::decay_t<decltype(v)>::value_type;
        if constexpr (std::is_integral_v<T>) {
          const int64_t reference = choice.reference;
          PackCodes(v.size(), choice.bit_width, &out.words, [&](size_t i) {
            const int64_t x = static_cast<int64_t>(v[i]);
            if (x < reference) {
              throw std::invalid_argument(
                  "EncodeColumn: value below frame-of-reference base");
            }
            return static_cast<uint64_t>(x) - static_cast<uint64_t>(reference);
          });
        }
      });
      break;

    case Encoding::kDictionary:
      VisitColumn(column, [&](const auto& v) {
        using T = typename std::decay_t<decltype(v)>::value_type;
        using K = KeyOf<T>;
        const std::shared_ptr<const ColumnDictionary> dict =
            choice.dictionary != nullptr ? choice.dictionary
                                         : BuildDictionary(v);
        const std::vector<K>& sorted = SortedOf<K>(*dict);
        out.bit_width =
            sorted.empty()
                ? 1
                : BitsForMax(static_cast<uint64_t>(sorted.size() - 1));
        uint32_t code = 0;
        PackCodes(v.size(), out.bit_width, &out.words, [&](size_t i) {
          // Rows equal to their predecessor share its code.
          if (i == 0 || v[i] != v[i - 1]) {
            code = CodeOf(*dict, static_cast<K>(v[i]));
          }
          return uint64_t{code};
        });
        if constexpr (std::is_integral_v<T>) {
          out.dict_i64 = sorted;
        } else {
          out.dict_f64 = sorted;
        }
      });
      break;

    case Encoding::kRle: {
      if (column.type() != DataType::kInt32) {
        throw std::invalid_argument("EncodeColumn: RLE needs int32 columns");
      }
      const auto& v = column.values<int32_t>();
      for (size_t i = 0; i < v.size(); ++i) {
        if (out.rle_values.empty() || v[i] != out.rle_values.back()) {
          out.rle_values.push_back(v[i]);
          out.rle_ends.push_back(static_cast<uint32_t>(i + 1));
        } else {
          out.rle_ends.back() = static_cast<uint32_t>(i + 1);
        }
      }
      break;
    }
  }
  return out;
}

EncodedColumn EncodeColumn(const Column& column) {
  const EncodingChoice choice =
      ChooseEncoding(AnalyzeColumn(column), column.size(), column.type());
  if (choice.encoding == Encoding::kNone) {
    throw std::invalid_argument(
        "EncodeColumn: no encoding beats the raw layout for this column");
  }
  return EncodeColumn(column, choice);
}

Column DecodeColumnHost(const EncodedColumn& encoded) {
  const size_t n = encoded.size;
  switch (encoded.encoding) {
    case Encoding::kNone:
      throw std::invalid_argument("DecodeColumnHost: kNone has no payload");

    case Encoding::kBitPack:
    case Encoding::kFor: {
      std::vector<uint64_t> codes(n);
      UnpackBits(encoded.words.data(), n, encoded.bit_width, codes.data());
      if (encoded.type == DataType::kInt64) {
        std::vector<int64_t> v(n);
        for (size_t i = 0; i < n; ++i) {
          v[i] = encoded.reference + static_cast<int64_t>(codes[i]);
        }
        return Column(std::move(v));
      }
      std::vector<int32_t> v(n);
      for (size_t i = 0; i < n; ++i) {
        v[i] = static_cast<int32_t>(encoded.reference +
                                    static_cast<int64_t>(codes[i]));
      }
      return Column(std::move(v));
    }

    case Encoding::kDictionary: {
      std::vector<uint64_t> codes(n);
      UnpackBits(encoded.words.data(), n, encoded.bit_width, codes.data());
      switch (encoded.type) {
        case DataType::kInt32: {
          std::vector<int32_t> v(n);
          for (size_t i = 0; i < n; ++i) {
            v[i] = static_cast<int32_t>(encoded.dict_i64[codes[i]]);
          }
          return Column(std::move(v));
        }
        case DataType::kInt64: {
          std::vector<int64_t> v(n);
          for (size_t i = 0; i < n; ++i) v[i] = encoded.dict_i64[codes[i]];
          return Column(std::move(v));
        }
        case DataType::kFloat64: {
          std::vector<double> v(n);
          for (size_t i = 0; i < n; ++i) v[i] = encoded.dict_f64[codes[i]];
          return Column(std::move(v));
        }
        case DataType::kFloat32: {
          std::vector<float> v(n);
          for (size_t i = 0; i < n; ++i) {
            v[i] = static_cast<float>(encoded.dict_f64[codes[i]]);
          }
          return Column(std::move(v));
        }
      }
      break;
    }

    case Encoding::kRle: {
      std::vector<int32_t> v(n);
      size_t row = 0;
      for (size_t r = 0; r < encoded.rle_values.size(); ++r) {
        while (row < encoded.rle_ends[r]) v[row++] = encoded.rle_values[r];
      }
      return Column(std::move(v));
    }
  }
  throw std::invalid_argument("DecodeColumnHost: bad encoding");
}

}  // namespace storage
