// Device-resident encoded columns.
//
// An EncodedDeviceColumn holds the encoded payload on the simulated device
// plus the metadata a backend needs to evaluate predicates in the encoded
// domain: the frame-of-reference base, code width, and (host-side, as real
// systems keep dictionaries in the catalog) the sorted dictionary. The raw
// values never exist on the device unless an operator decodes survivors.
#ifndef STORAGE_ENCODED_COLUMN_H_
#define STORAGE_ENCODED_COLUMN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/device_column.h"
#include "storage/encoding.h"

namespace storage {

struct EncodedDeviceColumn {
  Encoding encoding = Encoding::kNone;
  DataType type = DataType::kInt32;  ///< decoded (logical) type
  size_t size = 0;                   ///< logical row count
  unsigned bit_width = 0;
  int64_t reference = 0;
  uint64_t encoded_bytes = 0;  ///< total device bytes of the payload

  DeviceColumn words;       ///< bit-packed codes, stored as kInt64 words
  DeviceColumn dict;        ///< dictionary at the logical type
  DeviceColumn rle_values;  ///< kInt32 run values
  DeviceColumn rle_ends;    ///< kInt32 words holding cumulative uint32 ends

  /// Host copy of the dictionary (sorted ascending) for predicate rewriting;
  /// at most kMaxDictSize entries. Exactly one is populated, by type.
  std::vector<int64_t> host_dict_i64;
  std::vector<double> host_dict_f64;

  size_t num_runs() const { return rle_values.size(); }
  uint64_t encoded_byte_size() const { return encoded_bytes; }
  uint64_t raw_byte_size() const { return size * DataTypeSize(type); }

  const uint64_t* words_data() const {
    return static_cast<const uint64_t*>(words.raw_data());
  }
  const uint32_t* rle_ends_data() const {
    return static_cast<const uint32_t*>(rle_ends.raw_data());
  }
};

/// Metadata-only encoded column (no device buffers): lets
/// EstimateQueryFootprint describe encoded uploads before any data moves.
EncodedDeviceColumn MakeEncodedMeta(Encoding encoding, DataType type,
                                    size_t rows, unsigned bit_width,
                                    uint64_t encoded_bytes);

/// Uploads an encoded column (priced H2D at the encoded size; attributes the
/// savings via Stream::NoteEncodedTransfer).
EncodedDeviceColumn UploadColumnEncoded(gpusim::Stream& stream,
                                        const EncodedColumn& encoded);

/// ChooseEncoding(AnalyzeColumn(c)) of every column c, in column_names()
/// order. Columns are analyzed in parallel on the current device's pool.
std::vector<EncodingChoice> ChooseTableEncodings(const Table& table);

/// Uploads a table with automatic per-column encoding: columns where an
/// encoding beats the raw layout go up encoded-only, the rest raw. When
/// `uploaded_bytes` is non-null it receives the total bytes that actually
/// crossed the link (encoded + raw). `choices`, when given, must be
/// ChooseTableEncodings(table); otherwise the table is analyzed here. Columns
/// are encoded in parallel on the stream device's pool, then uploaded one by
/// one in column order, so allocations and the stream timeline do not depend
/// on host threads.
DeviceTable UploadTableEncoded(
    gpusim::Stream& stream, const Table& table,
    uint64_t* uploaded_bytes = nullptr,
    const std::vector<EncodingChoice>* choices = nullptr);

}  // namespace storage

#endif  // STORAGE_ENCODED_COLUMN_H_
