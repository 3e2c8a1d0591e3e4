#include "storage/encoded_column.h"

#include <cstring>
#include <string>

#include "gpusim/device.h"

namespace storage {
namespace {

/// Uploads a raw host buffer into a fresh device column of `type`.
DeviceColumn UploadBytes(gpusim::Stream& stream, DataType type, size_t n,
                         const void* src, size_t bytes) {
  DeviceColumn out(type, n, stream.device());
  if (bytes > 0) gpusim::CopyHostToDevice(stream, out.raw_data(), src, bytes);
  return out;
}

std::vector<EncodingChoice> ChooseTableEncodingsOn(gpusim::ThreadPool& pool,
                                                   const Table& table) {
  const std::vector<std::string>& names = table.column_names();
  std::vector<EncodingChoice> choices(names.size());
  pool.ParallelFor(names.size(), [&](size_t c) {
    const Column& column = table.column(names[c]);
    choices[c] =
        ChooseEncoding(AnalyzeColumn(column), column.size(), column.type());
  });
  return choices;
}

}  // namespace

EncodedDeviceColumn MakeEncodedMeta(Encoding encoding, DataType type,
                                    size_t rows, unsigned bit_width,
                                    uint64_t encoded_bytes) {
  EncodedDeviceColumn out;
  out.encoding = encoding;
  out.type = type;
  out.size = rows;
  out.bit_width = bit_width;
  out.encoded_bytes = encoded_bytes;
  return out;
}

EncodedDeviceColumn UploadColumnEncoded(gpusim::Stream& stream,
                                        const EncodedColumn& encoded) {
  EncodedDeviceColumn out;
  out.encoding = encoded.encoding;
  out.type = encoded.type;
  out.size = encoded.size;
  out.bit_width = encoded.bit_width;
  out.reference = encoded.reference;
  out.encoded_bytes = encoded.encoded_byte_size();

  if (!encoded.words.empty()) {
    out.words = UploadBytes(stream, DataType::kInt64, encoded.words.size(),
                            encoded.words.data(),
                            encoded.words.size() * sizeof(uint64_t));
  }
  if (encoded.encoding == Encoding::kDictionary) {
    // The device dictionary is stored at the logical type so decode kernels
    // gather straight from it.
    switch (encoded.type) {
      case DataType::kInt32: {
        std::vector<int32_t> d(encoded.dict_i64.begin(),
                               encoded.dict_i64.end());
        out.dict = UploadBytes(stream, DataType::kInt32, d.size(), d.data(),
                               d.size() * sizeof(int32_t));
        break;
      }
      case DataType::kInt64:
        out.dict = UploadBytes(stream, DataType::kInt64,
                               encoded.dict_i64.size(),
                               encoded.dict_i64.data(),
                               encoded.dict_i64.size() * sizeof(int64_t));
        break;
      case DataType::kFloat64:
        out.dict = UploadBytes(stream, DataType::kFloat64,
                               encoded.dict_f64.size(),
                               encoded.dict_f64.data(),
                               encoded.dict_f64.size() * sizeof(double));
        break;
      case DataType::kFloat32: {
        std::vector<float> d(encoded.dict_f64.begin(),
                             encoded.dict_f64.end());
        out.dict = UploadBytes(stream, DataType::kFloat32, d.size(), d.data(),
                               d.size() * sizeof(float));
        break;
      }
    }
    out.host_dict_i64 = encoded.dict_i64;
    out.host_dict_f64 = encoded.dict_f64;
  }
  if (encoded.encoding == Encoding::kRle) {
    out.rle_values = UploadBytes(stream, DataType::kInt32,
                                 encoded.rle_values.size(),
                                 encoded.rle_values.data(),
                                 encoded.rle_values.size() * sizeof(int32_t));
    out.rle_ends = UploadBytes(stream, DataType::kInt32,
                               encoded.rle_ends.size(),
                               encoded.rle_ends.data(),
                               encoded.rle_ends.size() * sizeof(uint32_t));
  }

  stream.NoteEncodedTransfer(out.encoded_bytes, out.raw_byte_size());
  return out;
}

std::vector<EncodingChoice> ChooseTableEncodings(const Table& table) {
  return ChooseTableEncodingsOn(gpusim::Device::Current().pool(), table);
}

DeviceTable UploadTableEncoded(gpusim::Stream& stream, const Table& table,
                               uint64_t* uploaded_bytes,
                               const std::vector<EncodingChoice>* choices) {
  gpusim::ThreadPool& pool = stream.device().pool();
  std::vector<EncodingChoice> analyzed;
  if (choices == nullptr) {
    analyzed = ChooseTableEncodingsOn(pool, table);
    choices = &analyzed;
  }
  const std::vector<std::string>& names = table.column_names();
  std::vector<EncodedColumn> hosts(names.size());
  pool.ParallelFor(names.size(), [&](size_t c) {
    if ((*choices)[c].encoding == Encoding::kNone) return;
    hosts[c] = EncodeColumn(table.column(names[c]), (*choices)[c]);
  });

  DeviceTable out;
  uint64_t bytes = 0;
  for (size_t c = 0; c < names.size(); ++c) {
    const Column& column = table.column(names[c]);
    if ((*choices)[c].encoding == Encoding::kNone) {
      out.AddColumn(names[c], UploadColumn(stream, column));
      bytes += column.byte_size();
      continue;
    }
    auto device = std::make_shared<EncodedDeviceColumn>(
        UploadColumnEncoded(stream, hosts[c]));
    hosts[c] = EncodedColumn();  // release the host copy early
    bytes += device->encoded_bytes;
    out.AddEncodedColumn(names[c], std::move(device));
  }
  if (uploaded_bytes != nullptr) *uploaded_bytes = bytes;
  return out;
}

}  // namespace storage
