// Column-oriented storage: host columns and tables.
//
// The paper targets column-oriented analytical processing; relations are
// stored as typed value arrays. Three physical types cover the TPC-H subset
// used by the evaluation: 32/64-bit integers (ids, dates as days, flags) and
// doubles (prices, discounts, taxes).
#ifndef STORAGE_COLUMN_H_
#define STORAGE_COLUMN_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace storage {

/// Physical column type. (Order matches the Column variant's alternatives.)
enum class DataType { kInt32, kInt64, kFloat64, kFloat32 };

inline const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kInt32: return "int32";
    case DataType::kInt64: return "int64";
    case DataType::kFloat64: return "float64";
    case DataType::kFloat32: return "float32";
  }
  return "?";
}

inline size_t DataTypeSize(DataType t) {
  switch (t) {
    case DataType::kInt32: return 4;
    case DataType::kInt64: return 8;
    case DataType::kFloat64: return 8;
    case DataType::kFloat32: return 4;
  }
  return 0;
}

/// Maps C++ element types onto DataType.
template <typename T>
constexpr DataType DataTypeOf();
template <>
constexpr DataType DataTypeOf<int32_t>() { return DataType::kInt32; }
template <>
constexpr DataType DataTypeOf<int64_t>() { return DataType::kInt64; }
template <>
constexpr DataType DataTypeOf<double>() { return DataType::kFloat64; }
template <>
constexpr DataType DataTypeOf<float>() { return DataType::kFloat32; }

/// A host-resident typed column.
class Column {
 public:
  Column() : data_(std::vector<int32_t>{}) {}

  template <typename T>
  explicit Column(std::vector<T> values) : data_(std::move(values)) {}

  DataType type() const {
    return static_cast<DataType>(data_.index());
  }

  size_t size() const {
    return std::visit([](const auto& v) { return v.size(); }, data_);
  }

  /// Typed access; throws if T does not match the stored type.
  template <typename T>
  const std::vector<T>& values() const {
    const auto* v = std::get_if<std::vector<T>>(&data_);
    if (v == nullptr) {
      throw std::invalid_argument(
          std::string("Column::values<T>: column holds ") +
          DataTypeName(type()));
    }
    return *v;
  }

  template <typename T>
  std::vector<T>& mutable_values() {
    auto* v = std::get_if<std::vector<T>>(&data_);
    if (v == nullptr) {
      throw std::invalid_argument(
          std::string("Column::mutable_values<T>: column holds ") +
          DataTypeName(type()));
    }
    return *v;
  }

  const void* raw_data() const {
    return std::visit(
        [](const auto& v) { return static_cast<const void*>(v.data()); },
        data_);
  }

  size_t byte_size() const { return size() * DataTypeSize(type()); }

  /// Copy of rows [lo, hi).
  Column Slice(size_t lo, size_t hi) const {
    return std::visit(
        [&](const auto& v) {
          using Vec = std::decay_t<decltype(v)>;
          return Column(Vec(v.begin() + lo, v.begin() + hi));
        },
        data_);
  }

 private:
  // Variant index order must match the DataType enum order.
  std::variant<std::vector<int32_t>, std::vector<int64_t>,
               std::vector<double>, std::vector<float>>
      data_;
};

}  // namespace storage

#endif  // STORAGE_COLUMN_H_
