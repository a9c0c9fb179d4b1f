// Columnar storage: fixed-width int64 columns plus dictionary-encoded string
// columns ("many modern systems effectively handle string columns as integers
// using dictionary compression", paper §4 "Data Types"). All values are
// exposed to operators as int64 codes, which is exactly what makes them
// JAFAR-compatible.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/macros.h"
#include "util/status.h"

namespace ndp::db {

enum class ColumnType : uint8_t {
  kInt64,       ///< raw 64-bit integers (also dates as day numbers)
  kDictionary,  ///< strings stored as int64 codes into a dictionary
};

/// \brief One column of a table.
class Column {
 public:
  static Column Int64(std::string name) {
    return Column(std::move(name), ColumnType::kInt64);
  }
  static Column Dictionary(std::string name) {
    return Column(std::move(name), ColumnType::kDictionary);
  }

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }
  size_t size() const { return data_.size(); }

  int64_t operator[](size_t i) const { return data_[i]; }
  const int64_t* data() const { return data_.data(); }
  const std::vector<int64_t>& values() const { return data_; }

  void Append(int64_t v) { data_.push_back(v); }
  void Set(size_t i, int64_t v) {
    NDP_CHECK(i < data_.size());
    data_[i] = v;
  }
  void Reserve(size_t n) { data_.reserve(n); }

  /// Returns the dictionary code for `s`, interning it if absent. Append the
  /// code to store the string.
  int64_t InternString(const std::string& s) {
    NDP_CHECK(type_ == ColumnType::kDictionary);
    auto it = dict_index_.find(s);
    if (it != dict_index_.end()) return it->second;
    int64_t code = static_cast<int64_t>(dict_.size());
    dict_.push_back(s);
    dict_index_.emplace(s, code);
    return code;
  }

  /// Looks up the code for `s` without interning.
  Result<int64_t> CodeOf(const std::string& s) const {
    auto it = dict_index_.find(s);
    if (it == dict_index_.end()) return Status::NotFound("no code for '" + s + "'");
    return it->second;
  }

  /// Decodes a dictionary code back to its string.
  // ndp-lint: test-only-ok tests decode dictionary codes
  const std::string& StringAt(size_t row) const {
    NDP_CHECK(type_ == ColumnType::kDictionary);
    int64_t code = data_[row];
    NDP_CHECK(code >= 0 && static_cast<size_t>(code) < dict_.size());
    return dict_[static_cast<size_t>(code)];
  }

  const std::string& DecodeCode(int64_t code) const {
    NDP_CHECK(code >= 0 && static_cast<size_t>(code) < dict_.size());
    return dict_[static_cast<size_t>(code)];
  }

  size_t dictionary_size() const { return dict_.size(); }
  size_t SizeBytes() const { return data_.size() * sizeof(int64_t); }

 private:
  Column(std::string name, ColumnType type)
      : name_(std::move(name)), type_(type) {}

  std::string name_;
  ColumnType type_;
  std::vector<int64_t> data_;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, int64_t> dict_index_;
};

}  // namespace ndp::db
