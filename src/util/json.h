// Minimal JSON document model: build, serialize, and parse. Used by the
// stats registry (DumpJson), the bench reporter (BENCH_*.json artifacts),
// and the json_check validation tool. Objects preserve insertion order, so
// emission is deterministic and round-trips byte-for-byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ndp::json {

/// \brief One JSON value: null, bool, number, string, array, or object.
class Value {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  ///< null
  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static Value Number(double d) {
    Value v;
    v.kind_ = Kind::kNumber;
    v.num_ = d;
    return v;
  }
  static Value Str(std::string s) {
    Value v;
    v.kind_ = Kind::kString;
    v.str_ = std::move(s);
    return v;
  }
  static Value Array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value Object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // ndp-lint: test-only-ok json_test reads parsed numbers through it
  double AsNumber() const { return num_; }
  const std::string& AsString() const { return str_; }

  /// Array elements / object members (members as key-value pairs in
  /// insertion order).
  const std::vector<Value>& items() const { return items_; }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }
  size_t size() const {
    return kind_ == Kind::kObject ? members_.size() : items_.size();
  }

  /// Object: insert `key` (or replace in place, keeping its position).
  Value& Set(const std::string& key, Value v);
  /// Object: member lookup; nullptr when absent (or not an object).
  const Value* Find(const std::string& key) const;
  /// Array: appends and returns the stored element.
  Value& Append(Value v);

  /// Compact serialization (`indent < 0`), or pretty-printed with `indent`
  /// spaces per level. Strings are escaped per RFC 8259.
  std::string Dump(int indent = -1) const;

  /// Strict recursive-descent parse of a complete JSON text.
  static Result<Value> Parse(std::string_view text);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> items_;                            ///< kArray
  std::vector<std::pair<std::string, Value>> members_;  ///< kObject
};

/// Escapes `s` for embedding inside a JSON string literal (no quotes added).
std::string Escape(std::string_view s);

}  // namespace ndp::json
