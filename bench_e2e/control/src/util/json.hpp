#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace isomap {

/// Minimal dependency-free JSON document: a tagged value supporting the
/// six JSON types, ordered object keys (insertion order, so emitted
/// summaries diff cleanly), a compact/pretty writer and a strict parser.
/// Used by the observability layer (run summaries, JSONL traces) and the
/// benchmark harnesses (BENCH_*.json outputs).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  ///< null
  JsonValue(std::nullptr_t) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(double d) : kind_(Kind::kNumber), number_(d) {}
  JsonValue(int i) : kind_(Kind::kNumber), number_(i) {}
  JsonValue(long long i)
      : kind_(Kind::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(std::size_t i)
      : kind_(Kind::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
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

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  const std::string& as_string() const { return string_; }

  /// Array access.
  void push_back(JsonValue v);
  std::size_t size() const;
  const JsonValue& at(std::size_t i) const;
  const std::vector<JsonValue>& items() const { return array_; }

  /// Object access. operator[] inserts a null member when missing (and
  /// converts a default-constructed null value into an object); find()
  /// returns nullptr when the key is absent.
  JsonValue& operator[](const std::string& key);
  const JsonValue* find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }

  /// Convenience lookups for flat records (JSONL trace events).
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

  /// Serialize. indent < 0 -> single line; otherwise pretty-print with
  /// `indent` spaces per level. Non-finite numbers are emitted as null
  /// (JSON has no NaN/Inf).
  std::string dump(int indent = -1) const;

  /// Strict parse of exactly one JSON document (trailing whitespace
  /// allowed). Returns nullopt on any syntax error.
  static std::optional<JsonValue> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Append `s` to `out` as a quoted JSON string with all mandatory escapes
/// (quotes, backslash, control characters).
void json_escape(std::string& out, std::string_view s);

/// Format a finite double the way the writer does (shortest round-trip
/// representation; integers without a trailing ".0"). Non-finite -> "null".
std::string json_number(double d);

}  // namespace isomap
