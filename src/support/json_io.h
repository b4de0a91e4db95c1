// Minimal JSON value tree, writer and strict reader for the campaign shard
// artifacts (eval/shard.h). Deliberately small:
//
//  - values are null, bool, 64-bit signed integers, doubles, strings,
//    arrays and objects; object members keep insertion order so serialized
//    artifacts are byte-stable across runs;
//  - the writer emits compact JSON (no insignificant whitespace) with
//    standard escaping, so equal value trees serialize to equal bytes;
//  - the reader is strict RFC-8259-shaped: one value per document, no
//    trailing garbage, no comments, no trailing commas. Errors throw
//    support::JsonError carrying "line L, column C" so a truncated or
//    corrupt artifact is rejected with a diagnostic a human can act on.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace support {

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(int64_t v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(uint64_t v);  // throws JsonError when v does not fit int64
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::kString), str_(s) {}

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors throw JsonError naming the expected and actual kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] int64_t as_int() const;
  [[nodiscard]] double as_double() const;  // accepts kInt too
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& items() const;
  [[nodiscard]] const Object& members() const;

  /// Appends to an array value (must be kArray).
  void push_back(JsonValue v);
  /// Appends a member to an object value (must be kObject). Keys are not
  /// checked for uniqueness; `find` returns the first match.
  void set(std::string key, JsonValue v);
  /// First member with `key`, or nullptr. Object values only.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

 private:
  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string str_;
  Array array_;
  Object object_;
};

[[nodiscard]] const char* json_kind_name(JsonValue::Kind k);

/// Compact serialization; equal trees yield equal bytes.
[[nodiscard]] std::string to_json(const JsonValue& v);

/// Parses exactly one JSON document. Throws JsonError with line/column on
/// malformed, truncated or trailing-garbage input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Strict field access for the artifact readers (shard bundles, metrics).
/// A missing key throws std::runtime_error "CTX: missing field 'KEY'", a
/// negative count "CTX: field 'KEY' is negative"; a value of the wrong kind
/// throws JsonError from the typed accessor.
[[nodiscard]] const JsonValue& require(const JsonValue& obj, const char* key,
                                       const std::string& ctx);
[[nodiscard]] uint64_t require_u64(const JsonValue& obj, const char* key,
                                   const std::string& ctx);
[[nodiscard]] const std::string& require_string(const JsonValue& obj,
                                                const char* key,
                                                const std::string& ctx);

}  // namespace support
