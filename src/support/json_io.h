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
//    corrupt artifact is rejected with a diagnostic a human can act on;
//  - the artifact readers parse in canonical mode and read fields in
//    writer order (JsonFieldReader), so only the writer's bytes read back.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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

/// Parses only the bytes `to_json` writes: no whitespace outside strings,
/// no "-0", doubles only in their %.17g form, and no string escape the
/// writer does not emit (no "\/", \u only for the control characters
/// without a short escape, in lowercase hex). So a document that parses
/// re-serializes to exactly its input. Throws JsonError otherwise.
[[nodiscard]] JsonValue parse_canonical_json(std::string_view text);

/// Reads one object's members in the order its writer emitted them, for
/// the artifact readers (shard bundles, metrics). A required field must be
/// the next member ("CTX: missing field 'KEY'" otherwise); an optional
/// field may be absent but, when present, must not hold the default value
/// the writer omits; finish() rejects any member left over ("CTX:
/// unexpected field 'KEY'"). Integers must fit their destination ("CTX:
/// field 'KEY' is negative" / "... is out of range"); a value of the wrong
/// kind throws JsonError. With parse_canonical_json, only the writer's own
/// bytes read back.
///
/// `ctx` is held by reference, so a caller may refine the context it names
/// (say, once a record's name is known) while reading.
class JsonFieldReader {
 public:
  JsonFieldReader(const JsonValue& object, const std::string& ctx)
      : members_(object.members()), ctx_(ctx) {}

  /// The next member if it is `key`, else nullptr.
  [[nodiscard]] const JsonValue* take(const char* key) {
    if (pos_ < members_.size() && members_[pos_].first == key) {
      return &members_[pos_++].second;
    }
    return nullptr;
  }
  [[nodiscard]] const JsonValue& require(const char* key);

  template <class T>
  void field(const char* key, T& value) {
    read(key, require(key), value);
  }
  template <class T>
  void optional(const char* key, T& value) {
    if (const JsonValue* v = take(key)) {
      read(key, *v, value);
      if (value == T{}) {
        throw std::runtime_error(ctx_ + ": field '" + key + "' holds the "
                                 "default the writer omits (corrupt "
                                 "artifact?)");
      }
    }
  }
  /// An enum written by name: `values` lists every enumerator and `name`
  /// maps one to its spelling; `noun` names the enum in diagnostics.
  template <class E, class Values, class Name>
  void named(const char* key, E& value, const Values& values, Name name,
             const char* noun) {
    const std::string& text = require(key).as_string();
    for (E e : values) {
      if (text == name(e)) {
        value = e;
        return;
      }
    }
    throw std::runtime_error(ctx_ + ": unknown " + noun + " '" + text + "'");
  }
  /// A 128-bit digest as support::hex128 writes it.
  void hex128(const char* key, uint64_t& hi, uint64_t& lo);
  void finish() const;

 private:
  template <class T>
  void read(const char* key, const JsonValue& v, T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      value = v.as_bool();
    } else if constexpr (std::is_same_v<T, std::string>) {
      value = v.as_string();
    } else if constexpr (std::is_signed_v<T>) {
      value = v.as_int();
    } else {
      value = static_cast<T>(unsigned_value(key, v, std::numeric_limits<T>::max()));
    }
  }
  uint64_t unsigned_value(const char* key, const JsonValue& v, uint64_t max);

  const JsonValue::Object& members_;
  const std::string& ctx_;
  size_t pos_ = 0;
};

/// The writing side of JsonFieldReader: appends each field to an object,
/// skipping optional fields that hold their default. A field list written
/// once as a template over the reader and writer reads back exactly what
/// it wrote.
class JsonFieldWriter {
 public:
  explicit JsonFieldWriter(JsonValue& object) : object_(object) {}

  template <class T>
  void field(const char* key, const T& value) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::string>) {
      object_.set(key, value);
    } else if constexpr (std::is_signed_v<T>) {
      object_.set(key, static_cast<int64_t>(value));
    } else {
      object_.set(key, static_cast<uint64_t>(value));
    }
  }
  template <class T>
  void optional(const char* key, const T& value) {
    if (!(value == T{})) field(key, value);
  }
  template <class E, class Values, class Name>
  void named(const char* key, const E& value, const Values&, Name name,
             const char*) {
    object_.set(key, name(value));
  }
  void hex128(const char* key, uint64_t hi, uint64_t lo);

 private:
  JsonValue& object_;
};

}  // namespace support
