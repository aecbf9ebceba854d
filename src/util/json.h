#ifndef PINSQL_UTIL_JSON_H_
#define PINSQL_UTIL_JSON_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pinsql {

/// A minimal JSON document model plus parser/writer, implemented from
/// scratch (no third-party dependency). Used by the repair rule engine
/// (paper Fig. 5) and for benchmark/experiment result emission.
///
/// Numbers are stored as double; object keys are kept in sorted order
/// (std::map) so serialization is deterministic. The map's comparator is
/// transparent, so lookups by string_view build no key.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json, std::less<>>;

  /// Constructs null.
  Json() : type_(Type::kNull) {}
  /// Typed constructors; implicit so literals read naturally at call sites.
  Json(bool b) : type_(Type::kBool), bool_(b) {}             // NOLINT
  Json(double num) : type_(Type::kNumber), number_(num) {}   // NOLINT
  Json(int num) : Json(static_cast<double>(num)) {}          // NOLINT
  Json(int64_t num) : Json(static_cast<double>(num)) {}      // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  Json(std::string s)                                        // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}  // NOLINT
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}  // NOLINT

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Value accessors; assert on type mismatch.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  /// Object lookup; returns nullptr if absent or not an object.
  const Json* Find(std::string_view key) const;

  /// Typed lookups with defaults, for config-style consumption.
  double GetNumberOr(std::string_view key, double fallback) const;
  bool GetBoolOr(std::string_view key, bool fallback) const;
  std::string GetStringOr(std::string_view key,
                          std::string_view fallback) const;

  /// Object mutation (asserts this is an object).
  Json& Set(std::string key, Json value);
  /// Array append (asserts this is an array).
  Json& Append(Json value);

  /// Serializes compactly ({"a":1}) or pretty-printed with 2-space indent.
  std::string Dump(bool pretty = false) const;

  /// Parses a complete JSON document; trailing non-space input is an error.
  static StatusOr<Json> Parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  /// Parse() builds each value in place, straight into its parent.
  friend class JsonParser;

  void DumpTo(std::string* out, bool pretty, int indent) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace pinsql

#endif  // PINSQL_UTIL_JSON_H_
