#include "util/json.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace pinsql {

bool Json::AsBool() const {
  assert(is_bool());
  return bool_;
}

double Json::AsNumber() const {
  assert(is_number());
  return number_;
}

const std::string& Json::AsString() const {
  assert(is_string());
  return string_;
}

const Json::Array& Json::AsArray() const {
  assert(is_array());
  return array_;
}

Json::Array& Json::AsArray() {
  assert(is_array());
  return array_;
}

const Json::Object& Json::AsObject() const {
  assert(is_object());
  return object_;
}

Json::Object& Json::AsObject() {
  assert(is_object());
  return object_;
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double Json::GetNumberOr(std::string_view key, double fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsNumber() : fallback;
}

bool Json::GetBoolOr(std::string_view key, bool fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->AsBool() : fallback;
}

std::string Json::GetStringOr(std::string_view key,
                              std::string_view fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString()
                                          : std::string(fallback);
}

Json& Json::Set(std::string key, Json value) {
  assert(is_object());
  object_[std::move(key)] = std::move(value);
  return *this;
}

Json& Json::Append(Json value) {
  assert(is_array());
  array_.push_back(std::move(value));
  return *this;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(StrFormat("\\u%04x", c));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    // JSON has no NaN/Inf; emit null as the conventional fallback.
    out->append("null");
    return;
  }
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::fabs(v) < 9.0e15) {
    out->append(StrFormat("%lld", static_cast<long long>(v)));
  } else {
    out->append(StrFormat("%.17g", v));
  }
}

void AppendIndent(std::string* out, int indent) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
}

}  // namespace

void Json::DumpTo(std::string* out, bool pretty, int indent) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      return;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Type::kNumber:
      AppendNumber(out, number_);
      return;
    case Type::kString:
      AppendEscaped(out, string_);
      return;
    case Type::kArray: {
      if (array_.empty()) {
        out->append("[]");
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (pretty) {
          out->push_back('\n');
          AppendIndent(out, indent + 1);
        }
        array_[i].DumpTo(out, pretty, indent + 1);
      }
      if (pretty) {
        out->push_back('\n');
        AppendIndent(out, indent);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out->append("{}");
        return;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out->push_back(',');
        first = false;
        if (pretty) {
          out->push_back('\n');
          AppendIndent(out, indent + 1);
        }
        AppendEscaped(out, key);
        out->push_back(':');
        if (pretty) out->push_back(' ');
        value.DumpTo(out, pretty, indent + 1);
      }
      if (pretty) {
        out->push_back('\n');
        AppendIndent(out, indent);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump(bool pretty) const {
  std::string out;
  DumpTo(&out, pretty, 0);
  return out;
}

/// Recursive-descent JSON parser with position-annotated errors. Each value
/// is built in place: `out` is the null Json that will hold it — the
/// document, an array's new back(), or an object's slot for its key.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Status ParseDocument(Json* out) {
    if (Status status = ParseValue(out); !status.ok()) return status;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return Status::OK();
  }

 private:
  Status Error(const char* what) const {
    return Status::ParseError(StrFormat("%s at offset %zu", what, pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Status ParseValue(Json* out) {
    if (++depth_ > kMaxDepth) return Error("nesting too deep");
    struct DepthGuard {
      int* d;
      ~DepthGuard() { --*d; }
    } guard{&depth_};

    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case 'n':
        if (ConsumeLiteral("null")) return Status::OK();
        return Error("invalid literal");
      case 't':
      case 'f':
        if (!ConsumeLiteral(c == 't' ? "true" : "false")) {
          return Error("invalid literal");
        }
        out->type_ = Json::Type::kBool;
        out->bool_ = c == 't';
        return Status::OK();
      case '"':
        out->type_ = Json::Type::kString;
        return ParseString(&out->string_);
      case '[':
        return ParseArray(out);
      case '{':
        return ParseObject(out);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Error("unexpected character");
    }
  }

  /// Replaces *out with the string whose opening quote is at pos_.
  Status ParseString(std::string* out) {
    out->clear();
    ++pos_;  // opening quote
    while (true) {
      // Copy the run up to the next quote, backslash or control byte whole.
      const size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out->append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') return Error("unescaped control character in string");
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two separate 3-byte sequences, which is sufficient
          // for config files; SQL text is ASCII in this system).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
  }

  Status ParseNumber(Json* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool digits = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      digits = true;
    }
    if (!digits) return Error("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      bool frac = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
        frac = true;
      }
      if (!frac) return Error("invalid number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      bool exp = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
        exp = true;
      }
      if (!exp) return Error("invalid number exponent");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    if (std::from_chars(first, last, value).ec != std::errc()) {
      // Out of range: strtod's answers (±inf, ±0, subnormals) stand.
      value = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    out->type_ = Json::Type::kNumber;
    out->number_ = value;
    return Status::OK();
  }

  Status ParseArray(Json* out) {
    ++pos_;  // '['
    out->type_ = Json::Type::kArray;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      if (Status status = ParseValue(&out->array_.emplace_back());
          !status.ok()) {
        return status;
      }
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      char c = text_[pos_++];
      if (c == ']') return Status::OK();
      if (c != ',') return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(Json* out) {
    ++pos_;  // '{'
    out->type_ = Json::Type::kObject;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      // key_ is free again once the slot is found, so nested objects reuse
      // it too.
      if (Status status = ParseString(&key_); !status.ok()) return status;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      auto [slot, inserted] = out->object_.try_emplace(key_);
      if (!inserted) slot->second = Json();  // the last duplicate wins
      if (Status status = ParseValue(&slot->second); !status.ok()) {
        return status;
      }
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      char c = text_[pos_++];
      if (c == '}') return Status::OK();
      if (c != ',') return Error("expected ',' or '}' in object");
    }
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string key_;
};

StatusOr<Json> Json::Parse(std::string_view text) {
  Json out;
  if (Status status = JsonParser(text).ParseDocument(&out); !status.ok()) {
    return status;
  }
  return out;
}

}  // namespace pinsql
