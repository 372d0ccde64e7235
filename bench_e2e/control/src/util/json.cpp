#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace isomap {

void json_escape(std::string& out, std::string_view s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

std::string json_number(double d) {
  if (!std::isfinite(d)) return "null";
  // Integers (within the exactly-representable range) print without an
  // exponent or decimal point; everything else uses shortest round-trip.
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    return buf;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  return std::string(buf, res.ptr);
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray)
    throw std::logic_error("JsonValue: push_back on non-array");
  array_.push_back(std::move(v));
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

const JsonValue& JsonValue::at(std::size_t i) const {
  if (kind_ != Kind::kArray || i >= array_.size())
    throw std::out_of_range("JsonValue: array index out of range");
  return array_[i];
}

JsonValue& JsonValue::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject)
    throw std::logic_error("JsonValue: operator[] on non-object");
  for (auto& [k, v] : object_)
    if (k == key) return v;
  object_.emplace_back(key, JsonValue());
  return object_.back().second;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v && v->is_number() ? v->number_ : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v && v->is_string() ? v->string_ : fallback;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline = [&](int d) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += json_number(number_); break;
    case Kind::kString: json_escape(out, string_); break;
    case Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out.push_back(',');
        newline(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out.push_back(',');
        newline(depth + 1);
        json_escape(out, object_[i].first);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent parser. `pos` advances past consumed input; any
/// failure sets `ok` false (and the outer parse returns nullopt).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run() {
    JsonValue v = value();
    skip_ws();
    if (!ok_ || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    ok_ = false;
    return false;
  }

  JsonValue value() {
    if (++depth_ > kMaxDepth) {
      ok_ = false;
      return {};
    }
    skip_ws();
    JsonValue out;
    if (pos_ >= text_.size()) {
      ok_ = false;
    } else {
      switch (text_[pos_]) {
        case 'n': if (literal("null")) out = JsonValue(); break;
        case 't': if (literal("true")) out = JsonValue(true); break;
        case 'f': if (literal("false")) out = JsonValue(false); break;
        case '"': out = JsonValue(string()); break;
        case '[': out = array(); break;
        case '{': out = object(); break;
        default: out = JsonValue(number()); break;
      }
    }
    --depth_;
    return out;
  }

  std::string string() {
    std::string out;
    if (!consume('"')) {
      ok_ = false;
      return out;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) break;  // Raw control char.
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            ok_ = false;
            return out;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              ok_ = false;
              return out;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are written
          // as-is byte sequences; the writer never emits them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          ok_ = false;
          return out;
      }
    }
    ok_ = false;
    return out;
  }

  double number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    // JSON forbids leading zeros: "01" is two tokens, not a number.
    if (pos_ + 1 < text_.size() && text_[pos_] == '0' &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
      ok_ = false;
      return 0.0;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    double out = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_ ||
        pos_ == start)
      ok_ = false;
    return out;
  }

  JsonValue array() {
    JsonValue out = JsonValue::array();
    consume('[');
    skip_ws();
    if (consume(']')) return out;
    while (ok_) {
      out.push_back(value());
      skip_ws();
      if (consume(']')) return out;
      if (!consume(',')) break;
    }
    ok_ = false;
    return out;
  }

  JsonValue object() {
    JsonValue out = JsonValue::object();
    consume('{');
    skip_ws();
    if (consume('}')) return out;
    while (ok_) {
      skip_ws();
      const std::string key = string();
      if (!ok_) break;
      skip_ws();
      if (!consume(':')) break;
      out[key] = value();
      skip_ws();
      if (consume('}')) return out;
      if (!consume(',')) break;
    }
    ok_ = false;
    return out;
  }

  static constexpr int kMaxDepth = 128;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool ok_ = true;
};

}  // namespace

std::optional<JsonValue> JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace isomap
