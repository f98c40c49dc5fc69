#include "check/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.h"

namespace sb::check {

bool Json::as_bool() const {
  require(is_bool(), "Json: not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  require(is_number(), "Json: not a number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  require(is_string(), "Json: not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  require(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  require(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

Json::Array& Json::as_array() {
  require(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

Json::Object& Json::as_object() {
  require(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

std::uint64_t Json::as_u64() const {
  const double v = as_number();
  require(v >= 0.0, "Json: negative value for unsigned field");
  return static_cast<std::uint64_t>(v);
}

std::int64_t Json::as_i64() const { return static_cast<std::int64_t>(as_number()); }

const Json& Json::get(const std::string& key) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw InvalidArgument("Json: missing key '" + key + "'");
  return it->second;
}

const Json* Json::find(const std::string& key) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double Json::get_or(const std::string& key, double fallback) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? fallback : it->second.as_number();
}

bool Json::get_or(const std::string& key, bool fallback) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? fallback : it->second.as_bool();
}

Json& Json::operator[](const std::string& key) {
  if (!is_object()) value_ = Object{};
  return std::get<Object>(value_)[key];
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_number(double v, std::string& out) {
  require(std::isfinite(v), "Json: non-finite number");
  // Integers within the exactly-representable range print without a
  // fraction so ids and counts round-trip byte-identically.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    out += buf;
    return;
  }
  // Shortest round-trip representation.
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  require(ec == std::errc(), "Json: number format");
  out.append(buf, end);
}

}  // namespace

namespace {

void dump_value(const Json& v, std::string& out, int indent, int depth);

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

void dump_value(const Json& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    dump_number(v.as_number(), out);
  } else if (v.is_string()) {
    dump_string(v.as_string(), out);
  } else if (v.is_array()) {
    const Json::Array& arr = v.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    bool first = true;
    for (const Json& item : arr) {
      if (!first) out.push_back(',');
      first = false;
      newline_indent(out, indent, depth + 1);
      dump_value(item, out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const Json::Object& obj = v.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) out.push_back(',');
      first = false;
      newline_indent(out, indent, depth + 1);
      dump_string(key, out);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      dump_value(value, out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push_back('}');
  }
}

/// Recursive-descent parser over a raw byte buffer.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      throw InvalidArgument("Json: trailing content at offset " +
                            std::to_string(pos_));
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("Json: " + what + " at offset " +
                          std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(obj));
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // Repro files only ever contain ASCII; encode the BMP code point
          // as UTF-8 for completeness.
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
          fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_ || pos_ == start) {
      fail("bad number");
    }
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace sb::check
