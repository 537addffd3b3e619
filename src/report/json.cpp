#include "report/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace hlsrg {

namespace {

const JsonValue& null_value() {
  static const JsonValue v;
  return v;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no inf/nan; null is the conventional stand-in.
    out += "null";
    return;
  }
  // Integers (the common case: counters) print exactly, without exponents.
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    skip_ws();
    JsonValue v;
    if (!parse_value(v)) {
      fill_error(error);
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      err_ = "trailing characters after document";
      fill_error(error);
      return std::nullopt;
    }
    return v;
  }

 private:
  void fill_error(std::string* error) const {
    if (error != nullptr) {
      *error = "offset " + std::to_string(pos_) + ": " + err_;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool literal(const char* word, JsonValue value, JsonValue& out) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) {
      err_ = std::string("invalid literal (expected '") + word + "')";
      return false;
    }
    pos_ += len;
    out = std::move(value);
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (at_end()) {
      err_ = "unexpected end of input";
      return false;
    }
    switch (peek()) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        return literal("true", JsonValue(true), out);
      case 'f':
        return literal("false", JsonValue(false), out);
      case 'n':
        return literal("null", JsonValue(), out);
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    ++pos_;  // '{'
    out = JsonValue::object();
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"') {
        err_ = "expected object key string";
        return false;
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (at_end() || peek() != ':') {
        err_ = "expected ':' after object key";
        return false;
      }
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      out.set(key, std::move(v));
      skip_ws();
      if (at_end()) {
        err_ = "unterminated object";
        return false;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      err_ = "expected ',' or '}' in object";
      return false;
    }
  }

  bool parse_array(JsonValue& out) {
    ++pos_;  // '['
    out = JsonValue::array();
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      out.push_back(std::move(v));
      skip_ws();
      if (at_end()) {
        err_ = "unterminated array";
        return false;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      err_ = "expected ',' or ']' in array";
      return false;
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (at_end()) {
        err_ = "unterminated string";
        return false;
      }
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) {
        err_ = "unterminated escape";
        return false;
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            err_ = "truncated \\u escape";
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              err_ = "invalid \\u escape";
              return false;
            }
          }
          // UTF-8 encode (BMP only; surrogate pairs are out of scope for
          // report files, which are ASCII in practice).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          err_ = "invalid escape character";
          return false;
      }
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    while (!at_end() && ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                         peek() == 'e' || peek() == 'E' || peek() == '+' ||
                         peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      err_ = "invalid value";
      return false;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      err_ = "invalid number '" + token + "'";
      pos_ = start;
      return false;
    }
    out = exact_integer(token).value_or(JsonValue(d));
    return true;
  }

  // An integer literal that fits int64 (negative) or uint64 keeps its exact
  // value; anything with a fraction or exponent, or out of range, is a double.
  static std::optional<JsonValue> exact_integer(const std::string& token) {
    if (token.find_first_of(".eE") != std::string::npos) return std::nullopt;
    errno = 0;
    char* end = nullptr;
    if (token[0] == '-') {
      const long long i = std::strtoll(token.c_str(), &end, 10);
      if (errno != 0 || *end != '\0') return std::nullopt;
      return JsonValue(static_cast<std::int64_t>(i));
    }
    const unsigned long long u = std::strtoull(token.c_str(), &end, 10);
    if (errno != 0 || *end != '\0') return std::nullopt;
    return JsonValue(static_cast<std::uint64_t>(u));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string err_ = "parse error";
};

}  // namespace

void JsonValue::set(const std::string& key, JsonValue v) {
  type_ = Type::kObject;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

const JsonValue& JsonValue::at(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  return null_value();
}

bool JsonValue::contains(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return true;
  }
  return false;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const std::string pad(pretty ? static_cast<std::size_t>(indent) *
                                     static_cast<std::size_t>(depth + 1)
                               : 0,
                        ' ');
  const std::string close_pad(
      pretty ? static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth)
             : 0,
      ' ');
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      if (int_ == IntKind::kSigned) {
        out += std::to_string(static_cast<std::int64_t>(bits_));
      } else if (int_ == IntKind::kUnsigned) {
        out += std::to_string(bits_);
      } else {
        append_number(out, number_);
      }
      break;
    case Type::kString:
      append_escaped(out, string_);
      break;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        if (pretty) {
          out += '\n';
          out += pad;
        }
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        if (pretty) {
          out += '\n';
          out += pad;
        }
        append_escaped(out, members_[i].first);
        out += pretty ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

std::optional<JsonValue> JsonValue::parse(const std::string& text,
                                          std::string* error) {
  return Parser(text).run(error);
}

bool write_json_file(const JsonValue& v, const std::string& path,
                     std::string* error) {
  std::ofstream file(path);
  if (!file) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  file << v.dump(2) << '\n';
  file.flush();
  if (!file) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

std::optional<JsonValue> read_json_file(const std::string& path,
                                        std::string* error) {
  std::ifstream file(path);
  if (!file) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << file.rdbuf();
  return JsonValue::parse(buf.str(), error);
}

}  // namespace hlsrg
