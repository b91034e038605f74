// (d) The JSON codec the production wire codec replaced: a byte-at-a-time
// string escaper and string parser, and snprintf/strtod numbers.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/diag.h"
#include "oracle/oracle.h"

namespace bridge::oracle {

using api::Json;

namespace {

std::string reference_number(double v) {
  if (!std::isfinite(v)) return "0";
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (v == std::floor(v) && std::fabs(v) < kMaxExact) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string reference_escape(const std::string& s) {
  std::string out;
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

void dump_to(const Json& j, std::string& out) {
  switch (j.type()) {
    case Json::Type::kNull:
      out += "null";
      return;
    case Json::Type::kBool:
      out += j.bool_value() ? "true" : "false";
      return;
    case Json::Type::kNumber:
      out += reference_number(j.number());
      return;
    case Json::Type::kString:
      out += '"' + reference_escape(j.string_value()) + '"';
      return;
    case Json::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& v : j.items()) {
        if (!first) out.push_back(',');
        first = false;
        dump_to(v, out);
      }
      out.push_back(']');
      return;
    }
    case Json::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : j.members()) {
        if (!first) out.push_back(',');
        first = false;
        out += '"' + reference_escape(k) + "\":";
        dump_to(v, out);
      }
      out.push_back('}');
      return;
    }
  }
}

/// Every byte through next(), which keeps line and column.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 96;

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg, line_, static_cast<int>(pos_ - line_start_) + 1);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    if (eof()) fail("unexpected end of input");
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      line_start_ = pos_;
    }
    return c;
  }

  void skip_ws() {
    while (!eof()) {
      char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      next();
    }
  }

  void expect(char want) {
    if (eof() || peek() != want) fail(std::string("expected '") + want + "'");
    next();
  }

  bool consume(char want) {
    if (!eof() && peek() == want) {
      next();
      return true;
    }
    return false;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    if (eof()) fail("unexpected end of input");
    char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't': parse_keyword("true"); return Json(true);
      case 'f': parse_keyword("false"); return Json(false);
      case 'n': parse_keyword("null"); return Json();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  void parse_keyword(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (eof() || peek() != *p) {
        fail(std::string("bad keyword; expected '") + word + "'");
      }
      next();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value(depth + 1));
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return obj;
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    for (;;) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string");
      char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        if (eof()) fail("unterminated escape");
        char e = next();
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
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              if (eof()) fail("truncated \\u escape");
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= h - '0';
              else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
              else fail("bad hex digit in \\u escape");
            }
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
            fail(std::string("bad escape '\\") + e + "'");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      } else {
        out.push_back(c);
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    consume('-');
    if (eof() || peek() < '0' || peek() > '9') fail("malformed number");
    if (peek() == '0') {
      next();
      if (!eof() && peek() >= '0' && peek() <= '9') {
        fail("malformed number: leading zero");
      }
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') next();
    }
    if (consume('.')) {
      if (eof() || peek() < '0' || peek() > '9') {
        fail("malformed number: digits required after '.'");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') next();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      next();
      if (!eof() && (peek() == '+' || peek() == '-')) next();
      if (eof() || peek() < '0' || peek() > '9') {
        fail("malformed number: digits required in exponent");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') next();
    }
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number");
    if (!std::isfinite(v)) fail("number out of range");
    return Json(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  std::size_t line_start_ = 0;
};

}  // namespace

std::string reference_dump(const Json& j) {
  std::string out;
  dump_to(j, out);
  return out;
}

Json reference_parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace bridge::oracle
