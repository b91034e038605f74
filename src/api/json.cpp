#include "api/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "base/json_text.h"

namespace bridge::api {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  static const char* names[] = {"null",   "bool",  "number",
                                "string", "array", "object"};
  throw Error(std::string("JSON value is ") +
              names[static_cast<int>(got)] + ", expected " + want);
}

}  // namespace

bool Json::bool_value() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return num_;
}

long Json::integer() const {
  const double v = number();
  // Range first: converting a double outside long's range is undefined.
  constexpr double kLimit = -static_cast<double>(
      std::numeric_limits<long>::min());  // 2^63, exact
  if (!(v >= -kLimit && v < kLimit)) {
    throw Error("JSON number " + format_json_number(v) + " is out of range");
  }
  if (v != std::floor(v)) {
    throw Error("JSON number " + format_json_number(v) +
                " is not an integer");
  }
  return static_cast<long>(v);
}

const std::string& Json::string_value() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

Json& Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", type_);
  arr_.push_back(std::move(v));
  return *this;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(key, std::move(value));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    if (type_ != Type::kObject) type_error("object", type_);
    throw Error("JSON object has no member '" + key + "'");
  }
  return *v;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

bool Json::bool_or(const std::string& key, bool dflt) const {
  const Json* v = find(key);
  return v == nullptr || v->is_null() ? dflt : v->bool_value();
}

long Json::int_or(const std::string& key, long dflt) const {
  const Json* v = find(key);
  return v == nullptr || v->is_null() ? dflt : v->integer();
}

double Json::num_or(const std::string& key, double dflt) const {
  const Json* v = find(key);
  return v == nullptr || v->is_null() ? dflt : v->number();
}

std::string Json::str_or(const std::string& key,
                         const std::string& dflt) const {
  const Json* v = find(key);
  return v == nullptr || v->is_null() ? dflt : v->string_value();
}

// --- serialization ---------------------------------------------------------

namespace {

// Longest number text: sign, 17 digits, point, "e-308".
constexpr int kNumberChars = 32;

/// dump()'s text for `v`, written at `buf`; returns its end. to_chars
/// with a precision is specified as printf with that precision, so this
/// is exactly "%lld" for the integral branch and "%.17g" for the rest.
char* write_number(char* buf, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; clamp to null-ish zero rather than emit an
    // unparsable token. Metrics are always finite, so this is a guard,
    // not a path the encoders take.
    *buf = '0';
    return buf + 1;
  }
  // Integral doubles in the exactly-representable range print as plain
  // integers; the rest get 17 significant digits, which round-trips any
  // double exactly through a correctly-rounded parse.
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (v == std::floor(v) && std::fabs(v) < kMaxExact) {
    return std::to_chars(buf, buf + kNumberChars, static_cast<long long>(v))
        .ptr;
  }
  return std::to_chars(buf, buf + kNumberChars, v, std::chars_format::general,
                       17)
      .ptr;
}

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  base::append_json_escaped(out, s);
  out.push_back('"');
}

void dump_to(const Json& j, std::string& out) {
  switch (j.type()) {
    case Json::Type::kNull:
      out += "null";
      return;
    case Json::Type::kBool:
      out += j.bool_value() ? "true" : "false";
      return;
    case Json::Type::kNumber: {
      char buf[kNumberChars];
      out.append(buf, write_number(buf, j.number()));
      return;
    }
    case Json::Type::kString:
      dump_string(j.string_value(), out);
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
        dump_string(k, out);
        out.push_back(':');
        dump_to(v, out);
      }
      out.push_back('}');
      return;
    }
  }
}

}  // namespace

std::string format_json_number(double v) {
  char buf[kNumberChars];
  return std::string(buf, write_number(buf, v));
}

std::string Json::dump() const {
  std::string out;
  dump_to(*this, out);
  return out;
}

// --- parser ----------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(const std::string& text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Json parse_document() {
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg, line_, column());
  }

  int column() const {
    return static_cast<int>(pos_ - line_start_) + 1;
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
    if (eof() || peek() != want) {
      fail(std::string("expected '") + want + "'");
    }
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
    if (depth > max_depth_) fail("nesting too deep");
    skip_ws();
    if (eof()) fail("unexpected end of input");
    char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Json(parse_string());
      case 't':
        parse_keyword("true");
        return Json(true);
      case 'f':
        parse_keyword("false");
        return Json(false);
      case 'n':
        parse_keyword("null");
        return Json();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  void parse_keyword(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (eof() || peek() != *p) fail(std::string("bad keyword; expected '") +
                                      word + "'");
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
    const char* const begin = text_.data();
    const char* const end = begin + text_.size();
    for (;;) {
      // A clean run holds no control byte, so no newline: it moves the
      // column, never the line.
      const char* const run = begin + pos_;
      const char* const special = base::find_json_special(run, end);
      out.append(run, static_cast<std::size_t>(special - run));
      pos_ = static_cast<std::size_t>(special - begin);
      if (eof()) fail("unterminated string");
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') fail("raw control character in string");
      if (eof()) fail("unterminated escape");
      const char e = next();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_code_unit(out); break;
        default: fail(std::string("bad escape '\\") + e + "'");
      }
    }
  }

  /// The four hex digits after "\u", appended as UTF-8.
  void append_code_unit(std::string& out) {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("truncated \\u escape");
      const char h = next();
      code <<= 4;
      if (h >= '0' && h <= '9') code |= h - '0';
      else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
      else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
      else fail("bad hex digit in \\u escape");
    }
    // Encode the code unit as UTF-8. Surrogate pairs are not combined
    // (the API layer only ever emits \u00XX controls); a lone surrogate
    // still produces well-formed-enough bytes rather than an error,
    // matching lenient wire parsers.
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
  }

  bool at_digit() const { return !eof() && peek() >= '0' && peek() <= '9'; }

  void skip_digits() {
    while (at_digit()) ++pos_;  // digits never move the line
  }

  Json parse_number() {
    const std::size_t start = pos_;
    consume('-');
    if (!at_digit()) fail("malformed number");
    // RFC 8259 integer grammar: a leading zero stands alone.
    if (peek() == '0') {
      next();
      if (at_digit()) fail("malformed number: leading zero");
    } else {
      skip_digits();
    }
    if (consume('.')) {
      if (!at_digit()) fail("malformed number: digits required after '.'");
      skip_digits();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      next();
      if (!eof() && (peek() == '+' || peek() == '-')) next();
      if (!at_digit()) fail("malformed number: digits required in exponent");
      skip_digits();
    }
    // The grammar above admits exactly what from_chars reads, so it
    // consumes the whole span. It reports underflow and overflow as
    // out-of-range without a value; strtod then gives the values this
    // parser has always produced (0 on underflow, a subnormal where one
    // exists, infinity on overflow, which is rejected below).
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    double v = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, v);
    if (r.ec == std::errc::result_out_of_range) {
      v = std::strtod(std::string(first, last).c_str(), nullptr);
    } else if (r.ec != std::errc() || r.ptr != last) {
      fail("malformed number");
    }
    if (!std::isfinite(v)) fail("number out of range");
    return Json(v);
  }

  const std::string& text_;
  const int max_depth_;
  std::size_t pos_ = 0;
  int line_ = 1;
  std::size_t line_start_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text, int max_depth) {
  return Parser(text, max_depth).parse_document();
}

}  // namespace bridge::api
