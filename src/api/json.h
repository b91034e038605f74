// A small JSON value type for the request/response API and the server
// wire protocol.
//
// Why hand-rolled: the repo takes no external dependencies, and the API
// layer needs two properties a generic library would not promise anyway:
//
//  1. Deterministic serialization. Objects preserve *insertion order*
//     and dump() writes exactly what was inserted, so a value built by
//     the encoders in api/api.cpp — or parsed from their output —
//     re-serializes byte-identically. The protocol golden tests
//     (encode -> decode -> encode) pin this.
//  2. Exact double round-trips. Numbers are formatted with enough
//     digits (%.17g) that parse(dump(x)) yields the same double bit
//     pattern — which is what lets a front travel over the wire and
//     compare bit-identical to in-process synthesis.
//
// Every request and response crosses this codec, and a VHDL-bearing
// response is mostly escaped text, so its text paths avoid per-byte work:
//
//  - Strings. base::find_json_special (src/base/json_text.h) scans eight
//    bytes per step for the next byte a string must escape. dump() copies
//    each clean run straight into its one output buffer and writes the
//    escape; the parser copies runs the same way and decodes escapes
//    inline.
//  - Numbers. dump() writes them with std::to_chars, which the standard
//    defines as printf with the same precision: integral doubles below
//    2^53 as "%lld", the rest as "%.17g", so every output byte is what
//    snprintf wrote. The parser reads the number span in place with
//    std::from_chars; only on out-of-range (underflow or overflow) does it
//    fall back to strtod, so 1e-400 still parses to 0 and 1e400 is still
//    rejected.
//
// tests/json_codec_test.cpp holds both paths to the byte-at-a-time codec
// they replaced (oracle::reference_dump / reference_parse): identical
// dump bytes, number text and bits, parsed values and ParseError
// positions.
//
// The parser is input-hardened like the repo's other text parsers
// (Liberty, data book, LEGEND): malformed input raises bridge::ParseError
// with line/column, nesting is depth-capped (a nesting bomb is an error,
// not a stack overflow), and the parser-robustness garbage corpus runs
// against it in tests/api_test.cpp.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "base/diag.h"

namespace bridge::api {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), num_(v) {}
  Json(int v) : type_(Type::kNumber), num_(v) {}
  Json(long v) : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw bridge::Error on a type mismatch (the server
  /// turns that into a clean error response, never undefined behavior).
  bool bool_value() const;
  double number() const;
  /// number() checked to be in long range ("out of range") and integral
  /// ("not an integer").
  long integer() const;
  const std::string& string_value() const;

  // --- arrays -------------------------------------------------------------
  Json& push_back(Json v);
  const std::vector<Json>& items() const;

  // --- objects (insertion-ordered) ----------------------------------------
  /// Append (or replace, by key) a member; returns *this for chaining.
  Json& set(const std::string& key, Json value);
  /// nullptr when absent (or when *this is not an object).
  const Json* find(const std::string& key) const;
  /// Throws bridge::Error naming the missing key.
  const Json& at(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  // --- defaulted lookups for decoders --------------------------------------
  bool bool_or(const std::string& key, bool dflt) const;
  long int_or(const std::string& key, long dflt) const;
  double num_or(const std::string& key, double dflt) const;
  std::string str_or(const std::string& key, const std::string& dflt) const;

  /// Compact deterministic serialization (no whitespace, members in
  /// insertion order, integral doubles printed as integers, the rest
  /// with %.17g so they round-trip exactly).
  std::string dump() const;

  /// Parse a complete JSON document. Throws bridge::ParseError (with
  /// line/column) on any malformed input; nesting beyond `max_depth`
  /// is a ParseError, not a crash. Trailing non-whitespace is an error.
  static Json parse(const std::string& text, int max_depth = 96);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Format one double the way dump() does (shared with code that needs
/// the identical text outside a Json value).
std::string format_json_number(double v);

}  // namespace bridge::api
