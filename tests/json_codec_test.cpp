// The wire codec against its oracle: api::Json's word-at-a-time string
// scanner and charconv numbers must dump the same bytes, and parse the
// same values or fail with the same ParseError (message, line, column), as
// the byte-at-a-time codec with snprintf/strtod numbers they replaced
// (oracle::reference_dump / reference_parse in tests/oracle/json.cpp).
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "api/api.h"
#include "api/json.h"
#include "base/diag.h"
#include "base/json_text.h"
#include "cells/registry.h"
#include "datapaths.h"
#include "genus/spec.h"
#include "oracle/oracle.h"

namespace bridge {
namespace {

using api::Json;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Type, number bits, string bytes, and members in order.
bool same_value(const Json& a, const Json& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_value() == b.bool_value();
    case Json::Type::kNumber:
      return bits(a.number()) == bits(b.number());
    case Json::Type::kString:
      return a.string_value() == b.string_value();
    case Json::Type::kArray: {
      const auto& x = a.items();
      const auto& y = b.items();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (!same_value(x[i], y[i])) return false;
      }
      return true;
    }
    case Json::Type::kObject: {
      const auto& x = a.members();
      const auto& y = b.members();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (x[i].first != y[i].first || !same_value(x[i].second, y[i].second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

/// Either the parsed value or the ParseError, for comparison.
struct Outcome {
  bool ok = false;
  Json value;
  std::string error;
  int line = 0;
  int column = 0;
};

Outcome outcome_of(const std::function<Json()>& parse) {
  Outcome o;
  try {
    o.value = parse();
    o.ok = true;
  } catch (const ParseError& e) {
    o.error = e.what();
    o.line = e.line();
    o.column = e.column();
  }
  return o;
}

/// Production and oracle parse `text` to the same value or the same error.
::testing::AssertionResult same_parse(const std::string& text) {
  const Outcome got = outcome_of([&] { return Json::parse(text); });
  const Outcome want =
      outcome_of([&] { return oracle::reference_parse(text); });
  if (got.ok != want.ok || got.error != want.error || got.line != want.line ||
      got.column != want.column) {
    return ::testing::AssertionFailure()
           << "production: " << (got.ok ? "ok" : got.error) << " ("
           << got.line << ":" << got.column << "), oracle: "
           << (want.ok ? "ok" : want.error) << " (" << want.line << ":"
           << want.column << ")";
  }
  if (got.ok && !same_value(got.value, want.value)) {
    return ::testing::AssertionFailure() << "values differ";
  }
  return ::testing::AssertionSuccess();
}

/// Production and oracle dump `j` to the same bytes, and both codecs read
/// those bytes back to `j`.
::testing::AssertionResult same_dump(const Json& j) {
  const std::string got = j.dump();
  const std::string want = oracle::reference_dump(j);
  if (got != want) {
    std::size_t i = 0;
    while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
    return ::testing::AssertionFailure()
           << "dumps differ at byte " << i << " of " << want.size();
  }
  if (!same_value(Json::parse(got), oracle::reference_parse(got))) {
    return ::testing::AssertionFailure() << "re-parsed values differ";
  }
  return ::testing::AssertionSuccess();
}

cells::LibraryRegistry three_libraries() {
  auto r = cells::LibraryRegistry::with_builtins();
  r.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                      "/sample_sky130_subset.lib");
  return r;
}

/// The eight specs of the server benchmark's warm working set.
std::vector<genus::ComponentSpec> serve_working_set_specs() {
  using genus::Op;
  using genus::OpSet;
  return {
      genus::make_alu_spec(8, genus::alu16_ops()),
      genus::make_adder_spec(32),
      genus::make_addsub_spec(16),
      genus::make_mux_spec(16, 4),
      genus::make_comparator_spec(16, OpSet{Op::kEq, Op::kLt}),
      genus::make_shifter_spec(32, OpSet{Op::kShl, Op::kShr}),
      genus::make_multiplier_spec(8, 8),
      genus::make_register_spec(16),
  };
}

/// A VHDL-bearing response: every alternative of a 4-bit adder, with its
/// structural VHDL, stats and profile.
std::string vhdl_response() {
  auto registry = cells::LibraryRegistry::with_builtins();
  api::SynthesisRequest req;
  req.library = "LSI_LGC15";
  req.spec = genus::make_adder_spec(4);
  req.options.emit_vhdl = true;
  req.options.include_profile = true;
  const api::SynthesisResult res = api::run_request(req, registry);
  EXPECT_TRUE(res.ok()) << res.error;
  return res.to_json();
}

TEST(JsonCodecTest, WorkingSetFrontsDumpByteIdentical) {
  auto registry = three_libraries();
  ASSERT_EQ(registry.names().size(), 3u);
  for (const std::string& lib : registry.names()) {
    for (const genus::ComponentSpec& spec : serve_working_set_specs()) {
      for (bool vhdl : {false, true}) {
        SCOPED_TRACE(lib + "/" + spec.key() + (vhdl ? " +vhdl" : ""));
        api::SynthesisRequest req;
        req.library = lib;
        req.spec = spec;
        req.options.emit_vhdl = vhdl;
        EXPECT_TRUE(same_dump(req.encode()));
        const api::SynthesisResult res = api::run_request(req, registry);
        ASSERT_TRUE(res.ok()) << res.error;
        ASSERT_FALSE(res.alternatives.empty());
        EXPECT_TRUE(same_dump(res.encode()));
      }
    }
  }
}

TEST(JsonCodecTest, ApiTestRequestsDumpByteIdentical) {
  std::vector<api::SynthesisRequest> reqs;
  api::SynthesisRequest alu;
  alu.library = "LSI_LGC15";
  alu.spec = genus::make_alu_spec(64, genus::alu16_ops());
  alu.options.deadline_ms = 250;
  alu.options.deadline_best_effort = true;
  alu.options.emit_vhdl = true;
  alu.options.extraction_cache_budget_bytes = 1 << 20;
  reqs.push_back(alu);
  api::SynthesisRequest dp8;
  dp8.library = "LSI_LGC15";
  dp8.input_netlist = testutil::make_adder_mux8();
  reqs.push_back(dp8);
  api::SynthesisRequest both = dp8;
  both.spec = genus::make_adder_spec(4);
  reqs.push_back(both);
  api::SynthesisRequest conns;
  conns.library = "TTL74";
  conns.input_netlist = testutil::make_connection_kinds();
  reqs.push_back(conns);
  for (const genus::ComponentSpec& spec :
       {genus::make_adder_spec(16), genus::make_mux_spec(8, 4),
        genus::make_register_spec(8),
        genus::make_counter_spec(4, genus::OpSet{genus::Op::kCountUp}),
        genus::make_comparator_spec(8, genus::OpSet{genus::Op::kEq}),
        genus::make_multiplier_spec(8, 8),
        genus::make_barrel_shifter_spec(16, genus::OpSet{genus::Op::kShl})}) {
    api::SynthesisRequest r;
    r.library = "LSI_LGC15";
    r.spec = spec;
    r.options.threads = api::RequestOptions::kMaxThreads;
    r.options.min_delay_gain = 1.0 / 3.0;
    reqs.push_back(r);
  }
  for (const api::SynthesisRequest& r : reqs) {
    EXPECT_TRUE(same_dump(r.encode()));
  }

  // The api tests' hand-written request texts.
  const std::string head =
      R"({"library":"LSI_LGC15","spec":{"kind":"ADDER","width":4},)";
  std::vector<std::string> texts = {
      "{}", R"({"library":"LSI_LGC15"})",
      R"({"library":"x","spec":{"kind":"FLUX_CAPACITOR"}})",
      R"({"library":"x","spec":{"kind":"ADDER"},"options":{"filter":"bogus"}})",
      R"({"library":"LSI_LGC15","spec":{"kind":"ADDER","width":16},)"
      R"("options":{"emit_vhdl":true,"use_compiled_plan":false,)"
      R"("node_parallel":false,"delta_cache_keys":false,)"
      R"("use_template_cache":false,"use_extraction_cache":false}})"};
  for (const char* v : {"-1", "257", "2000", "4294967297", "1e300", "2.5"}) {
    texts.push_back(head + R"("options":{"threads":)" + v + "}}");
  }
  for (const std::string& text : texts) {
    SCOPED_TRACE(text);
    EXPECT_TRUE(same_parse(text));
    EXPECT_TRUE(same_dump(Json::parse(text)));
  }

  api::SynthesisResult res;
  res.status = "ok";
  res.deadline_hit = true;
  res.server_ms = 12.75;
  res.alternatives.push_back({67.2, 38.4, "adder-ripple-by-1 (ADDER:ADD1)",
                              "-- vhdl text\n"});
  res.alternatives.push_back({169.0, 16.0, "adder-cla-flat", ""});
  res.has_profile = true;
  res.profile.name = "synthesize";
  res.profile.add_phase("expand", 1.5);
  res.profile.add_counter("combinations", 34);
  EXPECT_TRUE(same_dump(res.encode()));
}

TEST(JsonCodecTest, EveryByteAtEveryOffsetEscapesByteIdentical) {
  // Each byte 0x00-0xFF at each offset 0-15 of strings of length 0-40:
  // the offsets cover every lane of the scanner's first word, the lengths
  // its word loop, the tail and the empty string. The other bytes are
  // seeded printable filler, which brings its own quotes and backslashes.
  std::mt19937 rng(20261017);
  std::uniform_int_distribution<int> filler(0x20, 0x7E);
  for (int len = 0; len <= 40; ++len) {
    for (int off = 0; off < 16 && off <= len; ++off) {
      for (int byte = 0; byte < 256; ++byte) {
        std::string s(static_cast<std::size_t>(len), ' ');
        for (char& c : s) c = static_cast<char>(filler(rng));
        if (off < len) {
          s[static_cast<std::size_t>(off)] = static_cast<char>(byte);
        }
        Json obj = Json::object();
        obj.set(s, Json(s));
        const std::string got = obj.dump();
        const std::string want = oracle::reference_dump(obj);
        ASSERT_EQ(got, want) << "len " << len << " offset " << off
                             << " byte " << byte;
        const std::string quoted = oracle::reference_dump(Json(s));
        ASSERT_EQ(base::json_escaped(s), quoted.substr(1, quoted.size() - 2))
            << "len " << len << " offset " << off << " byte " << byte;
        ASSERT_TRUE(same_parse(got));
        ASSERT_EQ(Json::parse(got).at(s).string_value(), s);
      }
    }
  }
}

TEST(JsonCodecTest, ScannerFindsTheFirstSpecialByte) {
  // Two special bytes in one word: the lower address wins, whatever the
  // borrow out of the first does to the lanes above it.
  for (int first = 0; first < 16; ++first) {
    for (int second = first; second < 16; ++second) {
      for (const char a : {'"', '\\', '\0', '\x1f'}) {
        for (const char b : {'"', '\\', '\x01', '\n'}) {
          std::string s(16, 'x');
          s[static_cast<std::size_t>(second)] = b;
          s[static_cast<std::size_t>(first)] = a;
          EXPECT_EQ(base::find_json_special(s.data(), s.data() + s.size()),
                    s.data() + first);
        }
      }
    }
  }
  // A special byte just past `end` is not in range: the scan never reads
  // beyond it.
  for (int len = 0; len <= 24; ++len) {
    for (int gap = 0; gap < 8; ++gap) {
      std::string s(static_cast<std::size_t>(len + gap), 'x');
      s += "\"\\\n\"\\\n\"\\";
      EXPECT_EQ(base::find_json_special(s.data(), s.data() + len),
                s.data() + len)
          << "len " << len << " gap " << gap;
    }
  }
  for (int byte = 0x20; byte < 0x100; ++byte) {
    if (byte == '"' || byte == '\\') continue;
    const std::string clean(23, static_cast<char>(byte));
    EXPECT_EQ(base::find_json_special(clean.data(), clean.data() + 23),
              clean.data() + 23)
        << byte;
  }
}

TEST(JsonCodecTest, NumberTextAndBitsMatchOnRandomBitPatterns) {
  std::mt19937_64 rng(1);
  for (int i = 0; i < 1000000; ++i) {
    const double v = std::bit_cast<double>(rng());
    const std::string text = api::format_json_number(v);
    ASSERT_EQ(text, oracle::reference_dump(Json(v))) << std::hex << bits(v);
    const double back = Json::parse(text).number();
    ASSERT_EQ(bits(back), bits(oracle::reference_parse(text).number()))
        << text;
    if (std::isfinite(v) && v != 0.0) {  // -0 prints as "0"
      ASSERT_EQ(bits(back), bits(v)) << text;
    }
  }
}

TEST(JsonCodecTest, NumberEdgesMatch) {
  const double two53 = 9007199254740992.0;
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           DBL_MIN,
                           DBL_MIN / 3,
                           DBL_MAX,
                           -DBL_MAX,
                           two53,
                           -two53,
                           two53 - 1,
                           -(two53 - 1),
                           two53 + 2,
                           -(two53 + 2),
                           std::nextafter(two53, 0.0),
                           1e21,
                           1e22,
                           -1e21,
                           0.1,
                           1.0 / 3.0,
                           123456789.125,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (double v : values) {
    const std::string text = api::format_json_number(v);
    SCOPED_TRACE(text);
    EXPECT_EQ(text, oracle::reference_dump(Json(v)));
    EXPECT_TRUE(same_parse(text));
  }
  // Non-finite values print as 0.
  EXPECT_EQ(api::format_json_number(std::numeric_limits<double>::infinity()),
            "0");
  EXPECT_EQ(api::format_json_number(std::numeric_limits<double>::quiet_NaN()),
            "0");

  // Texts no dump writes: underflow to zero, overflow rejected, the
  // smallest subnormal, mantissas longer than a double holds, ±2^53±1.
  const std::vector<std::string> texts = {
      "1e-400", "-1e-400", "1e400", "-1e400", "4.9e-324", "2.4e-324",
      "2.5e-324", "1.7976931348623157e308", "1.7976931348623159e308",
      "1234567890123456789012345678901234567890",
      "0.1234567890123456789012345678901234567890",
      "9.999999999999999999999999999999999999999e-5",
      "9007199254740993", "-9007199254740993", "9007199254740991",
      "-9007199254740991", "2.2250738585072011e-308", "0e999999", "-0",
      "0.0", "1E+2", "1e-0", "123456789012345678901234567890e-50"};
  for (const std::string& text : texts) {
    SCOPED_TRACE(text);
    EXPECT_TRUE(same_parse(text));
  }
  EXPECT_EQ(Json::parse("1e-400").number(), 0.0);
  EXPECT_THROW(Json::parse("1e400"), ParseError);
  EXPECT_EQ(Json::parse("4.9e-324").number(),
            std::numeric_limits<double>::denorm_min());

  // Short decimal texts of random doubles at every precision.
  std::mt19937_64 rng(2);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), i % 2 == 0 ? "%.*g" : "%.*e", i % 21, v);
    ASSERT_TRUE(same_parse(buf)) << buf;
  }
}

TEST(JsonCodecTest, MalformedAndGarbageInputsFailAlike) {
  const std::vector<std::string> corpus = {
      "",
      "\n\n\n",
      std::string(5, '\0'),
      "\xff\xfe\x80\x81 binary junk \x01\x02",
      "))))((((",
      "library library library",
      "LIBRARY",
      "NAME:",
      "!@#$%^&*",
      std::string(10000, 'x'),
      "\"unterminated string",
      "/* unterminated comment",
      "{",
      "[1,",
      "{\"a\"}",
      "tru",
      "01",
      "1.",
      "1e",
      "-",
      "--1",
      "\"\\x\"",
      "{}extra",
      "{\"a\":1,}",
      "\"a\nb\"",
      "\n\n  \"tab\there\"",
      "\"\\u12\"",
      "\"\\u00zz\"",
      "\"\\",
      "\"\\u00e9\\u20ac\\uD83D\"",
      "[\"\x01\"]",
      "{\"k\":\"v\"\n,\n\"k\":2}",
      std::string(5000, '['),
      "[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]",
  };
  for (const std::string& text : corpus) {
    SCOPED_TRACE(text.substr(0, 40));
    EXPECT_TRUE(same_parse(text));
  }
}

TEST(JsonCodecTest, EveryPrefixOfAVhdlResponseParsesAlike) {
  const std::string text = vhdl_response();
  ASSERT_NE(text.find("\\n"), std::string::npos);
  for (std::size_t n = 0; n <= text.size(); ++n) {
    ASSERT_TRUE(same_parse(text.substr(0, n))) << "prefix " << n;
  }
}

TEST(JsonCodecTest, SingleByteMutationsOfAVhdlResponseParseAlike) {
  const std::string text = vhdl_response();
  const char interesting[] = {'"', '\\', '\n', '\t', '{', '}', '[', ']',
                              ',', ':', '0', '9', '-', '.', 'e', 'u',
                              '\0', '\x1f', '\x7f', '\xff', ' ', 'n'};
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pos(0, text.size() - 1);
  std::uniform_int_distribution<int> pick(0, sizeof(interesting) * 2 - 1);
  for (int i = 0; i < 4000; ++i) {
    std::string mutated = text;
    const std::size_t at = pos(rng);
    const int k = pick(rng);
    mutated[at] = k < static_cast<int>(sizeof(interesting))
                      ? interesting[k]
                      : static_cast<char>(rng() & 0xFF);
    ASSERT_TRUE(same_parse(mutated)) << "mutation " << i << " at " << at;
  }
}

}  // namespace
}  // namespace bridge
