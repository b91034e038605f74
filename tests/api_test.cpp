// The unified request/response API: JSON value semantics, protocol
// golden round-trips (encode -> decode -> encode byte-identical),
// request-vs-direct synthesis equivalence, and the env-var precedence
// contract (BRIDGE_CACHE_BUDGET is a default an explicit request field
// overrides).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "api/api.h"
#include "base/diag.h"
#include "cells/cell.h"
#include "cells/registry.h"
#include "datapaths.h"
#include "genus/spec.h"
#include "vhdl/vhdl.h"

namespace bridge {
namespace {

using api::Json;
using testutil::make_adder_mux8;

TEST(JsonTest, ValueRoundTrips) {
  Json obj = Json::object();
  obj.set("s", "hi\n\"there\"")
      .set("i", 42)
      .set("d", 0.1)
      .set("b", true)
      .set("n", Json())
      .set("a", Json::array().push_back(1).push_back("two"));
  const std::string text = obj.dump();
  const Json back = Json::parse(text);
  EXPECT_EQ(back.dump(), text);
  EXPECT_EQ(back.at("s").string_value(), "hi\n\"there\"");
  EXPECT_EQ(back.at("i").integer(), 42);
  EXPECT_EQ(back.at("d").number(), 0.1);  // %.17g: exact double round-trip
  EXPECT_TRUE(back.at("b").bool_value());
  EXPECT_TRUE(back.at("n").is_null());
  EXPECT_EQ(back.at("a").items().size(), 2u);
}

TEST(JsonTest, ExactDoubleRoundTrip) {
  // Bit-exact metric transport is what makes wire fronts comparable to
  // in-process fronts.
  const double values[] = {0.1,       1.0 / 3.0, 38.4, 1e-300,
                           6.02e23,   -0.0,      2.5,  123456789.125,
                           9007199254740993.0};
  for (double v : values) {
    const Json back = Json::parse(api::format_json_number(v));
    EXPECT_EQ(back.number(), v) << api::format_json_number(v);
  }
}

TEST(JsonTest, MalformedInputsRaiseParseError) {
  const char* bad[] = {"",       "{",        "[1,",       "{\"a\"}",
                       "tru",    "01",       "1.",        "1e",
                       "\"\\x\"", "{}extra", "\"unterminated",
                       "{\"a\":1,}"};
  for (const char* text : bad) {
    EXPECT_THROW(Json::parse(text), ParseError) << text;
  }
}

TEST(JsonTest, NestingBombIsErrorNotCrash) {
  EXPECT_THROW(Json::parse(std::string(5000, '[')), ParseError);
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += "{\"a\":";
  EXPECT_THROW(Json::parse(deep), ParseError);
}

TEST(JsonTest, GarbageCorpusNeverCrashesOrLeaks) {
  // The parser-robustness corpus (tests/parser_robustness_test.cpp),
  // applied to the wire parser: ParseError or success, never anything
  // else.
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
  };
  for (const std::string& text : corpus) {
    try {
      Json::parse(text);
    } catch (const ParseError&) {
      // Malformed input reported as such.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "leaked non-ParseError exception: " << e.what();
    }
  }
}

TEST(ApiGoldenTest, SpecRequestEncodeDecodeEncodeByteIdentical) {
  api::SynthesisRequest req;
  req.library = "LSI_LGC15";
  req.spec = genus::make_alu_spec(64, genus::alu16_ops());
  req.options.deadline_ms = 250;
  req.options.deadline_best_effort = true;
  req.options.emit_vhdl = true;
  req.options.extraction_cache_budget_bytes = 1 << 20;
  const std::string first = req.to_json();
  const api::SynthesisRequest decoded = api::SynthesisRequest::from_json(first);
  EXPECT_EQ(decoded.to_json(), first);
  EXPECT_EQ(decoded.library, req.library);
  ASSERT_TRUE(decoded.spec.has_value());
  EXPECT_EQ(*decoded.spec, *req.spec);
  EXPECT_EQ(decoded.options, req.options);
}

TEST(ApiGoldenTest, NetlistRequestEncodeDecodeEncodeByteIdentical) {
  api::SynthesisRequest req;
  req.library = "LSI_LGC15";
  req.input_netlist = make_adder_mux8();
  const std::string first = req.to_json();
  const api::SynthesisRequest decoded = api::SynthesisRequest::from_json(first);
  EXPECT_EQ(decoded.to_json(), first);
}

TEST(ApiGoldenTest, NetlistCodecRoundTripsEveryConnectionKind) {
  const netlist::Module m = testutil::make_connection_kinds();
  const Json j = api::encode_netlist(m);
  const netlist::Module back = api::decode_netlist(j);
  EXPECT_EQ(api::encode_netlist(back).dump(), j.dump());
  EXPECT_EQ(back.instances().size(), 2u);
  EXPECT_EQ(back.instances().front().ref_name, "ref-label");
  // The replicated and const bindings survived structurally, not just
  // textually.
  const auto& bconn = back.instances().front().connections;
  EXPECT_TRUE(bconn.find("I1")->second.replicate);
  const auto& aconn = back.instances().back().connections;
  EXPECT_EQ(aconn.find("CI")->second.kind, netlist::PortConn::Kind::kConst);
  EXPECT_EQ(aconn.find("CO")->second.kind, netlist::PortConn::Kind::kOpen);
}

TEST(ApiGoldenTest, SpecCodecCoversConstructors) {
  const genus::ComponentSpec specs[] = {
      genus::make_adder_spec(16),
      genus::make_alu_spec(64, genus::alu16_ops()),
      genus::make_mux_spec(8, 4),
      genus::make_register_spec(8),
      genus::make_counter_spec(4, genus::OpSet{genus::Op::kCountUp}),
      genus::make_comparator_spec(8, genus::OpSet{genus::Op::kEq}),
      genus::make_multiplier_spec(8, 8),
      genus::make_barrel_shifter_spec(16, genus::OpSet{genus::Op::kShl}),
  };
  for (const genus::ComponentSpec& spec : specs) {
    const Json j = api::encode_spec(spec);
    const genus::ComponentSpec back = api::decode_spec(j);
    EXPECT_EQ(back, spec) << spec.key();
    EXPECT_EQ(api::encode_spec(back).dump(), j.dump()) << spec.key();
  }
}

TEST(ApiGoldenTest, ResultEncodeDecodeEncodeByteIdentical) {
  api::SynthesisResult res;
  res.status = "ok";
  res.deadline_hit = true;
  res.server_ms = 12.75;
  res.alternatives.push_back({67.2, 38.4, "adder-ripple-by-1 (ADDER:ADD1)",
                              "-- vhdl text\n"});
  res.alternatives.push_back({169.0, 16.0, "adder-cla-flat", ""});
  res.stats.combinations_evaluated = 34;
  res.stats.template_cache_hits = 31;
  res.has_profile = true;
  res.profile.name = "synthesize";
  res.profile.add_phase("expand", 1.5);
  res.profile.add_phase("evaluate", 2.25);
  res.profile.add_counter("combinations", 34);
  const std::string first = res.to_json();
  const api::SynthesisResult decoded = api::SynthesisResult::from_json(first);
  EXPECT_EQ(decoded.to_json(), first);
  EXPECT_EQ(decoded.alternatives.size(), 2u);
  EXPECT_EQ(decoded.alternatives[0].vhdl, "-- vhdl text\n");
  EXPECT_EQ(decoded.profile.phase_ms("evaluate"), 2.25);
  EXPECT_EQ(decoded.profile.counter("combinations"), 34);
}

TEST(ApiRequestTest, RejectsMalformedRequests) {
  EXPECT_THROW(api::SynthesisRequest::from_json("{}"), Error);
  // Both spec and netlist, or neither, is an error.
  EXPECT_THROW(api::SynthesisRequest::from_json(
                   R"({"library":"LSI_LGC15"})"),
               Error);
  api::SynthesisRequest both;
  both.library = "LSI_LGC15";
  both.spec = genus::make_adder_spec(4);
  both.input_netlist = make_adder_mux8();
  EXPECT_THROW(api::SynthesisRequest::decode(both.encode()), Error);
  // Unknown enum names are errors, not defaults.
  EXPECT_THROW(api::SynthesisRequest::from_json(
                   R"({"library":"x","spec":{"kind":"FLUX_CAPACITOR"}})"),
               Error);
  EXPECT_THROW(
      api::SynthesisRequest::from_json(
          R"({"library":"x","spec":{"kind":"ADDER"},"options":{"filter":"bogus"}})")
          .options.space_options(),
      Error);
}

TEST(ApiRequestTest, OutOfRangeThreadsIsAnErrorNamingTheField) {
  // `threads` sizes the odometer's thread pool; a value the process
  // cannot create threads for used to abort it. Below 0, above the
  // documented ceiling, or outside int range: an Error naming the field.
  const std::string head =
      R"({"library":"LSI_LGC15","spec":{"kind":"ADDER","width":4},)";
  for (const char* bad : {"-1", "257", "2000", "4294967297", "1e300", "2.5"}) {
    SCOPED_TRACE(bad);
    try {
      api::SynthesisRequest::from_json(head + R"("options":{"threads":)" +
                                       bad + "}}");
      ADD_FAILURE() << "threads = " << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos)
          << e.what();
    }
  }
  for (int ok : {0, 1, api::RequestOptions::kMaxThreads}) {
    EXPECT_EQ(api::SynthesisRequest::from_json(
                  head + R"("options":{"threads":)" + std::to_string(ok) +
                  "}}")
                  .options.threads,
              ok);
  }
  // A request built in process is held to the same range.
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(4);
  req.options.threads = 2000;
  auto registry = cells::LibraryRegistry::with_builtins();
  const api::SynthesisResult res = api::run_request(req, registry);
  EXPECT_EQ(res.status, "error");
  EXPECT_NE(res.error.find("threads"), std::string::npos) << res.error;
}

TEST(ApiRequestTest, IntegerFieldsOutsideTheirRangeAreErrorsNamingTheField) {
  // Wire numbers are doubles. Narrowed unchecked, "width": 4294967297
  // decoded as a 1-bit adder and returned its front as ok, and
  // max_alternatives_per_node -3 / 0 failed deep in the evaluator or
  // returned an empty ok front.
  const std::string spec =
      R"({"library":"LSI_LGC15","spec":{"kind":"ADDER","width":)";
  const std::string opts =
      R"({"library":"LSI_LGC15","spec":{"kind":"ADDER","width":4},)"
      R"("options":{"max_alternatives_per_node":)";
  const std::string net =
      R"({"library":"LSI_LGC15","netlist":{"name":"n","ports":[)"
      R"({"name":"A","dir":"in","width":)";
  const struct {
    std::string text;
    const char* field;
  } bad[] = {
      {spec + "4294967297}}", "width"},
      {spec + "-4294967297}}", "width"},
      {spec + "1e300}}", "width"},
      {spec + "2.5}}", "width"},
      {R"({"library":"LSI_LGC15","spec":{"kind":"MUX","width":4,"size":)"
       "4294967298}}",
       "size"},
      {opts + "4294967297}}", "max_alternatives_per_node"},
      {opts + "-3}}", "max_alternatives_per_node"},
      {opts + "0}}", "max_alternatives_per_node"},
      {net + "4294967297}]}}", "width"},
      {R"({"library":"LSI_LGC15","netlist":{"name":"n","nets":[)"
       R"({"name":"w","width":1e300}]}})",
       "width"},
      {R"({"library":"LSI_LGC15","netlist":{"name":"n","ports":[)"
       R"({"name":"A","dir":"in","width":4}],"instances":[{"name":"g",)"
       R"("spec":{"kind":"ADDER","width":4},"conns":[)"
       R"({"port":"A","net":"A","lo":4294967296}]}]}})",
       "lo"},
  };
  for (const auto& [text, field] : bad) {
    SCOPED_TRACE(text);
    try {
      api::SynthesisRequest::from_json(text);
      ADD_FAILURE() << "accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + field + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(api::SynthesisRequest::from_json(opts + "1}}")
                .options.max_alternatives_per_node,
            1);
  EXPECT_EQ(api::SynthesisRequest::from_json(spec + "2147483647}}").spec->width,
            2147483647);
  // A request built in process is held to the same floor.
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(4);
  req.options.max_alternatives_per_node = 0;
  auto registry = cells::LibraryRegistry::with_builtins();
  const api::SynthesisResult res = api::run_request(req, registry);
  EXPECT_EQ(res.status, "error");
  EXPECT_NE(res.error.find("max_alternatives_per_node"), std::string::npos)
      << res.error;
}

TEST(ApiRequestTest, IntegerOutsideLongRangeIsOutOfRange) {
  // The range check comes before the conversion: converting 1e300 to long
  // is undefined behavior (UBSan float-cast-overflow).
  for (double v : {1e300, -1e300, 9223372036854775808.0}) {
    try {
      (void)Json(v).integer();
      ADD_FAILURE() << v << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(Json(-9223372036854775808.0).integer(),
            std::numeric_limits<long>::min());
  try {
    (void)Json(2.5).integer();
    ADD_FAILURE() << "2.5 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not an integer"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(api::SynthesisRequest::from_json(
                   R"({"library":"LSI_LGC15","spec":{"kind":"ADDER"},)"
                   R"("options":{"deadline_ms":1e300}})"),
               Error);
}

TEST(ApiRequestTest, RetiredToggleKeysAreIgnored) {
  // Requests from clients that still send the five retired evaluator /
  // cache toggles (all output-invariant by contract) or the two retired
  // process-wide knobs (trace_path, template_cache_budget_bytes) decode
  // to the same options and session fingerprint, and run to a
  // byte-identical result.
  const std::string plain =
      R"({"library":"LSI_LGC15","spec":{"kind":"ADDER","width":16},)"
      R"("options":{"emit_vhdl":true}})";
  const std::string retired =
      R"({"library":"LSI_LGC15","spec":{"kind":"ADDER","width":16},)"
      R"("options":{"emit_vhdl":true,"use_compiled_plan":false,)"
      R"("node_parallel":false,"delta_cache_keys":false,)"
      R"("use_template_cache":false,"use_extraction_cache":false,)"
      R"("trace_path":"retired_trace.json",)"
      R"("template_cache_budget_bytes":1}})";
  const api::SynthesisRequest a = api::SynthesisRequest::from_json(plain);
  const api::SynthesisRequest b = api::SynthesisRequest::from_json(retired);
  EXPECT_EQ(a.options, b.options);
  EXPECT_EQ(a.options.fingerprint(), b.options.fingerprint());
  EXPECT_EQ(a.to_json(), b.to_json());
  for (const char* key :
       {"use_compiled_plan", "node_parallel", "delta_cache_keys",
        "use_template_cache", "use_extraction_cache", "trace_path",
        "template_cache_budget_bytes"}) {
    EXPECT_EQ(b.to_json().find(key), std::string::npos)
        << "encode() still emits " << key;
  }
  auto registry = cells::LibraryRegistry::with_builtins();
  api::run_request(a, registry);  // warm the process-wide template cache
  const api::SynthesisResult ra = api::run_request(a, registry);
  const api::SynthesisResult rb = api::run_request(b, registry);
  ASSERT_TRUE(ra.ok()) << ra.error;
  EXPECT_EQ(ra.to_json(), rb.to_json());
}

TEST(ApiRunTest, RequestMatchesDirectSynthesis) {
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_alu_spec(16, genus::alu16_ops());
  req.options.emit_vhdl = true;
  auto registry = cells::LibraryRegistry::with_builtins();
  const api::SynthesisResult res = api::run_request(req, registry);
  ASSERT_TRUE(res.ok()) << res.error;
  ASSERT_FALSE(res.alternatives.empty());

  dtas::Synthesizer direct(cells::lsi_library());
  const auto alts = direct.synthesize(*req.spec);
  EXPECT_TRUE(api::front_matches(res, alts, /*with_vhdl=*/true));
}

TEST(ApiRunTest, NetlistRequestMatchesDirectSynthesis) {
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.input_netlist = make_adder_mux8();
  auto registry = cells::LibraryRegistry::with_builtins();
  // Through the wire form: encode -> decode -> run.
  const api::SynthesisResult res =
      api::run_request(api::SynthesisRequest::from_json(req.to_json()),
                       registry);
  ASSERT_TRUE(res.ok()) << res.error;

  dtas::Synthesizer direct(cells::lsi_library());
  const auto alts = direct.synthesize_netlist(*req.input_netlist);
  EXPECT_TRUE(api::front_matches(res, alts, /*with_vhdl=*/false));
}

TEST(ApiRunTest, UnknownLibraryIsErrorResult) {
  api::SynthesisRequest req;
  req.library = "NO_SUCH_BOOK";
  req.spec = genus::make_adder_spec(4);
  auto registry = cells::LibraryRegistry::with_builtins();
  const api::SynthesisResult res = api::run_request(req, registry);
  EXPECT_EQ(res.status, "error");
  // The error lists the known names, like LibraryRegistry::at.
  EXPECT_NE(res.error.find("NO_SUCH_BOOK"), std::string::npos);
}

TEST(ApiPrecedenceTest, ExplicitBudgetFieldOverridesEnvDefault) {
  // The consolidation contract: BRIDGE_CACHE_BUDGET is the documented
  // default for an unset (-1) budget field; an explicit field wins.
  ASSERT_EQ(setenv("BRIDGE_CACHE_BUDGET", "1234", 1), 0);
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(4);

  auto env_default = api::make_session(req, cells::lsi_library());
  EXPECT_EQ(env_default->extraction_cache().budget_bytes(), 1234u);

  req.options.extraction_cache_budget_bytes = 777;
  auto explicit_field = api::make_session(req, cells::lsi_library());
  EXPECT_EQ(explicit_field->extraction_cache().budget_bytes(), 777u);

  // 0 is also explicit: unbounded, not "use the env".
  req.options.extraction_cache_budget_bytes = 0;
  auto unbounded = api::make_session(req, cells::lsi_library());
  EXPECT_EQ(unbounded->extraction_cache().budget_bytes(), 0u);
  ASSERT_EQ(unsetenv("BRIDGE_CACHE_BUDGET"), 0);
}

TEST(ApiSessionTest, FingerprintSeparatesSpaceShapingOptionsOnly) {
  api::RequestOptions a;
  api::RequestOptions b;
  // Deadline and output switches do not shape the memoized space: one
  // warm session serves all of these.
  b.deadline_ms = 100;
  b.deadline_best_effort = true;
  b.emit_vhdl = true;
  b.include_profile = true;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.max_alternatives_per_node = 7;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ApiSessionTest, DescribeMemoIsEncapsulated) {
  // The describe memo is reachable only through the narrow accessors
  // (the old describe_memo() handed out the mutable map).
  dtas::Synthesizer synth(cells::lsi_library());
  ASSERT_FALSE(synth.synthesize(genus::make_adder_spec(8)).empty());
  dtas::ExtractionCache& cache = synth.extraction_cache();
  EXPECT_GT(cache.describe_memo_size(), 0u);
  const dtas::ExtractionCache::DescribeKey absent{0, -1, -1};
  EXPECT_EQ(cache.find_describe(absent), nullptr);
  const std::string& stored = cache.memoize_describe(absent, "first");
  EXPECT_EQ(stored, "first");
  // First writer wins; the memo cannot be mutated from outside.
  EXPECT_EQ(cache.memoize_describe(absent, "second"), "first");
  ASSERT_NE(cache.find_describe(absent), nullptr);
  EXPECT_EQ(*cache.find_describe(absent), "first");
}

}  // namespace
}  // namespace bridge
