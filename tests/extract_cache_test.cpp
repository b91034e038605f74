// Extraction-side caching and the extraction-path contracts.
//
// The extraction cache must be transparent: copy-per-design extraction
// (oracle::extract_copies — every AlternativeDesign owns a private copy of
// every module, the original path) and production extraction (each
// distinct (SpecNode, alternative) subtree materialized once and shared
// across the front) must produce byte-identical descriptions and
// byte-identical structural VHDL, against every registry library, for
// single-spec and whole-netlist synthesis alike. The production front
// must actually *share* storage: the same netlist::Module address
// appearing in several alternatives' designs. The remaining tests pin the
// extraction contracts this PR fixed: session-unique module naming under
// sanitized-key collisions, the no-silently-floating-input rule in
// instance binding, and VHDL-legal identifiers from digit-leading names.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/diag.h"
#include "base/strutil.h"
#include "cells/registry.h"
#include "dtas/design_space.h"
#include "dtas/synthesizer.h"
#include "genus/spec.h"
#include "netlist/netlist.h"
#include "oracle/oracle.h"
#include "vhdl/vhdl.h"

namespace bridge {
namespace {

using dtas::AlternativeDesign;
using dtas::ExtractionCache;
using dtas::SpecNode;
using genus::ComponentSpec;
using genus::Op;
using genus::OpSet;
using netlist::Module;

/// All three registry libraries: both built-ins plus the bundled Liberty
/// import.
const cells::LibraryRegistry& registry() {
  static cells::LibraryRegistry reg = [] {
    auto r = cells::LibraryRegistry::with_builtins();
    r.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                        "/sample_sky130_subset.lib");
    return r;
  }();
  return reg;
}

/// Production expansion and evaluation of `spec`, extracted
/// copy-per-design with the session's name table.
std::vector<AlternativeDesign> synthesize_copies(dtas::Synthesizer& synth,
                                                 const ComponentSpec& spec) {
  SpecNode* node = synth.space().expand(spec);
  synth.space().evaluate(node);
  return oracle::extract_copies(synth.extraction_cache(), node);
}

struct FrontRecord {
  std::vector<double> areas, delays;
  std::vector<std::string> descriptions;
  std::vector<std::string> vhdl;
};

FrontRecord record_front(const std::vector<AlternativeDesign>& alts) {
  FrontRecord rec;
  for (const auto& a : alts) {
    rec.areas.push_back(a.metric.area);
    rec.delays.push_back(a.metric.delay);
    rec.descriptions.push_back(a.description);
    rec.vhdl.push_back(vhdl::emit_structural(*a.design));
  }
  return rec;
}

void expect_identical(const FrontRecord& off, const FrontRecord& on,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(off.areas, on.areas);    // exact double equality
  EXPECT_EQ(off.delays, on.delays);  // exact double equality
  EXPECT_EQ(off.descriptions, on.descriptions);
  EXPECT_EQ(off.vhdl, on.vhdl);
}

/// The 8-bit two-instance datapath used for netlist-level equivalence.
Module make_input_netlist() {
  Module input("dp8");
  netlist::NetIndex a = input.add_port("A", genus::PortDir::kIn, 8);
  netlist::NetIndex b = input.add_port("B", genus::PortDir::kIn, 8);
  netlist::NetIndex sel = input.add_port("SEL", genus::PortDir::kIn, 1);
  netlist::NetIndex out = input.add_port("OUT", genus::PortDir::kOut, 8);
  netlist::NetIndex sum = input.add_net("sum", 8);
  auto& add = input.add_spec_instance(
      "add0", genus::make_adder_spec(8, /*carry_in=*/false,
                                     /*carry_out=*/false));
  input.connect(add, "A", a);
  input.connect(add, "B", b);
  input.connect(add, "S", sum);
  auto& mux = input.add_spec_instance("mux0", genus::make_mux_spec(8, 2));
  input.connect(mux, "I0", a);
  input.connect(mux, "I1", sum);
  input.connect(mux, "SEL", sel);
  input.connect(mux, "OUT", out);
  return input;
}

TEST(ExtractCacheTest, CacheOnOffByteIdenticalAcrossLibraries) {
  const std::vector<ComponentSpec> specs = {
      genus::make_alu_spec(16, genus::alu16_ops()),
      genus::make_adder_spec(32),
      genus::make_mux_spec(8, 4),
  };
  for (const cells::CellLibrary* lib : registry().all()) {
    for (const ComponentSpec& spec : specs) {
      SCOPED_TRACE(lib->name() + " / " + spec.key());
      dtas::Synthesizer off(*lib);
      dtas::Synthesizer on(*lib);
      const FrontRecord off_rec = record_front(synthesize_copies(off, spec));
      const FrontRecord cold_rec = record_front(on.synthesize(spec));
      // A second synthesize on the same Synthesizer extracts on a warm
      // cache (every module already materialized).
      const FrontRecord warm_rec = record_front(on.synthesize(spec));
      expect_identical(off_rec, cold_rec, "cold cache");
      expect_identical(off_rec, warm_rec, "warm cache");

      // Off never touches the cache; on materializes each distinct
      // subtree exactly once — the warm pass adds no misses.
      EXPECT_EQ(off.extraction_cache().stats().hits, 0);
      EXPECT_EQ(off.extraction_cache().stats().misses, 0);
      const auto& stats = on.extraction_cache().stats();
      EXPECT_GT(stats.misses, 0);
      EXPECT_GT(stats.hits, 0);
      EXPECT_EQ(static_cast<std::size_t>(stats.misses),
                on.extraction_cache().size())
          << "every miss publishes exactly one module";
    }
  }
}

TEST(ExtractCacheTest, NetlistSynthesisByteIdenticalAndShared) {
  const Module input = make_input_netlist();
  ASSERT_TRUE(netlist::check_module(input).empty());
  for (const cells::CellLibrary* lib : registry().all()) {
    SCOPED_TRACE(lib->name());
    dtas::Synthesizer off(*lib);
    dtas::Synthesizer on(*lib);
    const auto off_alts = oracle::reference_synthesize_netlist(off, input);
    const auto on_alts = on.synthesize_netlist(input);
    expect_identical(record_front(off_alts), record_front(on_alts),
                     "netlist front");
  }
}

TEST(ExtractCacheTest, AlternativesShareModuleStorage) {
  // The alternatives of one front overlap heavily in their subtrees; with
  // the cache on, an overlapping subtree is the *same* Module object in
  // every design that contains it.
  dtas::Synthesizer synth(cells::lsi_library());
  const auto alts =
      synth.synthesize(genus::make_alu_spec(16, genus::alu16_ops()));
  ASSERT_GE(alts.size(), 2u);
  std::map<const Module*, int> appearances;
  for (const auto& a : alts) {
    for (const Module* m : a.design->module_order()) ++appearances[m];
  }
  int shared_modules = 0;
  for (const auto& [mod, count] : appearances) {
    (void)mod;
    if (count > 1) ++shared_modules;
  }
  EXPECT_GT(shared_modules, 0)
      << "no module address is shared across alternatives";

  // The reference path must NOT share: every design owns its copies.
  dtas::Synthesizer ref(cells::lsi_library());
  const auto ref_alts =
      synthesize_copies(ref, genus::make_alu_spec(16, genus::alu16_ops()));
  std::set<const Module*> seen;
  for (const auto& a : ref_alts) {
    for (const Module* m : a.design->module_order()) {
      EXPECT_TRUE(seen.insert(m).second)
          << "copy-per-design oracle shares module storage";
    }
  }
}

TEST(ExtractCacheTest, WarmSynthesisReusesEarlierModules) {
  dtas::Synthesizer synth(cells::lsi_library());
  const ComponentSpec spec = genus::make_adder_spec(32);
  const auto first = synth.synthesize(spec);
  const long misses_after_first = synth.extraction_cache().stats().misses;
  const auto second = synth.synthesize(spec);
  EXPECT_EQ(synth.extraction_cache().stats().misses, misses_after_first)
      << "warm extraction must not materialize any new module";
  // The two fronts reference the same shared modules.
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].design->module_order(),
              second[i].design->module_order());
  }
}

TEST(ExtractCacheTest, EmissionCacheRendersEachModuleOnce) {
  dtas::Synthesizer synth(cells::lsi_library());
  const auto alts =
      synth.synthesize(genus::make_alu_spec(16, genus::alu16_ops()));
  ASSERT_GE(alts.size(), 2u);
  vhdl::EmissionCache cache;
  std::size_t total_module_refs = 0;
  for (const auto& a : alts) {
    EXPECT_EQ(vhdl::emit_structural(*a.design, cache),
              vhdl::emit_structural(*a.design))
        << "cached emission must be byte-identical to direct emission";
    total_module_refs += a.design->module_order().size();
  }
  EXPECT_LT(cache.size(), total_module_refs)
      << "the front shares modules, so the cache must render fewer "
         "modules than the designs reference in total";
}

TEST(ExtractCacheTest, CollidingSanitizedNamesGetUniquified) {
  // Two distinct SpecNodes whose spec keys sanitize to the same identifier
  // (and share an alt index) used to collide in Design::add_module; the
  // session name table must keep them apart.
  ExtractionCache cache;
  SpecNode a, b;
  a.spec = genus::make_adder_spec(8);
  b.spec = a.spec;  // same key, distinct content — the worst case
  // Hand-built nodes never went through expand(); give them the distinct
  // content fingerprints expansion would have (same spec against two
  // different library slices), which is exactly the colliding-name case.
  a.slice_fp = 0x1111;
  b.slice_fp = 0x2222;
  const std::string na = cache.name_for(&a, 0);
  const std::string nb = cache.name_for(&b, 0);
  EXPECT_NE(na, nb);
  // Memoized: asking again returns the same name, no further uniquifier.
  EXPECT_EQ(cache.name_for(&a, 0), na);
  EXPECT_EQ(cache.name_for(&b, 0), nb);
  // Different alt indices never collide to begin with.
  EXPECT_NE(cache.name_for(&a, 1), na);
  // Session names are VHDL-legal verbatim: emission's sanitizer is the
  // identity on them, so raw-name uniqueness IS emitted-entity
  // uniqueness.
  for (const std::string& n : {na, nb, cache.name_for(&a, 1)}) {
    EXPECT_EQ(sanitize_identifier(n), n);
  }
}

TEST(ExtractCacheTest, UniqueNameSuffixesAndReRequests) {
  ExtractionCache cache;
  EXPECT_EQ(cache.unique_name("X_a0"), "X_a0");
  EXPECT_EQ(cache.unique_name("X_a0"), "X_a0_u1");
  EXPECT_EQ(cache.unique_name("X_a0"), "X_a0_u2");
  // A literal name equal to an already-granted uniquified name must not
  // collide either.
  EXPECT_EQ(cache.unique_name("X_a0_u1"), "X_a0_u1_u1");
}

TEST(ExtractCacheTest, StrippedTemplateConnectionThrows) {
  // An input-netlist instance that leaves a matched *input* port
  // unconnected used to produce a silently floating cell input; binding
  // must refuse instead. (Matched outputs may stay open.)
  Module input("gated");
  netlist::NetIndex a = input.add_port("A", genus::PortDir::kIn, 1);
  netlist::NetIndex out = input.add_port("OUT", genus::PortDir::kOut, 1);
  auto& g = input.add_spec_instance("g0", genus::make_gate_spec(Op::kAnd, 1));
  input.connect(g, "I0", a);
  // I1 deliberately left unconnected.
  input.connect(g, "OUT", out);
  dtas::Synthesizer synth(cells::lsi_library());
  EXPECT_THROW(synth.synthesize_netlist(input), Error);
  dtas::Synthesizer copies(cells::lsi_library());
  EXPECT_THROW(oracle::reference_synthesize_netlist(copies, input), Error)
      << "the copy-per-design oracle must refuse too";
}

TEST(ExtractCacheTest, DigitLeadingNetlistNameEmitsLegalVhdl) {
  // A netlist (or spec key) whose name starts with a digit must still
  // yield VHDL-legal identifiers end to end — the same well-formedness
  // bar the existing VHDL golden checks apply.
  Module renamed("9dp8");
  // Rebuild under a digit-leading name (Module names are ctor-only).
  {
    netlist::NetIndex a = renamed.add_port("A", genus::PortDir::kIn, 8);
    netlist::NetIndex b = renamed.add_port("B", genus::PortDir::kIn, 8);
    netlist::NetIndex s = renamed.add_net("sum", 8);
    auto& add = renamed.add_spec_instance(
        "add0", genus::make_adder_spec(8, false, false));
    renamed.connect(add, "A", a);
    renamed.connect(add, "B", b);
    renamed.connect(add, "S", s);
    netlist::NetIndex out = renamed.add_port("OUT", genus::PortDir::kOut, 8);
    auto& buf = renamed.add_spec_instance(
        "buf0", genus::make_gate_spec(Op::kBuf, 8));
    renamed.connect(buf, "I0", s);
    renamed.connect(buf, "OUT", out);
  }
  ASSERT_TRUE(netlist::check_module(renamed).empty());
  dtas::Synthesizer synth(cells::lsi_library());
  const auto alts = synth.synthesize_netlist(renamed);
  ASSERT_FALSE(alts.empty());
  const std::string text = vhdl::emit_structural(*alts.front().design);
  EXPECT_NE(text.find("entity u_9dp8"), std::string::npos)
      << "digit-leading module name must gain the u_ prefix";
  EXPECT_EQ(text.find("entity 9"), std::string::npos);
  // Every 'entity' has a matching 'end entity' (the golden check from
  // sim_vhdl_dag_test), and no identifier contains "__" or a trailing
  // '_' before a token boundary.
  size_t entities = 0, ends = 0;
  for (size_t p = text.find("entity "); p != std::string::npos;
       p = text.find("entity ", p + 1)) {
    ++entities;
  }
  for (size_t p = text.find("end entity "); p != std::string::npos;
       p = text.find("end entity ", p + 1)) {
    ++ends;
  }
  EXPECT_EQ(entities, ends * 2);  // "entity X" appears in decl + end line
  // Past the design-name comment (raw, not an identifier), no identifier
  // may contain consecutive underscores.
  const std::string body = text.substr(text.find('\n') + 1);
  EXPECT_EQ(body.find("__"), std::string::npos)
      << "VHDL forbids consecutive underscores in identifiers";
}

}  // namespace
}  // namespace bridge
