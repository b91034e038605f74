// Delta-aware cache identities: content fingerprints for specs, cells,
// and libraries; the fingerprint-keyed TemplateCache / ExtractionCache;
// and Synthesizer::retarget's warm-reuse contract.
//
// The invariants pinned here (see design_space.h / synthesizer.h):
//  - CellLibrary::fingerprint is a pure function of cell *content* —
//    stable across declaration order, registration name, and load path
//    (Liberty file vs in-memory construction); sensitive to any cell or
//    timing-parameter edit.
//  - TemplateCache keys carry the expanding rule's slice fingerprint, so
//    two same-named rules with different behavior can never serve each
//    other's compiled templates (the cross-library soundness regression).
//  - Retargeting a Synthesizer back to content-identical library state
//    re-extracts nothing (extraction-cache misses stay flat) and
//    reproduces the original front byte-for-byte.
//  - Fronts, descriptions, and VHDL from the content-keyed caches are
//    byte-identical to the oracle's (reference evaluation, copy-per-design
//    extraction), across all three registry libraries and at thread
//    counts 1 and 8.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/fileio.h"
#include "base/fingerprint.h"
#include "cells/cell.h"
#include "cells/registry.h"
#include "dtas/synthesizer.h"
#include "genus/spec.h"
#include "liberty/liberty.h"
#include "oracle/oracle.h"
#include "vhdl/vhdl.h"

namespace bridge {
namespace {

using cells::Cell;
using cells::CellLibrary;
using genus::ComponentSpec;

const std::string kSkyPath =
    std::string(BRIDGE_LIBS_DIR) + "/sample_sky130_subset.lib";

/// All three registry libraries: both built-ins plus the Liberty import.
const cells::LibraryRegistry& registry() {
  static cells::LibraryRegistry reg = [] {
    auto r = cells::LibraryRegistry::with_builtins();
    r.load_liberty_file(kSkyPath);
    return r;
  }();
  return reg;
}

std::string vhdl_of(const std::vector<dtas::AlternativeDesign>& front) {
  vhdl::EmissionCache ec;
  std::string out;
  for (const auto& a : front) out += vhdl::emit_structural(*a.design, ec);
  return out;
}

void expect_identical(const std::vector<dtas::AlternativeDesign>& a,
                      const std::vector<dtas::AlternativeDesign>& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metric.area, b[i].metric.area) << context << " alt " << i;
    EXPECT_EQ(a[i].metric.delay, b[i].metric.delay)
        << context << " alt " << i;
    EXPECT_EQ(a[i].description, b[i].description) << context << " alt " << i;
  }
  EXPECT_EQ(vhdl_of(a), vhdl_of(b)) << context << " (emitted VHDL)";
}

// --- spec / cell fingerprints ---------------------------------------------

TEST(SpecFingerprint, StableAndFieldSensitive) {
  const ComponentSpec a8 = genus::make_adder_spec(8);
  EXPECT_EQ(genus::spec_fingerprint(a8),
            genus::spec_fingerprint(genus::make_adder_spec(8)));
  EXPECT_NE(genus::spec_fingerprint(a8),
            genus::spec_fingerprint(genus::make_adder_spec(16)));
  EXPECT_NE(genus::spec_fingerprint(a8),
            genus::spec_fingerprint(genus::make_subtractor_spec(8)));
  ComponentSpec ci = a8;
  ci.carry_in = !ci.carry_in;
  EXPECT_NE(genus::spec_fingerprint(a8), genus::spec_fingerprint(ci));
}

TEST(CellFingerprint, CoversNameSpecAndTiming) {
  Cell c;
  c.name = "ADD4";
  c.spec = genus::make_adder_spec(4);
  c.area = 18.0;
  c.delay_ns = 5.2;
  const std::uint64_t base = cells::cell_fingerprint(c);
  EXPECT_EQ(cells::cell_fingerprint(c), base);  // deterministic

  Cell renamed = c;
  renamed.name = "ADD4B";
  EXPECT_NE(cells::cell_fingerprint(renamed), base)
      << "the part name appears in emitted VHDL, so it is content";
  Cell slower = c;
  slower.delay_ns = 5.3;
  EXPECT_NE(cells::cell_fingerprint(slower), base);
  Cell bigger = c;
  bigger.area = 18.5;
  EXPECT_NE(cells::cell_fingerprint(bigger), base);
  Cell documented = c;
  documented.description = "a fine adder";
  EXPECT_EQ(cells::cell_fingerprint(documented), base)
      << "descriptions are documentation, not content";
}

// --- library fingerprints -------------------------------------------------

TEST(LibraryFingerprint, OrderAndNameIndependent) {
  const CellLibrary& lsi = cells::lsi_library();
  ASSERT_GE(lsi.size(), 2);

  // Same cells, reversed insertion order, different registry name.
  CellLibrary reversed("SOMETHING_ELSE", "other description");
  for (auto it = lsi.all().rbegin(); it != lsi.all().rend(); ++it) {
    reversed.add(*it);
  }
  EXPECT_EQ(reversed.fingerprint(), lsi.fingerprint());

  // A verbatim copy fingerprints identically too.
  const CellLibrary copy = lsi;
  EXPECT_EQ(copy.fingerprint(), lsi.fingerprint());
}

TEST(LibraryFingerprint, SensitiveToAnyContentEdit) {
  const CellLibrary& lsi = cells::lsi_library();

  // Dropping one cell changes it.
  CellLibrary shorter("X");
  for (const Cell& c : lsi.all()) {
    if (static_cast<int>(shorter.size()) + 1 == lsi.size()) break;
    shorter.add(c);
  }
  EXPECT_NE(shorter.fingerprint(), lsi.fingerprint());

  // A one-ulp-scale timing edit on a single cell changes it.
  CellLibrary edited("X");
  bool touched = false;
  for (const Cell& c : lsi.all()) {
    Cell cc = c;
    if (!touched) {
      cc.delay_ns += 0.01;
      touched = true;
    }
    edited.add(cc);
  }
  ASSERT_TRUE(touched);
  EXPECT_NE(edited.fingerprint(), lsi.fingerprint());

  // A rename of one cell changes it.
  CellLibrary renamed("X");
  touched = false;
  for (const Cell& c : lsi.all()) {
    Cell cc = c;
    if (!touched) {
      cc.name += "_v2";
      touched = true;
    }
    renamed.add(cc);
  }
  EXPECT_NE(renamed.fingerprint(), lsi.fingerprint());
}

TEST(LibraryFingerprint, LoadPathIndependent) {
  // The same Liberty content through the file loader and the in-memory
  // loader (and loaded twice) fingerprints identically.
  const CellLibrary from_file = liberty::load_liberty_file(kSkyPath);
  const CellLibrary in_memory =
      liberty::load_liberty(read_text_file(kSkyPath, "liberty"));
  EXPECT_EQ(from_file.fingerprint(), in_memory.fingerprint());
  EXPECT_EQ(from_file.fingerprint(),
            liberty::load_liberty_file(kSkyPath).fingerprint());
  EXPECT_NE(from_file.fingerprint(), cells::lsi_library().fingerprint());
  EXPECT_NE(from_file.fingerprint(), 0u);
}

TEST(LibraryFingerprint, DistinctAcrossRegistryLibraries) {
  std::vector<std::uint64_t> fps;
  for (const CellLibrary* lib : registry().all()) {
    fps.push_back(lib->fingerprint());
  }
  ASSERT_EQ(fps.size(), 3u);
  EXPECT_NE(fps[0], fps[1]);
  EXPECT_NE(fps[0], fps[2]);
  EXPECT_NE(fps[1], fps[2]);
}

// --- registry replace -----------------------------------------------------

TEST(RegistryReplace, RepointsNameKeepsOldReferencesAlive) {
  auto reg = cells::LibraryRegistry::with_builtins();
  const CellLibrary& original = reg.at("TTL74");
  const std::uint64_t original_fp = original.fingerprint();

  // Content-identical reload: new instance, same fingerprint.
  const CellLibrary& reloaded = reg.replace(cells::ttl_library());
  EXPECT_NE(&reloaded, &original);
  EXPECT_EQ(&reg.at("TTL74"), &reloaded);
  EXPECT_EQ(reloaded.fingerprint(), original_fp);
  // The superseded instance is still alive and readable.
  EXPECT_EQ(original.fingerprint(), original_fp);
  // No duplicate listings; size counts current names only.
  EXPECT_EQ(reg.size(), 2);
  int ttl_listings = 0;
  for (const CellLibrary* lib : reg.all()) {
    if (lib->name() == "TTL74") ++ttl_listings;
  }
  EXPECT_EQ(ttl_listings, 1);

  // Edited reload: same name, different fingerprint.
  CellLibrary edited = cells::ttl_library();
  Cell extra;
  extra.name = "XTRA1";
  extra.spec = genus::make_gate_spec(genus::Op::kAnd, 1, 2);
  extra.area = 1.0;
  extra.delay_ns = 1.0;
  edited.add(extra);
  const CellLibrary& v2 = reg.replace(std::move(edited));
  EXPECT_EQ(&reg.at("TTL74"), &v2);
  EXPECT_NE(v2.fingerprint(), original_fp);
}

// --- template-cache soundness ---------------------------------------------

/// Two same-named LambdaRules whose expansions differ. Before
/// fingerprint-keyed templates, the process-wide cache keyed on
/// (rule name, spec) alone, so whichever rule base expanded first would
/// poison the other's expansions for the life of the process.
dtas::RuleBase rules_with_lambda(bool wide_gate) {
  dtas::RuleBase base = dtas::default_rules_for(cells::lsi_library());
  base.add(std::make_unique<dtas::LambdaRule>(
      "custom_xor_split", "split XOR through private structure",
      /*library_specific=*/true,
      [](const ComponentSpec& spec, const dtas::RuleContext&) {
        return spec.kind == genus::Kind::kGate && spec.width == 8 &&
               spec.ops.contains(genus::Op::kXor) && spec.size == 2;
      },
      [wide_gate](const ComponentSpec& spec, const dtas::RuleContext&) {
        // Same rule name, different decomposition: one splits the gate
        // 5/3, the other 6/2 — distinguishable by child widths (both
        // asymmetric so the two children stay distinct specs).
        dtas::TemplateBuilder tb(spec, "custom_xor_split");
        const int hi = wide_gate ? 6 : 5;
        const int lo = spec.width - hi;
        auto& top = tb.add("hi", genus::make_gate_spec(genus::Op::kXor, hi,
                                                       spec.size));
        auto& bot = tb.add("lo", genus::make_gate_spec(genus::Op::kXor, lo,
                                                       spec.size));
        tb.connect(top, "I0", tb.port(base::Symbol("I0")), lo);
        tb.connect(top, "I1", tb.port(base::Symbol("I1")), lo);
        tb.connect(top, "OUT", tb.port(base::Symbol("OUT")), lo);
        tb.connect(bot, "I0", tb.port(base::Symbol("I0")), 0);
        tb.connect(bot, "I1", tb.port(base::Symbol("I1")), 0);
        tb.connect(bot, "OUT", tb.port(base::Symbol("OUT")), 0);
        std::vector<netlist::Module> out;
        out.push_back(std::move(tb).take());
        return out;
      }));
  return base;
}

/// The child widths the custom rule's surviving template decomposed into.
std::vector<int> lambda_child_widths(dtas::DesignSpace& space,
                                     const ComponentSpec& spec) {
  dtas::SpecNode* node = space.expand(spec);
  std::vector<int> widths;
  for (const auto& impl : node->impls) {
    if (impl->rule_name != "custom_xor_split") continue;
    for (const dtas::SpecNode* child : impl->children) {
      widths.push_back(child->spec.width);
    }
  }
  return widths;
}

TEST(TemplateCacheSoundness, SameNamedRulesNeverShareTemplates) {
  const ComponentSpec spec =
      genus::make_gate_spec(genus::Op::kXor, 8, 2);
  // Expand under the 4/4-splitting rule base first, then under the
  // 6/2-splitting one. With delta-aware keys each LambdaRule carries a
  // process-unique slice fingerprint, so the second expansion must not
  // see the first's compiled templates.
  dtas::RuleBase a = rules_with_lambda(/*wide_gate=*/false);
  dtas::DesignSpace sa(a, cells::lsi_library());
  const std::vector<int> wa = lambda_child_widths(sa, spec);
  ASSERT_EQ(wa, (std::vector<int>{5, 3}));

  dtas::RuleBase b = rules_with_lambda(/*wide_gate=*/true);
  dtas::DesignSpace sb(b, cells::lsi_library());
  const std::vector<int> wb = lambda_child_widths(sb, spec);
  EXPECT_EQ(wb, (std::vector<int>{6, 2}))
      << "a same-named rule with different behavior was served another "
         "rule's cached templates";
}

TEST(TemplateCacheSoundness, ExplicitFingerprintOptsIntoSharing) {
  // Authors who declare two rule instances behaviorally identical may
  // give them equal explicit fingerprints; distinct explicit fingerprints
  // keep them apart like the default.
  auto applies = [](const ComponentSpec&, const dtas::RuleContext&) {
    return false;
  };
  auto expand = [](const ComponentSpec&, const dtas::RuleContext&) {
    return std::vector<netlist::Module>{};
  };
  dtas::LambdaRule shared_a("r", "p", false, applies, expand,
                            /*cacheable=*/true, /*fingerprint=*/7);
  dtas::LambdaRule shared_b("r", "p", false, applies, expand,
                            /*cacheable=*/true, /*fingerprint=*/7);
  EXPECT_EQ(shared_a.slice_fingerprint(), shared_b.slice_fingerprint());
  dtas::LambdaRule unique_a("r", "p", false, applies, expand);
  dtas::LambdaRule unique_b("r", "p", false, applies, expand);
  EXPECT_NE(unique_a.slice_fingerprint(), unique_b.slice_fingerprint());
  EXPECT_NE(unique_a.slice_fingerprint(), 0u)
      << "0 is reserved for rules pure in (name, spec)";
}

// --- retarget warm reuse --------------------------------------------------

TEST(Retarget, ContentIdenticalReturnIsExtractionWarm) {
  const ComponentSpec alu = genus::make_alu_spec(16, genus::alu16_ops());
  dtas::Synthesizer synth(cells::lsi_library());
  const auto first = synth.synthesize(alu);
  ASSERT_FALSE(first.empty());
  const std::string first_vhdl = vhdl_of(first);

  // Swing to a different library (content differs — everything misses),
  // then back to a content-identical copy of the first.
  synth.retarget(cells::ttl_library());
  const auto other = synth.synthesize(alu);
  const CellLibrary lsi_again = cells::lsi_library();  // fresh instance
  ASSERT_EQ(lsi_again.fingerprint(), cells::lsi_library().fingerprint());
  synth.retarget(lsi_again);

  const dtas::ExtractionCache::Stats before =
      synth.extraction_cache().stats();
  const auto third = synth.synthesize(alu);
  const dtas::ExtractionCache::Stats after = synth.extraction_cache().stats();

  expect_identical(third, first, "retarget round-trip front");
  EXPECT_EQ(vhdl_of(third), first_vhdl);
  EXPECT_EQ(after.misses, before.misses)
      << "content-identical retarget must re-materialize nothing";
  EXPECT_GT(after.hits, before.hits)
      << "the warm modules must actually be served";
  // `other` really came from the other library (different content).
  if (!other.empty() && !first.empty()) {
    EXPECT_NE(vhdl_of(other), first_vhdl);
  }
}

// --- content keys against the oracle --------------------------------------

TEST(DeltaKeys, ContentKeyedFrontsMatchOracleAcrossLibrariesAndThreads) {
  const ComponentSpec alu = genus::make_alu_spec(16, genus::alu16_ops());
  for (const CellLibrary* lib : registry().all()) {
    for (const int threads : {1, 8}) {
      dtas::SpaceOptions opt;
      opt.threads = threads;
      dtas::Synthesizer synth(*lib, opt);
      const auto front = synth.synthesize(alu);

      dtas::Synthesizer ref(*lib, opt);
      dtas::SpecNode* node = ref.space().expand(alu);
      oracle::reference_evaluate(ref.space(), node);
      const auto expected =
          oracle::extract_copies(ref.extraction_cache(), node);
      ASSERT_FALSE(expected.empty()) << lib->name();
      expect_identical(front, expected,
                       lib->name() + " threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace bridge
