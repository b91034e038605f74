// Session-scoped emission and lint memos.
//
// dtas::Synthesizer keeps one vhdl::EmissionCache and one lint::Cache for
// its whole life, and api::run_request emits and verifies through them,
// so a warm session renders and lints each shared module once instead of
// once per request. These tests drive warm sessions through run_request
// on all three registry libraries and hold the memos to two oracles:
// every alternative's VHDL equals the cache-less
// vhdl::emit_structural(*design), and every verify diagnostic list equals
// lint_design's through a fresh lint::Cache. The cases: a repeated
// request, a retarget away and back, a byte-budgeted session that evicts
// shared modules and recycles their addresses while churning specs, and
// design-owned tops (synthesize_netlist, leaf-cell alternatives), which
// must never be served from the memo. The churn also bounds both memos:
// expired entries are swept out, so neither grows with the session.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "api/api.h"
#include "cells/registry.h"
#include "datapaths.h"
#include "dtas/synthesizer.h"
#include "genus/spec.h"
#include "lint/lint.h"
#include "netlist/netlist.h"
#include "obs/metrics.h"
#include "vhdl/vhdl.h"

namespace bridge {
namespace {

using dtas::AlternativeDesign;
using genus::ComponentSpec;
using genus::Op;
using genus::PortDir;
using netlist::Module;

// AddressSanitizer quarantines freed blocks, so under it no address is
// reused within a test this size.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsanQuarantine = true;
#elif defined(__has_feature)
constexpr bool kAsanQuarantine = __has_feature(address_sanitizer);
#else
constexpr bool kAsanQuarantine = false;
#endif

const cells::LibraryRegistry& registry() {
  static cells::LibraryRegistry reg = [] {
    auto r = cells::LibraryRegistry::with_builtins();
    r.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                        "/sample_sky130_subset.lib");
    return r;
  }();
  return reg;
}

api::SynthesisRequest spec_request(const cells::CellLibrary& lib,
                                   const ComponentSpec& spec) {
  api::SynthesisRequest req;
  req.library = lib.name();
  req.spec = spec;
  req.options.emit_vhdl = true;
  req.options.verify = true;
  return req;
}

/// A synthesize_netlist request: the designs own their alternative tops.
api::SynthesisRequest netlist_request(const cells::CellLibrary& lib) {
  api::SynthesisRequest req;
  req.library = lib.name();
  req.input_netlist = testutil::make_datapath8();
  req.options.emit_vhdl = true;
  req.options.verify = true;
  return req;
}

std::vector<std::string> rendered(const std::vector<lint::Diagnostic>& ds) {
  std::vector<std::string> out;
  for (const lint::Diagnostic& d : ds) out.push_back(d.to_string());
  return out;
}

bool top_is_owned(const netlist::Design& d) {
  for (const auto& sp : d.shared_modules()) {
    if (sp.get() == d.top()) return false;
  }
  return true;
}

/// Runs `req` on `session` and holds the result to the oracles. The
/// reference front is `req` synthesized again on the same session: that
/// pass only hits the extraction cache, so its designs hold the very
/// shared modules (and session names) the request emitted. Returns the
/// reference front so callers can inspect its modules.
std::vector<AlternativeDesign> run_checked(dtas::Synthesizer& session,
                                           const api::SynthesisRequest& req,
                                           const std::string& context) {
  SCOPED_TRACE(context);
  const api::SynthesisResult res = api::run_request(req, session);
  EXPECT_TRUE(res.ok()) << res.error;
  std::vector<AlternativeDesign> alts =
      req.spec ? session.synthesize(*req.spec)
               : session.synthesize_netlist(*req.input_netlist);
  EXPECT_FALSE(alts.empty());
  EXPECT_TRUE(api::front_matches(res, alts, /*with_vhdl=*/false));
  if (res.alternatives.size() != alts.size()) return alts;
  lint::Cache fresh;
  std::vector<lint::Diagnostic> want;
  for (std::size_t i = 0; i < alts.size(); ++i) {
    EXPECT_EQ(res.alternatives[i].vhdl, vhdl::emit_structural(*alts[i].design))
        << "alternative " << i;
    for (lint::Diagnostic& d : lint::lint_design(*alts[i].design, fresh)) {
      want.push_back(std::move(d));
    }
  }
  EXPECT_EQ(rendered(res.diagnostics), rendered(want));
  return alts;
}

long registry_counter(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

TEST(EmissionCacheTest, RepeatedWarmRequestRendersNothing) {
  for (const cells::CellLibrary* lib : registry().all()) {
    SCOPED_TRACE(lib->name());
    dtas::Synthesizer session(*lib);
    const api::SynthesisRequest req =
        spec_request(*lib, genus::make_alu_spec(16, genus::alu16_ops()));
    run_checked(session, req, "cold");
    const vhdl::EmissionCache::Stats cold = session.emission_cache().stats();
    EXPECT_GT(cold.misses, 0);
    const std::size_t linted = session.lint_cache().size();
    EXPECT_GT(linted, 0u);

    const long hits0 = registry_counter("vhdl.emission_cache.hits");
    const long misses0 = registry_counter("vhdl.emission_cache.misses");
    const api::SynthesisResult warm = api::run_request(req, session);
    ASSERT_TRUE(warm.ok()) << warm.error;
    const vhdl::EmissionCache::Stats& now = session.emission_cache().stats();
    EXPECT_EQ(now.misses, cold.misses) << "a warm request rendered a module";
    EXPECT_GT(now.hits, cold.hits);
    EXPECT_EQ(now.bytes, cold.bytes);
    EXPECT_EQ(registry_counter("vhdl.emission_cache.misses") - misses0, 0);
    EXPECT_EQ(registry_counter("vhdl.emission_cache.hits") - hits0,
              now.hits - cold.hits);
    EXPECT_EQ(session.lint_cache().size(), linted);
    run_checked(session, req, "warm");
  }
}

TEST(EmissionCacheTest, RetargetAwayAndBackStaysWarm) {
  const std::vector<const cells::CellLibrary*> libs = registry().all();
  ASSERT_EQ(libs.size(), 3u);
  const std::vector<ComponentSpec> specs = {
      genus::make_alu_spec(8, genus::alu16_ops()),
      genus::make_adder_spec(4),
      genus::make_mux_spec(8, 4),
  };
  dtas::Synthesizer session(*libs[0]);
  for (const ComponentSpec& spec : specs) {
    run_checked(session, spec_request(*libs[0], spec), "first visit");
  }
  const long misses_home = session.emission_cache().stats().misses;
  for (const cells::CellLibrary* away : {libs[1], libs[2]}) {
    session.retarget(*away);
    for (const ComponentSpec& spec : specs) {
      run_checked(session, spec_request(*away, spec), "away: " + away->name());
    }
  }
  EXPECT_GT(session.emission_cache().stats().misses, misses_home);
  session.retarget(*libs[0]);
  const long misses_away = session.emission_cache().stats().misses;
  for (const ComponentSpec& spec : specs) {
    run_checked(session, spec_request(*libs[0], spec), "back home");
  }
  // Content-keyed extraction modules survive the retarget, and so do
  // their memoized texts.
  EXPECT_EQ(session.emission_cache().stats().misses, misses_away);
}

TEST(EmissionCacheTest, BudgetChurnRecyclesAddressesAndBoundsTheMemos) {
  std::vector<ComponentSpec> specs;
  for (int w : {4, 6, 8, 12, 16}) {
    specs.push_back(genus::make_alu_spec(w, genus::alu16_ops()));
    specs.push_back(genus::make_adder_spec(w));
    specs.push_back(genus::make_addsub_spec(w));
    specs.push_back(genus::make_mux_spec(w, 4));
    specs.push_back(genus::make_gate_spec(Op::kXor, w, 2));
  }
  ASSERT_GE(specs.size(), 20u);
  // A budget this small keeps only a handful of modules resident.
  const auto churn_request = [](const cells::CellLibrary& lib,
                                const ComponentSpec& spec) {
    api::SynthesisRequest req = spec_request(lib, spec);
    req.options.extraction_cache_budget_bytes = 16 * 1024;
    return req;
  };
  // Below this many entries a memo is never swept.
  constexpr std::size_t kSlack = 64;
  for (const cells::CellLibrary* lib : registry().all()) {
    SCOPED_TRACE(lib->name());
    const std::unique_ptr<dtas::Synthesizer> owned =
        api::make_session(churn_request(*lib, specs.front()), *lib);
    dtas::Synthesizer& session = *owned;
    std::map<const Module*, std::string> occupant;  // address -> last name
    int recycled = 0;
    // Two passes: the second revisits specs whose modules were evicted.
    for (int pass = 0; pass < 2; ++pass) {
      for (const ComponentSpec& spec : specs) {
        {
          const std::vector<AlternativeDesign> alts =
              run_checked(session, churn_request(*lib, spec), spec.key());
          for (const AlternativeDesign& a : alts) {
            for (const auto& sp : a.design->shared_modules()) {
              auto [it, fresh] = occupant.try_emplace(sp.get(), sp->name());
              if (!fresh && it->second != sp->name()) {
                ++recycled;
                it->second = sp->name();
              }
            }
          }
        }
        // The request's designs are gone: the live shared modules are
        // exactly the extraction cache's residents.
        const std::size_t live = session.extraction_cache().size();
        EXPECT_LE(session.emission_cache().size(), 2 * live + kSlack)
            << spec.key();
        EXPECT_LE(session.lint_cache().size(), 2 * live + kSlack)
            << spec.key();
      }
    }
    EXPECT_GT(session.extraction_cache().stats().evictions, 0);
    // The session rendered far more modules than the bound admits, so
    // only sweeping kept the memo within it.
    EXPECT_GT(static_cast<std::size_t>(session.emission_cache().stats().misses),
              2 * session.extraction_cache().size() + kSlack);
    if (!kAsanQuarantine) {
      EXPECT_GT(recycled, 0) << "no shared-module address was reused";
    }
    std::printf("[ churn    ] %s: %d recycled addresses, %ld evictions, "
                "%ld renders, memo %zu / lint %zu entries, %zu resident\n",
                lib->name().c_str(), recycled,
                session.extraction_cache().stats().evictions,
                session.emission_cache().stats().misses,
                session.emission_cache().size(), session.lint_cache().size(),
                session.extraction_cache().size());
  }
}

TEST(EmissionCacheTest, DesignOwnedTopsAreNeverMemoized) {
  for (const cells::CellLibrary* lib : registry().all()) {
    SCOPED_TRACE(lib->name());
    dtas::Synthesizer session(*lib);
    const api::SynthesisRequest req = netlist_request(*lib);
    std::set<const Module*> shared;
    for (const AlternativeDesign& a : run_checked(session, req, "netlist")) {
      EXPECT_TRUE(top_is_owned(*a.design));
      for (const auto& sp : a.design->shared_modules()) shared.insert(sp.get());
    }
    // Only the shared modules were stored; the tops were rendered fresh.
    EXPECT_EQ(session.emission_cache().size(), shared.size());
    EXPECT_EQ(static_cast<std::size_t>(session.emission_cache().stats().misses),
              shared.size());
    run_checked(session, req, "netlist again");
    EXPECT_EQ(session.emission_cache().size(), shared.size());

    // A 1-bit XOR maps straight onto a library cell on every library:
    // each alternative is a design-owned wrapper around one cell.
    const vhdl::EmissionCache::Stats before = session.emission_cache().stats();
    for (const AlternativeDesign& a : run_checked(
             session, spec_request(*lib, genus::make_gate_spec(Op::kXor, 1)),
             "leaf cell")) {
      EXPECT_TRUE(top_is_owned(*a.design));
      EXPECT_TRUE(a.design->shared_modules().empty());
    }
    EXPECT_EQ(session.emission_cache().stats().misses, before.misses);
    EXPECT_EQ(session.emission_cache().stats().hits, before.hits);
    EXPECT_EQ(session.emission_cache().size(), shared.size());
  }
}

TEST(EmissionCacheTest, ExpiredEntryIsRefilledAtARecycledAddress) {
  // Two modules built one after the other in the same storage: the
  // second reuses the first one's address, deterministically.
  alignas(Module) unsigned char storage[sizeof(Module)];
  const auto build = [&](const std::string& name, bool drive_input) {
    Module* m = new (storage) Module(name);
    const auto a = m->add_port("A", PortDir::kIn, 1);
    const auto o = m->add_port("O", PortDir::kOut, 1);
    auto& g = m->add_spec_instance("g", genus::make_gate_spec(Op::kLnot, 1));
    if (drive_input) m->connect(g, "I0", a);
    m->connect(g, "OUT", o);
    return std::shared_ptr<const Module>(
        m, [](const Module* p) { p->~Module(); });
  };
  vhdl::EmissionCache emission;
  lint::Cache lint_cache;

  std::shared_ptr<const Module> alpha = build("alpha", true);
  const std::string alpha_text = emission.module_text(*alpha, alpha);
  EXPECT_NE(alpha_text.find("entity alpha"), std::string::npos);
  EXPECT_TRUE(lint_cache.module_entry(*alpha, alpha).diags.empty());
  EXPECT_EQ(emission.module_text(*alpha, alpha), alpha_text);
  EXPECT_EQ(emission.stats().hits, 1);
  alpha.reset();

  const std::shared_ptr<const Module> beta = build("beta", false);
  ASSERT_EQ(static_cast<const void*>(beta.get()),
            static_cast<const void*>(storage));
  const std::string beta_text = emission.module_text(*beta, beta);
  vhdl::EmissionCache fresh;
  EXPECT_EQ(beta_text, fresh.module_text(*beta, beta));
  EXPECT_NE(beta_text.find("entity beta"), std::string::npos);
  EXPECT_EQ(emission.stats().misses, 2);
  EXPECT_EQ(emission.stats().bytes, static_cast<long>(beta_text.size()));
  EXPECT_EQ(emission.size(), 1u) << "refilled in place, not added";
  EXPECT_EQ(rendered(lint_cache.module_entry(*beta, beta).diags),
            rendered(lint::lint_module(*beta)));
  EXPECT_FALSE(lint_cache.module_entry(*beta, beta).diags.empty());
  EXPECT_EQ(lint_cache.size(), 1u);
}

TEST(EmissionCacheTest, ProfileTimesEmitAndVerify) {
  const cells::CellLibrary& lib = *registry().all().front();
  dtas::Synthesizer session(lib);
  api::SynthesisRequest req =
      spec_request(lib, genus::make_alu_spec(16, genus::alu16_ops()));
  req.options.include_profile = true;
  for (int round = 0; round < 2; ++round) {
    const api::SynthesisResult res = api::run_request(req, session);
    ASSERT_TRUE(res.ok()) << res.error;
    ASSERT_TRUE(res.has_profile);
    std::map<std::string, int> seen;
    for (const auto& [phase, ms] : res.profile.phases_ms) {
      ++seen[phase];
      EXPECT_GE(ms, 0.0) << phase;
    }
    EXPECT_EQ(seen["emit"], 1);
    EXPECT_EQ(seen["verify"], 1) << "phase names stay unique";
    EXPECT_EQ(seen["extract"], 1);
  }
  req.options.emit_vhdl = false;
  req.options.verify = false;
  const api::SynthesisResult bare = api::run_request(req, session);
  ASSERT_TRUE(bare.ok()) << bare.error;
  for (const auto& [phase, ms] : bare.profile.phases_ms) {
    EXPECT_NE(phase, "emit");
  }
}

TEST(EmissionCacheTest, RegistryBytesGaugeFollowsLiveCaches) {
  obs::Gauge& bytes =
      obs::Registry::global().gauge("vhdl.emission_cache.bytes");
  const long before = bytes.value();
  {
    const cells::CellLibrary& lib = *registry().all().front();
    dtas::Synthesizer session(lib);
    run_checked(session,
                spec_request(lib, genus::make_adder_spec(16)), "adder");
    EXPECT_GT(session.emission_cache().stats().bytes, 0);
    EXPECT_EQ(bytes.value() - before, session.emission_cache().stats().bytes);
  }
  EXPECT_EQ(bytes.value(), before) << "a destroyed cache leaves no residue";
}

}  // namespace
}  // namespace bridge
