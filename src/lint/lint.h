// Structural netlist linter: static checks over netlist::Design/Module.
//
// The extraction and cache layers promise well-formed netlists — every
// cell input driven, widths matched, no multi-driven bits, hierarchy
// references resolved, no combinational loops — and PRs 4/5 each shipped
// a bug (floating matched-cell inputs, const-tie width UB, module-name
// collisions) that a static checker would have caught at the source.
// This linter is that checker: a read-only pass returning structured
// diagnostics, cheap enough to run on every extracted alternative.
//
// Wired in at three layers:
//  - dtas::SpaceOptions::verify_designs — every front post-extraction,
//    assert-clean (throws on errors); default-on in Debug/sanitizer
//    builds;
//  - api::RequestOptions::verify / the server `verify` flag — returns
//    the diagnostics in SynthesisResult;
//  - tools/lint_designs.py over examples/lint_designs — the CI gate
//    linting every front the bench smoke emits.
//
// The linter never mutates anything: fronts, descriptions, and VHDL are
// byte-identical with every gate on or off.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/weak_memo.h"
#include "genus/spec.h"
#include "netlist/netlist.h"

namespace bridge::lint {

enum class Severity { kError, kWarning };

const char* severity_name(Severity s);

/// One finding. `check` is a stable kebab-case id (the thing tests and
/// tooling key on); `object` names the net, instance, or instance.port
/// inside `module` that the finding is about.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string check;
  std::string module;
  std::string object;
  std::string message;

  /// "error[multi-driven-net] mod/net: message" — the wire/report form.
  std::string to_string() const;
};

class Cache;

/// Module-local checks:
///  - multi-driven-net: a net bit with more than one driver
///  - undriven-net: a net bit read by an input but driven by nothing
///  - floating-input: a cell/spec/module instance input port left
///    unconnected or open (outputs may be open — dropped results are
///    legal; inputs must never float)
///  - width-mismatch: a net-slice binding that misses the net
///    (lo < 0 or lo + port width > net width), misuse of replication
///    (on an output, or a bad source bit)
///  - unknown-port: a connection naming a port the instance does not have
///  - dangling-net: a connection whose net index is outside the module
///  - const-tie: a constant bound to an output port, a constant carrying
///    bits past the port width, or a constant on a port wider than 64
///  - dangling-module-ref: a module-reference instance with a null child
///    (lint_design additionally resolves references against the design)
///  - comb-loop: a combinational cycle through instances (sequential
///    kinds break paths; edges are net-bit-granular, so bit-sliced
///    ripple structures through one bus never false-positive)
///  - name-collision: two nets (or two instances) whose VHDL-sanitized
///    names collide case-insensitively — distinct in the netlist, one
///    identifier in emitted VHDL
///  - illegal-name: an empty net/instance name, or a module whose
///    sanitized name is empty or a VHDL reserved word
std::vector<Diagnostic> lint_module(const netlist::Module& m);

/// Every module of `d` (module_order) through lint_module, plus the
/// design-level checks: module-reference instances must point at modules
/// registered in this design (dangling-module-ref), and module names must
/// not collide case-insensitively after VHDL sanitization
/// (name-collision).
std::vector<Diagnostic> lint_design(const netlist::Design& d);

/// lint_design with the module-local work served from (and published to)
/// `cache` — the output is identical to the cache-less overload, only the
/// per-module passes are memoized. Use one cache across a whole front
/// (the alternatives share almost every module; see
/// dtas::ExtractionCache), or across a session of fronts.
std::vector<Diagnostic> lint_design(const netlist::Design& d, Cache& cache);

/// Memoizes the per-module linter passes by module address: the
/// alternatives of a front (and the fronts of a warm session) share almost
/// every module, and shared modules are immutable, so each distinct module
/// is linted once per cache lifetime instead of once per design per
/// verify pass. dtas::Synthesizer keeps one for its whole life (its
/// verify_designs gate and api::run_request's `verify` both lint through
/// it). Entries follow the base::WeakMemo rule: each holds a weak handle
/// from Design::shared_modules, so a verdict never dangles onto a
/// recycled address and never blocks extraction-cache eviction, and
/// expired entries are swept out. Design-*owned* modules have no owner
/// handle and are deliberately not memoized by lint_design (their
/// addresses die with the design).
class Cache {
 public:
  struct Entry {
    std::vector<Diagnostic> diags;  // lint_module(m)
    /// Module-reference instances and their (non-null) children, for the
    /// design-level membership check.
    std::vector<std::pair<const netlist::Instance*, const netlist::Module*>>
        refs;
    std::string identity;  // emitted identity of the module name
  };

  /// Memoized lint_module(m) plus the design-level inputs (module
  /// references, emitted name identity). `owner` must co-own `m`; the
  /// entry keeps only a weak handle on it.
  const Entry& module_entry(const netlist::Module& m,
                            const std::shared_ptr<const netlist::Module>& owner);

  /// Entries held, stale ones included.
  std::size_t size() const { return memo_.size(); }

 private:
  base::WeakMemo<netlist::Module, Entry> memo_;
};

/// Rule-template checker, run over TemplateCache products
/// (dtas::CompiledTemplate: the template module + its distinct child
/// specs). Validates the template against its spec list:
///  - every spec-reference instance's spec appears in `child_specs`
///    (template-spec-mismatch)
///  - every entry of `child_specs` is instantiated at least once
///    (unused-child-spec)
///  - every child instance binds each input port of its spec, with the
///    bound net slice matching the port's width, and never binds a
///    constant or net-drive onto a port against its direction — i.e. the
///    structural lint_module checks, scoped to the template
/// Returns lint_module(tmpl) plus the spec-membership findings.
std::vector<Diagnostic> check_template(
    const netlist::Module& tmpl,
    const std::vector<genus::ComponentSpec>& child_specs);

/// True when any diagnostic is error-severity.
bool has_errors(const std::vector<Diagnostic>& diags);

/// All diagnostics joined as to_string() lines ("" when clean).
std::string render(const std::vector<Diagnostic>& diags);

}  // namespace bridge::lint
