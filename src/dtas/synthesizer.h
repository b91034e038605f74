// DTAS front door: synthesize generic components or whole GENUS netlists
// into sets of alternative, hierarchical, library-specific netlists.
//
// "The output of DTAS is a set of alternative implementations of the input
// netlist. Each implementation is represented as a hierarchical netlist
// that traces the top-down design of the input netlist into subcomponents.
// Leaves of each hierarchical netlist map the alternative design to cells
// drawn from the given RTL library." (paper §3)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dtas/design_space.h"
#include "lint/lint.h"
#include "obs/profile.h"
#include "vhdl/vhdl.h"

namespace bridge::dtas {

/// One alternative implementation: metrics plus the hierarchical netlist.
struct AlternativeDesign {
  Metric metric;
  std::shared_ptr<netlist::Design> design;  // top() is the implementation
  std::string description;                  // top-level rule/cell trace
};

/// Per-Synthesizer cache of materialized implementation subtrees — the
/// TemplateCache pattern one layer down. The alternatives of one front
/// share almost all of their subtrees (the paper's hierarchical netlists
/// trace a shared decomposition), so each distinct (SpecNode, alternative)
/// pair is materialized exactly once as an immutable shared module and
/// referenced by every AlternativeDesign that contains it
/// (netlist::Design::reference_module keeps it alive per design).
///
/// Keying is delta-aware: the public interface still speaks
/// (SpecNode*, alternative), but entries are stored under the node's
/// *content* fingerprint (SpecNode::slice_fp — the spec plus everything
/// the expanded subtree bound: cells, rules, children). Pointers die with
/// their DesignSpace; content keys survive Synthesizer::retarget, so
/// swinging to a different library and back (or to a library with
/// identical content) re-extracts nothing that was already materialized.
///
/// The cache also owns two session-wide tables:
///  - the module name table: names are unique across the whole session
///    (two distinct nodes whose sanitized spec keys collide get "_u<k>"
///    uniquifiers), so a shared module can appear in any design;
///  - the memoized implementation traces behind Describer.
///
/// Lifecycle: modules are byte-accounted, and under a budget
/// (set_budget_bytes / SpaceOptions::extraction_cache_budget_bytes /
/// BRIDGE_CACHE_BUDGET) inserts evict least-recently-used modules no
/// live design references (use_count == 1 — designs returned by
/// synthesize pin their modules automatically). The name table and
/// describe memos survive eviction on purpose: a re-materialized module
/// gets its original session name, so output stays byte-identical under
/// any eviction schedule.
///
/// Not thread-safe: one synthesize call at a time, like the Synthesizer
/// that owns it. The concurrency model is one Synthesizer (and thus one
/// ExtractionCache) per thread; the process-wide TemplateCache is the
/// shared layer.
class ExtractionCache {
 public:
  struct Stats {
    long hits = 0;       // find() calls served a shared module
    long misses = 0;     // modules materialized (and published)
    long evictions = 0;  // modules evicted under the byte budget
    long bytes = 0;      // resident footprint estimate
  };

  ExtractionCache();
  ~ExtractionCache();
  ExtractionCache(const ExtractionCache&) = delete;
  ExtractionCache& operator=(const ExtractionCache&) = delete;

  /// Session-unique, VHDL-legal module name for (node, alt). Memoized;
  /// first-request order fixes uniquifier assignment.
  const std::string& name_for(const SpecNode* node, int alt_index);

  /// Uniquify `base` against every name this session handed out: the
  /// first request returns `base` itself, collisions get "_u<k>"
  /// appended. Exposed for name_for and its regression tests.
  std::string unique_name(const std::string& base);

  /// Shared module for (node, alt); nullptr when not yet materialized.
  std::shared_ptr<const netlist::Module> find(const SpecNode* node,
                                              int alt_index);

  /// Publish a materialized module; returns the stored pointer (by
  /// value: the budget sweep the insert may trigger can evict other
  /// entries, and map references are not stable across that).
  /// `children` are the shared modules `module` holds raw instance
  /// pointers into: the entry co-owns them, so eviction can never
  /// reclaim a child while a resident parent still points at it.
  std::shared_ptr<const netlist::Module> insert(
      const SpecNode* node, int alt_index,
      std::shared_ptr<const netlist::Module> module,
      std::vector<std::shared_ptr<const netlist::Module>> children = {});

  /// Memoized (node, alternative, depth) implementation traces, shared by
  /// every Describer of the session (see synthesizer.cpp). The table is
  /// private state — callers get a lookup and a publish, not the map
  /// (handing the mutable map across the session boundary let any caller
  /// corrupt memoized traces out from under later synthesize calls).
  /// Keyed by node_key() like the modules, so traces too survive
  /// retargeting.
  using DescribeKey = std::tuple<std::uint64_t, int, int>;
  /// Memoized trace for `key`; nullptr when absent. The pointer stays
  /// valid for the cache's lifetime (traces survive eviction).
  const std::string* find_describe(const DescribeKey& key) const;
  /// Publish the trace for `key` (first writer wins); returns the stored
  /// text.
  const std::string& memoize_describe(const DescribeKey& key,
                                      std::string text);
  /// Distinct memoized traces (diagnostics / tests).
  std::size_t describe_memo_size() const { return describe_memo_.size(); }

  /// The cache identity of `node`: its content fingerprint
  /// (SpecNode::slice_fp, only valid once expanded). Exposed so Describer
  /// (and tests) can build DescribeKeys consistently.
  std::uint64_t node_key(const SpecNode* node) const;

  /// Byte budget; 0 = unbounded. The constructor takes the
  /// BRIDGE_CACHE_BUDGET default. Setting a budget sweeps immediately;
  /// modules still referenced by live designs are never evicted, so the
  /// budget is a target, not a hard cap.
  void set_budget_bytes(std::size_t budget);
  std::size_t budget_bytes() const { return budget_; }

  const Stats& stats() const { return stats_; }
  /// Distinct modules resident (evicted ones no longer count).
  std::size_t size() const { return modules_.size(); }

 private:
  using Key = std::pair<std::uint64_t, int>;  // (node_key(node), alt)
  struct Entry {
    std::shared_ptr<const netlist::Module> module;
    /// Subtree pins: the modules `module`'s instances point at. Their
    /// bytes are accounted by their own entries; these refs only keep
    /// use_count > 1 so the LRU sweep sees them as pinned while this
    /// parent is resident.
    std::vector<std::shared_ptr<const netlist::Module>> children;
    std::size_t bytes = 0;
    std::uint64_t last_use = 0;
  };

  /// Evict LRU unreferenced modules until resident bytes fit the budget.
  void evict_to_budget();

  std::map<Key, Entry> modules_;
  std::map<Key, std::string> names_;
  std::map<std::string, int> name_uses_;  // base -> names handed out
  std::map<DescribeKey, std::string> describe_memo_;
  std::size_t budget_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t tick_ = 0;
  Stats stats_;
};

/// Assemble the rule base DTAS uses for a given data book: the standard
/// generic rules plus the library-specific rules — the paper's nine
/// hand-written rules for the LSI-style book, LOLA-induced rules for any
/// other library (built-in TTL, parsed data-book text, Liberty imports).
RuleBase default_rules_for(const cells::CellLibrary& library);

/// Which library-specific flavor default_rules_for would pick: "lsi" for
/// the paper's hand-written LSI rules, "lola" for induced rules. Part of
/// any cache/session identity that spans libraries (the server keys warm
/// sessions on content fingerprint + this), because two libraries with
/// different flavors expand through different rule sets even when their
/// cell content matched.
std::string default_rules_flavor(const cells::CellLibrary& library);

class Synthesizer {
 public:
  /// Takes ownership of the rule base.
  Synthesizer(RuleBase rules, const cells::CellLibrary& library,
              SpaceOptions options = {});

  /// Convenience: default_rules_for(library).
  Synthesizer(const cells::CellLibrary& library, SpaceOptions options = {});

  /// Synthesize one component specification. Returns the filtered set of
  /// alternative designs, sorted by ascending area. Empty when the library
  /// cannot realize the specification.
  std::vector<AlternativeDesign> synthesize(const genus::ComponentSpec& spec);

  /// Synthesize a netlist of GENUS component instances (the output of
  /// high-level synthesis). The uniform-implementation constraint applies
  /// across the netlist: instances with the same specification share one
  /// implementation choice.
  std::vector<AlternativeDesign> synthesize_netlist(
      const netlist::Module& input);

  /// Swing the session to a different cell library: rebuild the rule base
  /// (default_rules_for) and the design space, preserving the space
  /// options. The extraction cache — modules, session names, memoized
  /// traces — is deliberately kept: its entries are keyed by content
  /// fingerprint, so retargeting back to a library with identical content
  /// finds every previously materialized subtree warm, while changed
  /// content simply misses (the soundness is in the key, not in any
  /// invalidation sweep). The process-wide TemplateCache likewise carries
  /// over by construction.
  void retarget(const cells::CellLibrary& library);

  /// As above with an explicit rule base (takes ownership).
  void retarget(RuleBase rules, const cells::CellLibrary& library);

  DesignSpace& space() { return *space_; }
  const DesignSpace& space() const { return *space_; }

  /// The session-wide extraction cache (shared modules, module names,
  /// memoized traces). Persists across synthesize calls, so a repeated
  /// synthesis over the same space extracts on a warm cache.
  ExtractionCache& extraction_cache() { return extract_cache_; }
  const ExtractionCache& extraction_cache() const { return extract_cache_; }

  /// The session-wide lint and VHDL memos over the extraction cache's
  /// shared modules. api::run_request verifies and emits through them, so
  /// a warm session lints and renders each shared module once, not once
  /// per request. Both survive retarget like the extraction cache.
  lint::Cache& lint_cache() { return lint_cache_; }
  vhdl::EmissionCache& emission_cache() { return emission_cache_; }

  /// Structured breakdown of the most recent synthesize /
  /// synthesize_netlist call: wall time per phase (expand / evaluate /
  /// extract) plus this-call deltas of the space and cache counters.
  /// Always populated — profiling reads clocks only at phase granularity,
  /// so it is not gated. Overwritten by the next call.
  const obs::Profile& last_profile() const { return profile_; }

 private:
  RuleBase rules_;
  /// optional only so retarget() can destroy-and-rebuild in place (the
  /// space holds a reference to rules_ and is neither movable nor
  /// assignable); engaged for the Synthesizer's whole life otherwise.
  std::optional<DesignSpace> space_;
  ExtractionCache extract_cache_;
  /// Session memo for SpaceOptions::verify_designs and run_request's
  /// `verify`: shared extraction modules are linted once per session, not
  /// once per design per call.
  /// Entries track their module weakly, so verdicts never dangle and
  /// extraction-cache eviction is never blocked — see lint::Cache.
  /// Survives retarget like the extraction cache.
  lint::Cache lint_cache_;
  /// Session memo of shared-module VHDL text, under the same weak-handle
  /// rule (see vhdl::EmissionCache). Survives retarget likewise.
  vhdl::EmissionCache emission_cache_;
  obs::Profile profile_;
};

/// Map a cell's ports onto the ports of the specification it implements.
/// Unmatched cell inputs receive data-book tie-offs (carry-in 0, enable 1,
/// asyncs 0, MODE 0/1 for adder/subtractor promotion); unmatched outputs
/// are left open. Requires genus::spec_implements(cell_spec, need).
struct PortBinding {
  enum class Kind { kPort, kConst, kOpen };
  Kind kind = Kind::kOpen;
  genus::PortDir dir = genus::PortDir::kIn;  // direction of the cell port
  base::Symbol need_port;   // kPort
  std::uint64_t value = 0;  // kConst
};
std::vector<std::pair<base::Symbol, PortBinding>> cell_binding(
    const genus::ComponentSpec& cell_spec, const genus::ComponentSpec& need);

}  // namespace bridge::dtas
