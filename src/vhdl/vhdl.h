// VHDL back end.
//
// Figure 1: high-level synthesis emits "a netlist of GENUS components
// described using structural VHDL", and DTAS's hierarchical netlists "can
// be output in structural VHDL and passed to other tools for analysis,
// optimization, and layout". GENUS generators additionally "produce
// simulatable VHDL behavioral models for the generated components".
#pragma once

#include <memory>
#include <string>

#include "base/weak_memo.h"
#include "genus/component.h"
#include "netlist/netlist.h"

namespace bridge::vhdl {

/// Memoizes the structural text of shared modules across emit calls.
/// The alternative designs of one synthesis front share almost every
/// module (see dtas::ExtractionCache), and a warm session returns the same
/// shared modules request after request, so emitting through one
/// EmissionCache renders each distinct shared module once per session
/// instead of once per design. dtas::Synthesizer keeps one for its whole
/// life (api::run_request emits through it).
///
/// Entries follow the base::WeakMemo rule: each holds a weak handle from
/// Design::shared_modules(), so a text never describes a later module at a
/// recycled address, and expired entries are swept out. Modules a design
/// owns (leaf-cell alternative tops, synthesize_netlist tops) die with it
/// and are rendered fresh, never stored.
///
/// Not thread-safe: one emit call at a time, like the Synthesizer that
/// owns it.
class EmissionCache {
 public:
  struct Stats {
    long hits = 0;    // shared-module texts served from the memo
    long misses = 0;  // shared-module texts rendered and stored
    long bytes = 0;   // resident text bytes
  };

  EmissionCache() = default;
  ~EmissionCache();
  EmissionCache(const EmissionCache&) = delete;
  EmissionCache& operator=(const EmissionCache&) = delete;

  /// Entity + architecture text of the shared module `m` (see
  /// emit_structural), memoized while `m` is alive. `owner` must co-own
  /// `m`; the entry keeps only a weak handle on it.
  const std::string& module_text(
      const netlist::Module& m,
      const std::shared_ptr<const netlist::Module>& owner);

  /// Entries held, stale ones included.
  std::size_t size() const { return memo_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  friend std::string emit_structural(const netlist::Design& design,
                                     EmissionCache& cache);

  /// Add the stats accrued since the last call to the registry's
  /// vhdl.emission_cache.* metrics: one bulk delta per emitted design,
  /// so concurrent warm sessions do not bump a shared atomic per module.
  void publish();

  base::WeakMemo<netlist::Module, std::string> memo_;
  Stats stats_;
  Stats published_;  // the part of stats_ already in the registry
};

/// Emit a hierarchical design as structural VHDL: one entity/architecture
/// pair per module (leaves referenced through component declarations),
/// with bit-slice, constant, and replication bindings lowered to
/// intermediate signals where VHDL requires it.
std::string emit_structural(const netlist::Design& design);

/// The same output, with shared-module text served from (and published
/// to) `cache` — use one cache across a whole front, or a whole session,
/// so shared modules are rendered once.
std::string emit_structural(const netlist::Design& design,
                            EmissionCache& cache);

/// Emit one module (plus component declarations) as structural VHDL.
std::string emit_structural(const netlist::Module& module);

/// Emit a simulatable behavioral model of a generated GENUS component:
/// entity from the component's ports, architecture from its operations'
/// register-transfer semantics.
std::string emit_behavioral(const genus::Component& component);

/// VHDL-legal identifier derived from an arbitrary name.
std::string sanitize_identifier(const std::string& name);

}  // namespace bridge::vhdl
