// Reference oracles for the production synthesis paths.
//
// Production keeps one path per stage: expansion serves every cacheable
// rule from the process-wide TemplateCache, evaluation runs the compiled
// TimingPlan odometer with bound-and-prune, and extraction shares one
// module per distinct (node, alternative) subtree. The slow, obviously
// correct implementations those paths replaced live here, in a static
// library (bridge_oracle) that tests and benches link and the shipped
// `bridge` library never does. Every function is serial and ignores
// deadlines and fault injection: an oracle answers the question, it does
// not compete.
//
//  (a) evaluation: the functional evaluator (eval_template), which
//      re-derives port views and per-bit arrival times for every
//      combination, driven by a never-pruning odometer;
//  (b) expansion: a rule base whose rules forward to the originals but
//      decline the template cache, so every expansion recompiles;
//  (c) extraction: copy-per-design materialization, where every
//      AlternativeDesign owns a private copy of every module;
//  (d) the JSON codec: byte-at-a-time string escaping and parsing, and
//      snprintf("%lld" / "%.17g") / strtod numbers.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "api/json.h"
#include "dtas/design_space.h"
#include "dtas/rule.h"
#include "dtas/synthesizer.h"
#include "genus/spec.h"
#include "netlist/netlist.h"

namespace bridge::oracle {

// --- (a) evaluation -------------------------------------------------------

/// Metrics of a template given per-child-spec metrics: area is the sum
/// over instances, delay the longest structural path (sequential
/// instances act as path sources/sinks with their clock-to-q delay).
/// Arrival times are tracked per net *bit*.
dtas::Metric eval_template(
    const netlist::Module& tmpl, const dtas::EvalSchedule& topo,
    const std::function<dtas::Metric(const genus::ComponentSpec&)>&
        child_metric);

/// Time every combination of the odometer over `children` (bounded by
/// `limit`, digit 0 fastest) through eval_template and append each one,
/// unpruned, to `candidates` with the given impl index. Returns the
/// number of combinations enumerated.
long run_reference_odometer(const netlist::Module& tmpl,
                            const dtas::EvalSchedule& topo,
                            const std::vector<dtas::SpecNode*>& children,
                            const std::vector<int>& limit, int impl_index,
                            std::vector<dtas::Alternative>& candidates);

/// Evaluate `node` and every un-evaluated node below it: serial
/// recursion, reference odometer, no pruning. Fills node->alts through
/// the space's public filter_alternatives and trim_limits, so a later
/// Synthesizer::synthesize on the same space extracts and describes this
/// front through production code. Returns the combinations enumerated.
long reference_evaluate(dtas::DesignSpace& space, dtas::SpecNode* node);

/// The netlist-level sweep of Synthesizer::synthesize_netlist, on the
/// reference evaluator.
struct NetlistSweep {
  /// Distinct instance specifications in first-occurrence order.
  std::vector<dtas::SpecNode*> children;
  /// Filtered alternatives; child_alt is parallel to `children`. Empty
  /// when some instance specification is unrealizable.
  std::vector<dtas::Alternative> kept;
  /// Combinations enumerated, the children's evaluations included.
  long combinations = 0;
};
NetlistSweep reference_sweep(dtas::DesignSpace& space,
                             const netlist::Module& input);

// --- (b) expansion --------------------------------------------------------

/// `rules` with every rule wrapped to forward applies/expand/slice
/// fingerprint to the original but return cacheable() == false, so a
/// design space built on the result recompiles every template instead of
/// consulting the TemplateCache.
dtas::RuleBase uncached_rules(dtas::RuleBase rules);

// --- (c) extraction -------------------------------------------------------

/// The front of the evaluated `node`, extracted the way
/// Synthesizer::synthesize extracts it but with every design owning a
/// private copy of every module. Module names come from
/// `names.name_for`, so they match a production session that requested
/// names in the same order.
std::vector<dtas::AlternativeDesign> extract_copies(
    dtas::ExtractionCache& names, const dtas::SpecNode* node);

/// The netlist front of `sweep`, extracted copy-per-design the way
/// Synthesizer::synthesize_netlist extracts it.
std::vector<dtas::AlternativeDesign> extract_copies(
    dtas::ExtractionCache& names, const netlist::Module& input,
    const NetlistSweep& sweep);

// --- whole-call references ------------------------------------------------

/// Expand `spec` on the session's space, reference_evaluate it, then
/// Synthesizer::synthesize: the reference front, extracted and described
/// by production code. `combinations` (optional) receives the count
/// reference_evaluate returned.
std::vector<dtas::AlternativeDesign> reference_synthesize(
    dtas::Synthesizer& synth, const genus::ComponentSpec& spec,
    long* combinations = nullptr);

/// reference_sweep over the session's space, extracted by extract_copies
/// with the session's name table.
std::vector<dtas::AlternativeDesign> reference_synthesize_netlist(
    dtas::Synthesizer& synth, const netlist::Module& input,
    long* combinations = nullptr);

// --- (d) JSON codec ---------------------------------------------------------

/// api::Json::dump() as the byte-at-a-time escaper and snprintf numbers
/// wrote it.
std::string reference_dump(const api::Json& j);

/// api::Json::parse(text) (default depth cap) as the byte-at-a-time parser
/// with strtod numbers read it: the same value, or the same ParseError
/// message, line and column.
api::Json reference_parse(const std::string& text);

}  // namespace bridge::oracle
