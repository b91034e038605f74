// The unified request/response API for synthesis.
//
// Before this layer, configuring a synthesis meant juggling three
// mechanisms at once: SpaceOptions fields passed to the Synthesizer
// constructor, environment variables (BRIDGE_CACHE_BUDGET) read at
// scattered construction points, and per-call method arguments.
// SynthesisRequest subsumes all three into one value type with JSON
// encode/decode, so the in-process API, the examples, the benches, and
// the server wire protocol all speak the same object — a request that
// worked locally is byte-for-byte the request you send to a daemon.
//
// Environment-variable precedence (the consolidation contract, pinned by
// tests/api_test.cpp): env vars are *documented defaults*, applied only
// where a request leaves a field at its "unset" sentinel; an explicit
// request field always wins.
//
//   field                              unset sentinel   env default
//   extraction_cache_budget_bytes      -1               BRIDGE_CACHE_BUDGET
//
// A request sets nothing process-wide: the span tracer (BRIDGE_TRACE,
// obs::Tracer::global().start) and the shared TemplateCache's budget
// (BRIDGE_CACHE_BUDGET, TemplateCache::global().set_budget_bytes) are
// the process's to configure, never one client's.
//
// Determinism: encode() emits every field in a fixed order, so
// encode(decode(encode(x))) is byte-identical — the protocol golden
// tests rely on it — and doubles round-trip exactly (see api/json.h),
// which is what makes a front received over the wire bit-comparable to
// one produced in process.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/json.h"
#include "dtas/design_space.h"
#include "dtas/synthesizer.h"
#include "genus/spec.h"
#include "lint/lint.h"
#include "netlist/netlist.h"
#include "obs/profile.h"

namespace bridge::cells {
class LibraryRegistry;
}  // namespace bridge::cells

namespace bridge::api {

// --- component-spec / netlist codecs ---------------------------------------

/// ComponentSpec <-> JSON object ({"kind": "ALU", "width": 64, ...}).
Json encode_spec(const genus::ComponentSpec& spec);
genus::ComponentSpec decode_spec(const Json& j);

/// GENUS input netlist (a Module of specification instances) <-> JSON.
/// Round-trips ports, non-port nets, and every connection — including
/// explicit opens, constants, and replicated broadcasts — in ConnMap
/// (name) order.
Json encode_netlist(const netlist::Module& m);
netlist::Module decode_netlist(const Json& j);

// --- request ---------------------------------------------------------------

/// Per-request knobs. This is the public face of dtas::SpaceOptions: a
/// flat, JSON-serializable subset whose unset sentinels resolve through
/// the documented env defaults (see file comment). space_options() is
/// the single translation point.
struct RequestOptions {
  /// Ceiling on `threads`: decode() and space_options() reject any value
  /// outside [0, kMaxThreads] with an Error naming the field, so a
  /// request can never ask the odometer pool for more threads than the
  /// process can create.
  static constexpr int kMaxThreads = 256;

  long deadline_ms = 0;           // 0 = unbounded
  bool deadline_best_effort = false;
  int threads = 1;                // per-request; servers keep this at 1
  std::string filter = "pareto";  // pareto | none | area_only | delay_only
  int max_alternatives_per_node = 24;
  long max_combinations_per_impl = 100000;
  double min_delay_gain = 0.10;
  long extraction_cache_budget_bytes = -1;  // -1 = BRIDGE_CACHE_BUDGET default
  bool emit_vhdl = false;       // include structural VHDL per alternative
  bool include_profile = false; // include the per-request phase profile
  /// Run the structural linter (src/lint) over every returned design and
  /// ship the diagnostics in SynthesisResult::diagnostics. Read-only and
  /// output-only — like emit_vhdl it never shapes the design space, so it
  /// is excluded from fingerprint() and a warm session serves verifying
  /// and non-verifying requests alike.
  bool verify = false;

  bool operator==(const RequestOptions&) const = default;

  /// Resolve into the dtas layer's options, applying the env-default
  /// precedence documented above. Throws bridge::Error on an unknown
  /// filter name, an out-of-range `threads` or a
  /// `max_alternatives_per_node` below 1.
  dtas::SpaceOptions space_options() const;

  /// Stable key of every field that shapes the memoized design space
  /// (everything except the deadline trio and the output switches).
  /// Server sessions cache one Synthesizer per (library *content*
  /// fingerprint, rules flavor, options fingerprint): requests differing
  /// only in deadline/emit flags share warm state, and a re-registered
  /// library with identical content maps back onto its warm session.
  std::string fingerprint() const;
};

/// One synthesis request: a spec *or* an input netlist, a library name,
/// and options. The same value drives in-process calls and the wire.
struct SynthesisRequest {
  std::string library;  // cells::LibraryRegistry name, e.g. "LSI_LGC15"
  std::optional<genus::ComponentSpec> spec;
  std::optional<netlist::Module> input_netlist;
  RequestOptions options;

  Json encode() const;
  std::string to_json() const { return encode().dump(); }

  /// Throws bridge::Error / bridge::ParseError on malformed input
  /// (missing library, neither or both of spec/netlist, bad enum names,
  /// `threads` outside [0, RequestOptions::kMaxThreads],
  /// `max_alternatives_per_node` below 1, any other int field that is
  /// not an integer in int range; the message names the field). Unknown
  /// option keys are ignored, so requests from older clients that still
  /// send the retired evaluator/cache toggles, `trace_path` or
  /// `template_cache_budget_bytes` decode unchanged.
  static SynthesisRequest decode(const Json& j);
  static SynthesisRequest from_json(const std::string& text);
};

// --- result ----------------------------------------------------------------

struct ResultAlternative {
  double area = 0.0;
  double delay = 0.0;
  std::string description;
  std::string vhdl;  // empty unless the request set emit_vhdl
};

/// This-request work summary (the SpaceStats / cache deltas a service
/// client can bill or alert on without parsing a profile).
struct ResultStats {
  long combinations_evaluated = 0;
  long combinations_pruned = 0;
  long template_cache_hits = 0;
  long template_cache_misses = 0;
  long extraction_cache_hits = 0;
  long extraction_cache_misses = 0;
};

struct SynthesisResult {
  std::string status = "ok";  // ok | error | cancelled
  std::string error;          // non-empty iff status != "ok"
  bool deadline_hit = false;  // best-effort truncation happened
  std::vector<ResultAlternative> alternatives;
  ResultStats stats;
  /// Linter findings across all returned designs (RequestOptions::verify;
  /// empty means clean — or not requested).
  std::vector<lint::Diagnostic> diagnostics;
  bool has_profile = false;
  obs::Profile profile;   // valid when has_profile
  double server_ms = 0.0; // wall time on the server; 0 for in-process runs

  bool ok() const { return status == "ok"; }

  Json encode() const;
  std::string to_json() const { return encode().dump(); }
  static SynthesisResult decode(const Json& j);
  static SynthesisResult from_json(const std::string& text);

  /// Error-response helper.
  static SynthesisResult make_error(std::string status, std::string message);
};

/// True when `result`'s front is byte-identical to `alts` — same count,
/// bit-equal metric doubles, same descriptions, and (when `with_vhdl`)
/// the same emitted VHDL text. The server bench and the concurrency
/// tests gate on this.
bool front_matches(const SynthesisResult& result,
                   const std::vector<dtas::AlternativeDesign>& alts,
                   bool with_vhdl);

// --- execution --------------------------------------------------------------

/// Build a Synthesizer configured for `req` against `library` (which must
/// be the registry entry `req.library` names; sessions that outlive one
/// request are the caller's to keep).
std::unique_ptr<dtas::Synthesizer> make_session(
    const SynthesisRequest& req, const cells::CellLibrary& library);

/// Execute `req` on an existing session. The session must have been
/// built with the same space-shaping options (see
/// RequestOptions::fingerprint); the per-request deadline policy is
/// re-armed here, so one warm session serves many requests with
/// different budgets. VHDL and `verify` go through the session's
/// emission and lint memos, so a warm session renders and lints each
/// shared module once. Never throws: cancellation and failures come back
/// as status "cancelled" / "error" results.
SynthesisResult run_request(const SynthesisRequest& req,
                            dtas::Synthesizer& session);

/// One-shot convenience: resolve the library in `registry`, build a
/// fresh session, run. Library-resolution failures come back as error
/// results, like everything else.
SynthesisResult run_request(const SynthesisRequest& req,
                            const cells::LibraryRegistry& registry);

}  // namespace bridge::api
