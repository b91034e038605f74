#include "api/api.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>

#include "base/diag.h"
#include "cells/registry.h"
#include "genus/kind.h"
#include "genus/optype.h"
#include "vhdl/vhdl.h"

namespace bridge::api {

namespace {

// PortConn constants are masked to the port width, which may be up to 64
// bits — beyond exact double range. Wide values travel as decimal strings.
constexpr std::uint64_t kMaxExactU64 = (std::uint64_t{1} << 53);

Json encode_const_value(std::uint64_t v) {
  if (v < kMaxExactU64) return Json(static_cast<double>(v));
  return Json(std::to_string(v));
}

std::uint64_t decode_const_value(const Json& j) {
  if (j.is_string()) {
    const std::string& s = j.string_value();
    std::size_t used = 0;
    std::uint64_t v = 0;
    try {
      v = std::stoull(s, &used);
    } catch (const std::exception&) {
      throw Error("bad constant value '" + s + "'");
    }
    if (used != s.size()) throw Error("bad constant value '" + s + "'");
    return v;
  }
  const long v = j.integer();
  if (v < 0) throw Error("constant value must be non-negative");
  return static_cast<std::uint64_t>(v);
}

constexpr int kIntMin = std::numeric_limits<int>::min();
constexpr int kIntMax = std::numeric_limits<int>::max();

/// `v` narrowed to int once it is checked to be an integer in [lo, hi];
/// otherwise an Error naming the field (`what` and `key`). Every int the
/// decoders read passes here: the wire carries doubles, and narrowing an
/// unchecked one wraps (4294967297 reads as 1) or is undefined.
int checked_int(const char* what, const std::string& key, double v, int lo,
                int hi) {
  if (!(v >= lo && v <= hi) || v != std::floor(v)) {
    throw Error(std::string(what) + " '" + key + "' must be an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
                format_json_number(v));
  }
  return static_cast<int>(v);
}

/// Member `key` of `j` through checked_int; `dflt` when absent or null.
int int_field(const Json& j, const char* what, const std::string& key,
              int dflt, int lo = kIntMin, int hi = kIntMax) {
  const Json* v = j.find(key);
  return v == nullptr || v->is_null()
             ? dflt
             : checked_int(what, key, v->number(), lo, hi);
}

genus::Representation rep_from_name(const std::string& name) {
  if (name == "BINARY") return genus::Representation::kBinary;
  if (name == "BCD") return genus::Representation::kBcd;
  throw Error("unknown representation '" + name + "' (BINARY or BCD)");
}

}  // namespace

// --- component-spec codec ---------------------------------------------------

Json encode_spec(const genus::ComponentSpec& spec) {
  Json j = Json::object();
  j.set("kind", genus::kind_name(spec.kind))
      .set("width", spec.width)
      .set("size", spec.size)
      .set("ops", spec.ops.to_string())
      .set("style", genus::style_name(spec.style))
      .set("rep", genus::representation_name(spec.rep))
      .set("carry_in", spec.carry_in)
      .set("carry_out", spec.carry_out)
      .set("enable", spec.enable)
      .set("async_set", spec.async_set)
      .set("async_reset", spec.async_reset)
      .set("tristate", spec.tristate);
  return j;
}

genus::ComponentSpec decode_spec(const Json& j) {
  genus::ComponentSpec spec;
  spec.kind = genus::kind_from_name(j.at("kind").string_value());
  spec.width = int_field(j, "spec", "width", 1);
  spec.size = int_field(j, "spec", "size", 0);
  spec.ops = genus::OpSet::parse(j.str_or("ops", ""));
  spec.style = genus::style_from_name(j.str_or("style", "ANY"));
  spec.rep = rep_from_name(j.str_or("rep", "BINARY"));
  spec.carry_in = j.bool_or("carry_in", false);
  spec.carry_out = j.bool_or("carry_out", false);
  spec.enable = j.bool_or("enable", false);
  spec.async_set = j.bool_or("async_set", false);
  spec.async_reset = j.bool_or("async_reset", false);
  spec.tristate = j.bool_or("tristate", false);
  return spec;
}

// --- netlist codec ----------------------------------------------------------

Json encode_netlist(const netlist::Module& m) {
  Json j = Json::object();
  j.set("name", m.name());

  Json ports = Json::array();
  std::vector<bool> is_port_net(m.nets().size(), false);
  for (const netlist::ModulePort& p : m.module_ports()) {
    Json pj = Json::object();
    pj.set("name", static_cast<const std::string&>(p.name))
        .set("dir", p.dir == genus::PortDir::kIn ? "in" : "out")
        .set("width", p.width);
    ports.push_back(std::move(pj));
    if (p.net >= 0) is_port_net[static_cast<std::size_t>(p.net)] = true;
  }
  j.set("ports", std::move(ports));

  Json nets = Json::array();
  for (std::size_t i = 0; i < m.nets().size(); ++i) {
    if (is_port_net[i]) continue;  // recreated by add_port on decode
    const netlist::Net& n = m.nets()[i];
    Json nj = Json::object();
    nj.set("name", static_cast<const std::string&>(n.name))
        .set("width", n.width);
    nets.push_back(std::move(nj));
  }
  j.set("nets", std::move(nets));

  Json insts = Json::array();
  for (const netlist::Instance& inst : m.instances()) {
    if (inst.ref != netlist::RefKind::kSpec) {
      throw Error("netlist codec handles specification instances only; '" +
                  inst.name + "' references a " +
                  (inst.ref == netlist::RefKind::kCell ? "cell" : "module"));
    }
    Json ij = Json::object();
    ij.set("name", inst.name);
    if (!inst.ref_name.empty()) ij.set("ref_name", inst.ref_name);
    ij.set("spec", encode_spec(inst.spec));
    Json conns = Json::array();
    for (const auto& [port, conn] : inst.connections) {
      Json cj = Json::object();
      cj.set("port", static_cast<const std::string&>(port));
      switch (conn.kind) {
        case netlist::PortConn::Kind::kNet:
          cj.set("net",
                 static_cast<const std::string&>(m.net(conn.net).name));
          cj.set("lo", conn.lo);
          if (conn.replicate) cj.set("replicate", true);
          break;
        case netlist::PortConn::Kind::kConst:
          cj.set("const", encode_const_value(conn.const_value));
          break;
        case netlist::PortConn::Kind::kOpen:
          cj.set("open", true);
          break;
      }
      conns.push_back(std::move(cj));
    }
    ij.set("conns", std::move(conns));
    insts.push_back(std::move(ij));
  }
  j.set("instances", std::move(insts));
  return j;
}

netlist::Module decode_netlist(const Json& j) {
  netlist::Module m(j.str_or("name", "netlist"));
  if (const Json* ports = j.find("ports")) {
    for (const Json& pj : ports->items()) {
      const std::string& name = pj.at("name").string_value();
      const std::string& dir = pj.at("dir").string_value();
      if (dir != "in" && dir != "out") {
        throw Error("bad port direction '" + dir + "' (in or out)");
      }
      m.add_port(name,
                 dir == "in" ? genus::PortDir::kIn : genus::PortDir::kOut,
                 int_field(pj, "port", "width", 1));
    }
  }
  if (const Json* nets = j.find("nets")) {
    for (const Json& nj : nets->items()) {
      m.add_net(nj.at("name").string_value(),
                int_field(nj, "net", "width", 1));
    }
  }
  if (const Json* insts = j.find("instances")) {
    for (const Json& ij : insts->items()) {
      netlist::Instance& inst =
          m.add_spec_instance(ij.at("name").string_value(),
                              decode_spec(ij.at("spec")),
                              ij.str_or("ref_name", ""));
      if (const Json* conns = ij.find("conns")) {
        for (const Json& cj : conns->items()) {
          const base::Symbol port(cj.at("port").string_value());
          if (const Json* cv = cj.find("const")) {
            m.connect_const(inst, port, decode_const_value(*cv));
          } else if (cj.bool_or("open", false)) {
            inst.connections[port] = netlist::PortConn::open();
          } else {
            const std::string& net_name = cj.at("net").string_value();
            const netlist::NetIndex net = m.find_net(net_name);
            if (net == netlist::kNoNet) {
              throw Error("connection of '" + inst.name +
                          "' references unknown net '" + net_name + "'");
            }
            const int lo = int_field(cj, "connection", "lo", 0);
            if (cj.bool_or("replicate", false)) {
              m.connect_replicated(inst, port, net, lo);
            } else {
              m.connect(inst, port, net, lo);
            }
          }
        }
      }
    }
  }
  return m;
}

// --- options ----------------------------------------------------------------

namespace {

Json encode_options(const RequestOptions& o) {
  Json j = Json::object();
  j.set("deadline_ms", o.deadline_ms)
      .set("deadline_best_effort", o.deadline_best_effort)
      .set("threads", o.threads)
      .set("filter", o.filter)
      .set("max_alternatives_per_node", o.max_alternatives_per_node)
      .set("max_combinations_per_impl", o.max_combinations_per_impl)
      .set("min_delay_gain", o.min_delay_gain)
      .set("extraction_cache_budget_bytes", o.extraction_cache_budget_bytes)
      .set("emit_vhdl", o.emit_vhdl)
      .set("include_profile", o.include_profile)
      .set("verify", o.verify);
  return j;
}

/// `threads` sizes a thread pool, so an unchecked value could ask for
/// more threads than the process can create.
int checked_threads(double threads) {
  return checked_int("option", "threads", threads, 0,
                     RequestOptions::kMaxThreads);
}

/// The front keeps at most this many alternatives per node; below one
/// there is no front to return.
int checked_max_alternatives(double n) {
  return checked_int("option", "max_alternatives_per_node", n, 1, kIntMax);
}

RequestOptions decode_options(const Json& j) {
  RequestOptions o;
  o.deadline_ms = j.int_or("deadline_ms", o.deadline_ms);
  o.deadline_best_effort =
      j.bool_or("deadline_best_effort", o.deadline_best_effort);
  o.threads = checked_threads(j.num_or("threads", o.threads));
  o.filter = j.str_or("filter", o.filter);
  o.max_alternatives_per_node = checked_max_alternatives(
      j.num_or("max_alternatives_per_node", o.max_alternatives_per_node));
  o.max_combinations_per_impl =
      j.int_or("max_combinations_per_impl", o.max_combinations_per_impl);
  o.min_delay_gain = j.num_or("min_delay_gain", o.min_delay_gain);
  o.extraction_cache_budget_bytes = j.int_or(
      "extraction_cache_budget_bytes", o.extraction_cache_budget_bytes);
  o.emit_vhdl = j.bool_or("emit_vhdl", o.emit_vhdl);
  o.include_profile = j.bool_or("include_profile", o.include_profile);
  o.verify = j.bool_or("verify", o.verify);
  return o;
}

dtas::FilterKind filter_from_name(const std::string& name) {
  if (name == "pareto") return dtas::FilterKind::kPareto;
  if (name == "none") return dtas::FilterKind::kNone;
  if (name == "area_only") return dtas::FilterKind::kAreaOnly;
  if (name == "delay_only") return dtas::FilterKind::kDelayOnly;
  throw Error("unknown filter '" + name +
              "' (pareto, none, area_only, delay_only)");
}

}  // namespace

dtas::SpaceOptions RequestOptions::space_options() const {
  dtas::SpaceOptions o;
  o.filter = filter_from_name(filter);
  o.max_alternatives_per_node =
      checked_max_alternatives(max_alternatives_per_node);
  o.max_combinations_per_impl = max_combinations_per_impl;
  o.min_delay_gain = min_delay_gain;
  o.threads = checked_threads(threads);
  o.deadline_ms = deadline_ms;
  o.deadline_best_effort = deadline_best_effort;
  // The unset sentinel (-1) flows through to the dtas layer, where it
  // means exactly "take the BRIDGE_CACHE_BUDGET environment default" —
  // which is how the env var becomes a default an explicit request field
  // overrides.
  o.extraction_cache_budget_bytes = extraction_cache_budget_bytes;
  return o;
}

std::string RequestOptions::fingerprint() const {
  std::ostringstream out;
  out << "filter=" << filter << ";alts=" << max_alternatives_per_node
      << ";comb=" << max_combinations_per_impl
      << ";gain=" << format_json_number(min_delay_gain)
      << ";threads=" << threads
      << ";xbudget=" << extraction_cache_budget_bytes;
  return out.str();
}

// --- request ----------------------------------------------------------------

Json SynthesisRequest::encode() const {
  Json j = Json::object();
  j.set("library", library);
  if (spec) j.set("spec", encode_spec(*spec));
  if (input_netlist) j.set("netlist", encode_netlist(*input_netlist));
  j.set("options", encode_options(options));
  return j;
}

SynthesisRequest SynthesisRequest::decode(const Json& j) {
  SynthesisRequest req;
  req.library = j.str_or("library", "");
  if (req.library.empty()) throw Error("request has no 'library'");
  const Json* spec = j.find("spec");
  const Json* nl = j.find("netlist");
  if ((spec != nullptr) == (nl != nullptr)) {
    throw Error("request needs exactly one of 'spec' or 'netlist'");
  }
  if (spec != nullptr) req.spec = decode_spec(*spec);
  if (nl != nullptr) req.input_netlist = decode_netlist(*nl);
  if (const Json* opts = j.find("options")) {
    req.options = decode_options(*opts);
  }
  return req;
}

SynthesisRequest SynthesisRequest::from_json(const std::string& text) {
  return decode(Json::parse(text));
}

// --- result -----------------------------------------------------------------

Json SynthesisResult::encode() const {
  Json j = Json::object();
  j.set("status", status).set("error", error).set("deadline_hit",
                                                  deadline_hit);
  Json alts = Json::array();
  for (const ResultAlternative& a : alternatives) {
    Json aj = Json::object();
    aj.set("area", a.area).set("delay", a.delay)
        .set("description", a.description);
    if (!a.vhdl.empty()) aj.set("vhdl", a.vhdl);
    alts.push_back(std::move(aj));
  }
  j.set("alternatives", std::move(alts));
  Json sj = Json::object();
  sj.set("combinations_evaluated", stats.combinations_evaluated)
      .set("combinations_pruned", stats.combinations_pruned)
      .set("template_cache_hits", stats.template_cache_hits)
      .set("template_cache_misses", stats.template_cache_misses)
      .set("extraction_cache_hits", stats.extraction_cache_hits)
      .set("extraction_cache_misses", stats.extraction_cache_misses);
  j.set("stats", std::move(sj));
  if (!diagnostics.empty()) {
    Json dj = Json::array();
    for (const lint::Diagnostic& d : diagnostics) {
      Json e = Json::object();
      e.set("severity", std::string(lint::severity_name(d.severity)))
          .set("check", d.check)
          .set("module", d.module)
          .set("object", d.object)
          .set("message", d.message);
      dj.push_back(std::move(e));
    }
    j.set("diagnostics", std::move(dj));
  }
  if (has_profile) {
    Json pj = Json::object();
    pj.set("name", profile.name);
    Json phases = Json::array();
    for (const auto& [phase, ms] : profile.phases_ms) {
      phases.push_back(Json::array().push_back(phase).push_back(ms));
    }
    pj.set("phases_ms", std::move(phases));
    Json counters = Json::array();
    for (const auto& [counter, delta] : profile.counters) {
      counters.push_back(Json::array().push_back(counter).push_back(delta));
    }
    pj.set("counters", std::move(counters));
    j.set("profile", std::move(pj));
  }
  j.set("server_ms", server_ms);
  return j;
}

SynthesisResult SynthesisResult::decode(const Json& j) {
  SynthesisResult res;
  res.status = j.str_or("status", "ok");
  res.error = j.str_or("error", "");
  res.deadline_hit = j.bool_or("deadline_hit", false);
  if (const Json* alts = j.find("alternatives")) {
    for (const Json& aj : alts->items()) {
      ResultAlternative a;
      a.area = aj.num_or("area", 0.0);
      a.delay = aj.num_or("delay", 0.0);
      a.description = aj.str_or("description", "");
      a.vhdl = aj.str_or("vhdl", "");
      res.alternatives.push_back(std::move(a));
    }
  }
  if (const Json* sj = j.find("stats")) {
    res.stats.combinations_evaluated = sj->int_or("combinations_evaluated", 0);
    res.stats.combinations_pruned = sj->int_or("combinations_pruned", 0);
    res.stats.template_cache_hits = sj->int_or("template_cache_hits", 0);
    res.stats.template_cache_misses = sj->int_or("template_cache_misses", 0);
    res.stats.extraction_cache_hits = sj->int_or("extraction_cache_hits", 0);
    res.stats.extraction_cache_misses =
        sj->int_or("extraction_cache_misses", 0);
  }
  if (const Json* dj = j.find("diagnostics")) {
    for (const Json& e : dj->items()) {
      lint::Diagnostic d;
      d.severity = e.str_or("severity", "error") == "warning"
                       ? lint::Severity::kWarning
                       : lint::Severity::kError;
      d.check = e.str_or("check", "");
      d.module = e.str_or("module", "");
      d.object = e.str_or("object", "");
      d.message = e.str_or("message", "");
      res.diagnostics.push_back(std::move(d));
    }
  }
  if (const Json* pj = j.find("profile")) {
    res.has_profile = true;
    res.profile.name = pj->str_or("name", "");
    if (const Json* phases = pj->find("phases_ms")) {
      for (const Json& e : phases->items()) {
        res.profile.add_phase(e.items().at(0).string_value(),
                              e.items().at(1).number());
      }
    }
    if (const Json* counters = pj->find("counters")) {
      for (const Json& e : counters->items()) {
        res.profile.add_counter(e.items().at(0).string_value(),
                                e.items().at(1).integer());
      }
    }
  }
  res.server_ms = j.num_or("server_ms", 0.0);
  return res;
}

SynthesisResult SynthesisResult::from_json(const std::string& text) {
  return decode(Json::parse(text));
}

SynthesisResult SynthesisResult::make_error(std::string status,
                                            std::string message) {
  SynthesisResult res;
  res.status = std::move(status);
  res.error = std::move(message);
  return res;
}

bool front_matches(const SynthesisResult& result,
                   const std::vector<dtas::AlternativeDesign>& alts,
                   bool with_vhdl) {
  if (result.alternatives.size() != alts.size()) return false;
  vhdl::EmissionCache emission;
  for (std::size_t i = 0; i < alts.size(); ++i) {
    const ResultAlternative& got = result.alternatives[i];
    const dtas::AlternativeDesign& want = alts[i];
    if (got.area != want.metric.area) return false;
    if (got.delay != want.metric.delay) return false;
    if (got.description != want.description) return false;
    if (with_vhdl &&
        got.vhdl != vhdl::emit_structural(*want.design, emission)) {
      return false;
    }
  }
  return true;
}

// --- execution --------------------------------------------------------------

std::unique_ptr<dtas::Synthesizer> make_session(
    const SynthesisRequest& req, const cells::CellLibrary& library) {
  return std::make_unique<dtas::Synthesizer>(library,
                                             req.options.space_options());
}

SynthesisResult run_request(const SynthesisRequest& req,
                            dtas::Synthesizer& session) {
  SynthesisResult res;
  try {
    // Re-arm the per-request policy: a warm session serves requests with
    // different deadlines (synthesize calls arm_deadline themselves).
    session.space().set_deadline_policy(req.options.deadline_ms,
                                        req.options.deadline_best_effort,
                                        session.space().options().cancel);
    const dtas::SpaceStats before = session.space().stats();
    const dtas::ExtractionCache::Stats ex_before =
        session.extraction_cache().stats();

    std::vector<dtas::AlternativeDesign> alts =
        req.spec ? session.synthesize(*req.spec)
                 : session.synthesize_netlist(*req.input_netlist);

    const dtas::SpaceStats& after = session.space().stats();
    const dtas::ExtractionCache::Stats& ex_after =
        session.extraction_cache().stats();
    res.deadline_hit = after.deadline_hit;
    res.stats.combinations_evaluated =
        after.combinations_evaluated - before.combinations_evaluated;
    res.stats.combinations_pruned =
        after.combinations_pruned - before.combinations_pruned;
    res.stats.template_cache_hits =
        after.template_cache_hits - before.template_cache_hits;
    res.stats.template_cache_misses =
        after.template_cache_misses - before.template_cache_misses;
    res.stats.extraction_cache_hits = ex_after.hits - ex_before.hits;
    res.stats.extraction_cache_misses = ex_after.misses - ex_before.misses;

    // The request-side stages join the session's phases in the profile.
    obs::Profile profile;
    if (req.options.include_profile) profile = session.last_profile();
    const auto timed = [&profile](const char* phase, auto&& stage) {
      const auto start = std::chrono::steady_clock::now();
      stage();
      profile.add_phase(phase, std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
    };

    res.alternatives.reserve(alts.size());
    for (const dtas::AlternativeDesign& alt : alts) {
      ResultAlternative a;
      a.area = alt.metric.area;
      a.delay = alt.metric.delay;
      a.description = alt.description;
      res.alternatives.push_back(std::move(a));
    }
    if (req.options.emit_vhdl) {
      // Through the session's memo: a warm session renders each shared
      // module once, not once per request.
      timed("emit", [&] {
        for (std::size_t i = 0; i < alts.size(); ++i) {
          res.alternatives[i].vhdl = vhdl::emit_structural(
              *alts[i].design, session.emission_cache());
        }
      });
    }
    if (req.options.verify) {
      timed("verify", [&] {
        for (const dtas::AlternativeDesign& alt : alts) {
          std::vector<lint::Diagnostic> diags =
              lint::lint_design(*alt.design, session.lint_cache());
          res.diagnostics.insert(res.diagnostics.end(),
                                 std::make_move_iterator(diags.begin()),
                                 std::make_move_iterator(diags.end()));
        }
      });
    }
    if (req.options.include_profile) {
      res.has_profile = true;
      res.profile = std::move(profile);
    }
  } catch (const Cancelled& e) {
    return SynthesisResult::make_error("cancelled", e.what());
  } catch (const std::exception& e) {
    return SynthesisResult::make_error("error", e.what());
  }
  return res;
}

SynthesisResult run_request(const SynthesisRequest& req,
                            const cells::LibraryRegistry& registry) {
  const cells::CellLibrary* library = registry.find(req.library);
  if (library == nullptr) {
    try {
      registry.at(req.library);  // throws, listing the known names
    } catch (const std::exception& e) {
      return SynthesisResult::make_error("error", e.what());
    }
  }
  try {
    std::unique_ptr<dtas::Synthesizer> session = make_session(req, *library);
    return run_request(req, *session);
  } catch (const std::exception& e) {
    return SynthesisResult::make_error("error", e.what());
  }
}

}  // namespace bridge::api
