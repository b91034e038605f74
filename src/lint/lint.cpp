#include "lint/lint.h"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/strutil.h"
#include "genus/kind.h"

namespace bridge::lint {

using genus::PortDir;
using genus::PortSpec;
using netlist::Design;
using netlist::Instance;
using netlist::Module;
using netlist::ModulePort;
using netlist::Net;
using netlist::NetIndex;
using netlist::PortConn;
using netlist::RefKind;

namespace {

void emit(std::vector<Diagnostic>& out, Severity sev, const char* check,
          const Module& m, std::string object, std::string message) {
  Diagnostic d;
  d.severity = sev;
  d.check = check;
  d.module = m.name();
  d.object = std::move(object);
  d.message = std::move(message);
  out.push_back(std::move(d));
}

/// VHDL-87 reserved words (lowercase). Only module names are screened:
/// entity/architecture identifiers come straight from module names, while
/// port and signal names named after reserved words ("OUT" is the standard
/// result-port name across spec_ports) are disambiguated by sanitization
/// context and accepted by the emitter today.
bool is_vhdl_reserved(const std::string& lower) {
  static const std::unordered_set<std::string_view> kWords = {
      "abs",       "access",    "after",     "alias",     "all",
      "and",       "architecture", "array",  "assert",    "attribute",
      "begin",     "block",     "body",      "buffer",    "bus",
      "case",      "component", "configuration", "constant", "disconnect",
      "downto",    "else",      "elsif",     "end",       "entity",
      "exit",      "file",      "for",       "function",  "generate",
      "generic",   "guarded",   "if",        "in",        "inout",
      "is",        "label",     "library",   "linkage",   "loop",
      "map",       "mod",       "nand",      "new",       "next",
      "nor",       "not",       "null",      "of",        "on",
      "open",      "or",        "others",    "out",       "package",
      "port",      "procedure", "process",   "range",     "record",
      "register",  "rem",       "report",    "return",    "select",
      "severity",  "signal",    "subtype",   "then",      "to",
      "transport", "type",      "units",     "until",     "use",
      "variable",  "wait",      "when",      "while",     "with",
      "xor",
  };
  return kWords.count(lower) != 0;
}

/// The identifier two netlist names collide under: VHDL is
/// case-insensitive and the emitter sanitizes, so distinct netlist names
/// can land on one VHDL identifier.
std::string emitted_identity(const std::string& name) {
  std::string id = sanitize_identifier(name);
  for (char& c : id) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return id;
}

/// Report name collisions within one namespace (`what` = "net",
/// "instance", "module"). `names` preserves declaration order so the
/// diagnostic always lands on the *second* declaration and names the
/// first.
void check_name_collisions(std::vector<Diagnostic>& out, const Module& m,
                           const char* what,
                           const std::vector<std::string>& names) {
  std::unordered_map<std::string, const std::string*> seen;
  for (const std::string& name : names) {
    if (name.empty()) {
      emit(out, Severity::kError, "illegal-name", m, "",
           std::string("empty ") + what + " name");
      continue;
    }
    const std::string id = emitted_identity(name);
    auto [it, inserted] = seen.emplace(id, &name);
    if (!inserted && *it->second != name) {
      emit(out, Severity::kError, "name-collision", m, name,
           std::string(what) + " '" + name + "' collides with '" +
               *it->second + "' (both emit as VHDL identifier '" + id + "')");
    }
  }
}

/// Per-instance connection view with resolved directions (the same shape
/// the evaluator builds; see dtas::DesignSpace::topo_order). Instances
/// whose structural pass found dangling or overflowing bindings are
/// excluded from the loop graph — their edges are meaningless.
struct InstView {
  bool combinational = false;
  bool valid = true;  // structural pass found no bad bindings
  // (port name, conn, width), split by direction. Only net bindings.
  std::vector<std::tuple<base::Symbol, PortConn, int>> ins;
  std::vector<std::tuple<base::Symbol, PortConn, int>> outs;
};

/// Combinational-cycle detection over (instance, output port) units with
/// net-bit-granular edges and genus::output_depends_on false-path
/// filtering — the exact dependency model of DesignSpace::topo_order and
/// TimingPlan, so anything those schedule, this passes (carry-lookahead
/// P/G trees stay acyclic). Units surviving both a forward and a backward
/// Kahn elimination lie on (or between) cycles; they are reported as one
/// diagnostic naming the involved instances.
void check_comb_loops(std::vector<Diagnostic>& out, const Module& m,
                      const std::vector<InstView>& views,
                      const std::vector<int>& net_off) {
  const auto& insts = m.instances();
  struct Unit {
    int instance;
    base::Symbol port;
  };
  std::vector<Unit> units;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const InstView& v = views[i];
    if (!v.combinational || !v.valid) continue;
    for (const auto& [port, conn, width] : v.outs) {
      (void)conn;
      (void)width;
      units.push_back(Unit{static_cast<int>(i), port});
    }
  }
  if (units.empty()) return;

  // Driver unit per net bit (-1: external / sequential / constant).
  std::vector<int> bit_driver(net_off.back(), -1);
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (const auto& [port, conn, width] : views[units[u].instance].outs) {
      if (port != units[u].port) continue;
      for (int b = 0; b < width; ++b) {
        bit_driver[net_off[conn.net] + conn.lo + b] = static_cast<int>(u);
      }
    }
  }

  std::vector<std::vector<int>> succs(units.size());
  std::vector<std::vector<int>> preds(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    const Instance& inst = insts[units[u].instance];
    std::vector<int> ps;
    for (const auto& [in_port, conn, width] : views[units[u].instance].ins) {
      if (!genus::output_depends_on(inst.spec, units[u].port, in_port)) {
        continue;
      }
      const int span = conn.replicate ? 1 : width;
      for (int b = 0; b < span; ++b) {
        const int d = bit_driver[net_off[conn.net] + conn.lo + b];
        if (d >= 0 && d != static_cast<int>(u)) ps.push_back(d);
      }
    }
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
    for (int p : ps) succs[p].push_back(static_cast<int>(u));
    preds[u] = std::move(ps);
  }

  // Kahn in each direction; a unit eliminated by neither sits on a cycle
  // (or on a path connecting two cycles).
  auto eliminate = [&](const std::vector<std::vector<int>>& deg_edges,
                       const std::vector<std::vector<int>>& out_edges) {
    std::vector<int> degree(units.size(), 0);
    std::vector<int> ready;
    for (std::size_t u = 0; u < units.size(); ++u) {
      degree[u] = static_cast<int>(deg_edges[u].size());
      if (degree[u] == 0) ready.push_back(static_cast<int>(u));
    }
    std::vector<bool> removed(units.size(), false);
    while (!ready.empty()) {
      const int u = ready.back();
      ready.pop_back();
      removed[u] = true;
      for (int s : out_edges[u]) {
        if (--degree[s] == 0) ready.push_back(s);
      }
    }
    return removed;
  };
  const std::vector<bool> fwd = eliminate(preds, succs);
  const std::vector<bool> bwd = eliminate(succs, preds);

  std::vector<std::string> cyclic;
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (!fwd[u] && !bwd[u]) cyclic.push_back(insts[units[u].instance].name);
  }
  if (cyclic.empty()) return;
  std::sort(cyclic.begin(), cyclic.end());
  cyclic.erase(std::unique(cyclic.begin(), cyclic.end()), cyclic.end());
  std::ostringstream msg;
  msg << "combinational cycle through " << cyclic.size() << " instance"
      << (cyclic.size() == 1 ? "" : "s") << ":";
  for (const std::string& name : cyclic) msg << " " << name;
  emit(out, Severity::kError, "comb-loop", m, cyclic.front(), msg.str());
}

}  // namespace

const char* severity_name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

std::string Diagnostic::to_string() const {
  std::string s = severity_name(severity);
  s += "[";
  s += check;
  s += "] ";
  s += module;
  if (!object.empty()) {
    s += "/";
    s += object;
  }
  s += ": ";
  s += message;
  return s;
}

std::vector<Diagnostic> lint_module(const Module& m) {
  std::vector<Diagnostic> out;

  // Module name legality (entity identifier).
  {
    const std::string id = emitted_identity(m.name());
    if (m.name().empty()) {
      emit(out, Severity::kError, "illegal-name", m, "",
           "empty module name");
    } else if (is_vhdl_reserved(id)) {
      emit(out, Severity::kError, "illegal-name", m, m.name(),
           "module name sanitizes to VHDL reserved word '" + id + "'");
    }
  }

  // Per-bit driver/reader maps (the check_module structural model, with
  // structured output), flattened into two arrays over a shared per-net
  // offset table — the linter runs on every front under verify_designs,
  // so per-net inner vectors are allocation weight it can't afford.
  std::vector<int> net_off(m.nets().size() + 1, 0);
  for (std::size_t n = 0; n < m.nets().size(); ++n) {
    net_off[n + 1] = net_off[n] + m.nets()[n].width;
  }
  std::vector<int> drivers(net_off.back(), 0);
  std::vector<int> readers(net_off.back(), 0);

  for (const ModulePort& p : m.module_ports()) {
    const int off = net_off[p.net];
    const int w = m.nets()[p.net].width;
    for (int b = 0; b < w; ++b) {
      ++(p.dir == PortDir::kIn ? drivers : readers)[off + b];
    }
  }

  std::vector<InstView> views(m.instances().size());
  std::vector<genus::PortSpec> storage;
  std::size_t inst_index = 0;
  for (const Instance& inst : m.instances()) {
    InstView& view = views[inst_index++];
    if (inst.ref == RefKind::kModule && inst.module == nullptr) {
      emit(out, Severity::kError, "dangling-module-ref", m, inst.name,
           "module instance with null child module");
      view.valid = false;
      continue;
    }
    view.combinational = !genus::kind_is_sequential(inst.spec.kind);
    const auto& ports = Module::instance_ports_ref(inst, storage);
    for (const PortSpec& p : ports) {
      // Built only on the diagnostic paths — the clean path is the one
      // every front pays for.
      const auto obj = [&] { return inst.name + "." + p.name.str(); };
      auto it = inst.connections.find(p.name);
      if (it == inst.connections.end() ||
          it->second.kind == PortConn::Kind::kOpen) {
        if (p.dir == PortDir::kIn) {
          emit(out, Severity::kError, "floating-input", m, obj(),
               "input port is unconnected");
        }
        continue;
      }
      const PortConn& c = it->second;
      if (c.kind == PortConn::Kind::kConst) {
        if (p.dir == PortDir::kOut) {
          emit(out, Severity::kError, "const-tie", m, obj(),
               "constant bound to an output port");
        } else if (p.width > 64) {
          emit(out, Severity::kError, "const-tie", m, obj(),
               "constant on a port wider than 64 bits");
        } else if (p.width < 64 && (c.const_value >> p.width) != 0) {
          std::ostringstream msg;
          msg << "constant 0x" << std::hex << c.const_value << std::dec
              << " does not fit the " << p.width << "-bit port";
          emit(out, Severity::kError, "const-tie", m, obj(), msg.str());
        }
        continue;
      }
      if (c.net < 0 || c.net >= static_cast<NetIndex>(m.nets().size())) {
        emit(out, Severity::kError, "dangling-net", m, obj(),
             "connection references a net outside the module");
        view.valid = false;
        continue;
      }
      const Net& net = m.nets()[c.net];
      if (c.replicate) {
        if (p.dir == PortDir::kOut) {
          emit(out, Severity::kError, "width-mismatch", m, obj(),
               "replication is only legal on input ports");
          view.valid = false;
        } else if (c.lo < 0 || c.lo >= net.width) {
          std::ostringstream msg;
          msg << "replicated source bit " << c.lo << " is outside net '"
              << net.name << "' (width " << net.width << ")";
          emit(out, Severity::kError, "width-mismatch", m, obj(), msg.str());
          view.valid = false;
        } else {
          ++readers[net_off[c.net] + c.lo];
          view.ins.emplace_back(p.name, c, p.width);
        }
        continue;
      }
      if (c.lo < 0 || c.lo + p.width > net.width) {
        std::ostringstream msg;
        msg << "slice [" << c.lo << ", " << c.lo + p.width
            << ") of the " << p.width << "-bit port overflows net '"
            << net.name << "' (width " << net.width << ")";
        emit(out, Severity::kError, "width-mismatch", m, obj(), msg.str());
        view.valid = false;
        continue;
      }
      int* counts = (p.dir == PortDir::kOut ? drivers : readers).data();
      for (int b = 0; b < p.width; ++b) {
        ++counts[net_off[c.net] + c.lo + b];
      }
      if (p.dir == PortDir::kOut) {
        view.outs.emplace_back(p.name, c, p.width);
      } else {
        view.ins.emplace_back(p.name, c, p.width);
      }
    }
    for (const auto& [port_name, conn] : inst.connections) {
      (void)conn;
      bool known = false;
      for (const PortSpec& p : ports) {
        if (p.name == port_name) {
          known = true;
          break;
        }
      }
      if (!known) {
        emit(out, Severity::kError, "unknown-port", m,
             inst.name + "." + port_name.str(),
             "connection to a port the instance does not have");
      }
    }
  }

  // Per-net driver verdicts, aggregated per net (first offending bit in
  // the message) so wide buses yield one diagnostic, not one per bit.
  for (std::size_t n = 0; n < m.nets().size(); ++n) {
    const Net& net = m.nets()[n];
    const int off = net_off[n];
    int multi_bit = -1, multi_count = 0, multi_drivers = 0;
    int undriven_bit = -1, undriven_count = 0;
    for (int b = 0; b < net.width; ++b) {
      if (drivers[off + b] > 1) {
        if (multi_bit < 0) {
          multi_bit = b;
          multi_drivers = drivers[off + b];
        }
        ++multi_count;
      }
      if (drivers[off + b] == 0 && readers[off + b] > 0) {
        if (undriven_bit < 0) undriven_bit = b;
        ++undriven_count;
      }
    }
    if (multi_bit >= 0) {
      std::ostringstream msg;
      msg << "bit " << multi_bit << " has " << multi_drivers << " drivers";
      if (multi_count > 1) msg << " (" << multi_count << " bits affected)";
      emit(out, Severity::kError, "multi-driven-net", m, net.name.str(),
           msg.str());
    }
    if (undriven_bit >= 0) {
      std::ostringstream msg;
      msg << "bit " << undriven_bit << " is read but driven by nothing";
      if (undriven_count > 1) {
        msg << " (" << undriven_count << " bits affected)";
      }
      emit(out, Severity::kError, "undriven-net", m, net.name.str(),
           msg.str());
    }
  }

  check_comb_loops(out, m, views, net_off);

  {
    std::vector<std::string> names;
    names.reserve(m.nets().size());
    for (const Net& net : m.nets()) names.push_back(net.name.str());
    check_name_collisions(out, m, "net", names);
    names.clear();
    for (const Instance& inst : m.instances()) names.push_back(inst.name);
    check_name_collisions(out, m, "instance", names);
  }

  return out;
}

namespace {

/// The per-module work lint_design needs, computed once: diagnostics,
/// module references, emitted name identity.
void fill_entry(Cache::Entry& e, const Module& m) {
  e.diags = lint_module(m);
  e.identity = emitted_identity(m.name());
  for (const Instance& inst : m.instances()) {
    if (inst.ref == RefKind::kModule && inst.module != nullptr) {
      e.refs.emplace_back(&inst, inst.module);
    }
  }
}

}  // namespace

const Cache::Entry& Cache::module_entry(
    const netlist::Module& m,
    const std::shared_ptr<const netlist::Module>& owner) {
  return memo_.get(m, owner, [&](Entry& e) { fill_entry(e, m); }).value;
}

std::vector<Diagnostic> lint_design(const Design& d) {
  Cache cache;
  return lint_design(d, cache);
}

std::vector<Diagnostic> lint_design(const Design& d, Cache& cache) {
  std::vector<Diagnostic> out;
  std::unordered_set<const Module*> members(d.module_order().begin(),
                                            d.module_order().end());
  // Shared modules are memoizable (the design hands us their co-owning
  // handles, which the cache tracks weakly); design-owned modules die
  // with the design, so their work is computed fresh into local storage.
  std::vector<Cache::Entry> local;  // stable: reserved to worst case
  local.reserve(d.module_order().size());
  // Entry per module_order position, so the name-collision pass below
  // can reuse the memoized identities.
  std::vector<const Cache::Entry*> entries;
  entries.reserve(d.module_order().size());
  d.for_each_module([&](const Module& m,
                        const std::shared_ptr<const Module>* owner) {
    const Cache::Entry* ep;
    if (owner != nullptr) {
      ep = &cache.module_entry(m, *owner);
    } else {
      local.emplace_back();
      fill_entry(local.back(), m);
      ep = &local.back();
    }
    const Cache::Entry& e = *ep;
    entries.push_back(&e);
    out.insert(out.end(), e.diags.begin(), e.diags.end());
    for (const auto& [inst, child] : e.refs) {
      if (members.count(child) == 0) {
        emit(out, Severity::kError, "dangling-module-ref", m, inst->name,
             "instance references module '" + child->name() +
                 "', which is not part of the design");
      }
    }
  });
  // Module-name collisions across the design, against the memoized
  // emitted identities (check_name_collisions semantics: the diagnostic
  // lands on the second declaration and names the first).
  if (!d.module_order().empty()) {
    const Module& ctx = *d.module_order().front();
    std::unordered_map<std::string_view, const std::string*> seen;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::string& name = d.module_order()[i]->name();
      if (name.empty()) {
        emit(out, Severity::kError, "illegal-name", ctx, "",
             "empty module name");
        continue;
      }
      const std::string& id = entries[i]->identity;
      auto [it, inserted] = seen.emplace(id, &name);
      if (!inserted && *it->second != name) {
        emit(out, Severity::kError, "name-collision", ctx, name,
             std::string("module '") + name + "' collides with '" +
                 *it->second + "' (both emit as VHDL identifier '" + id +
                 "')");
      }
    }
  }
  return out;
}

std::vector<Diagnostic> check_template(
    const Module& tmpl, const std::vector<genus::ComponentSpec>& child_specs) {
  std::vector<Diagnostic> out = lint_module(tmpl);
  std::unordered_set<genus::ComponentSpec> listed(child_specs.begin(),
                                                  child_specs.end());
  std::unordered_set<genus::ComponentSpec> used;
  for (const Instance& inst : tmpl.instances()) {
    if (inst.ref != RefKind::kSpec) {
      emit(out, Severity::kError, "template-spec-mismatch", tmpl, inst.name,
           "template instance is not a spec reference");
      continue;
    }
    used.insert(inst.spec);
    if (listed.count(inst.spec) == 0) {
      emit(out, Severity::kError, "template-spec-mismatch", tmpl, inst.name,
           "instance spec " + inst.spec.key() +
               " is missing from the template's child spec list");
    }
  }
  for (const genus::ComponentSpec& spec : child_specs) {
    if (used.count(spec) == 0) {
      emit(out, Severity::kError, "unused-child-spec", tmpl, spec.key(),
           "child spec is listed but never instantiated");
    }
  }
  return out;
}

bool has_errors(const std::vector<Diagnostic>& diags) {
  return std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.severity == Severity::kError;
  });
}

std::string render(const std::vector<Diagnostic>& diags) {
  std::string s;
  for (const Diagnostic& d : diags) {
    if (!s.empty()) s += "\n";
    s += d.to_string();
  }
  return s;
}

}  // namespace bridge::lint
