#include "oracle/oracle.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "base/diag.h"
#include "base/strutil.h"

namespace bridge::oracle {

using dtas::Alternative;
using dtas::AlternativeDesign;
using dtas::ImplNode;
using dtas::Metric;
using dtas::SpecNode;
using genus::ComponentSpec;
using genus::PortDir;
using genus::PortSpec;
using netlist::Design;
using netlist::Instance;
using netlist::Module;
using netlist::PortConn;
using netlist::RefKind;

namespace {

/// Per-instance connection view with resolved port directions.
struct InstView {
  bool sequential = false;
  // (port name, conn, width) split by direction.
  std::vector<std::tuple<base::Symbol, PortConn, int>> ins;
  std::vector<std::tuple<base::Symbol, PortConn, int>> outs;
};

std::vector<InstView> make_views(const Module& tmpl) {
  std::vector<InstView> views;
  views.reserve(tmpl.instances().size());
  std::vector<genus::PortSpec> storage;
  for (const Instance& inst : tmpl.instances()) {
    InstView v;
    v.sequential = genus::kind_is_sequential(inst.spec.kind);
    const auto& ports = Module::instance_ports_ref(inst, storage);
    for (const auto& [port_name, conn] : inst.connections) {
      const genus::PortSpec& p = genus::find_port(ports, port_name);
      if (p.dir == genus::PortDir::kIn) {
        v.ins.emplace_back(port_name, conn, p.width);
      } else {
        v.outs.emplace_back(port_name, conn, p.width);
      }
    }
    views.push_back(std::move(v));
  }
  return views;
}

}  // namespace

Metric eval_template(
    const Module& tmpl, const dtas::EvalSchedule& topo,
    const std::function<Metric(const ComponentSpec&)>& child_metric) {
  const auto& insts = tmpl.instances();
  const auto views = make_views(tmpl);
  Metric total;
  double worst_path = 0.0;

  // Arrival time per net bit.
  std::vector<std::vector<double>> arrival(tmpl.nets().size());
  for (size_t nn = 0; nn < tmpl.nets().size(); ++nn) {
    arrival[nn].assign(tmpl.nets()[nn].width, 0.0);
  }

  auto write_port = [&](int i, base::Symbol port, double t) {
    for (const auto& [pname, conn, width] : views[i].outs) {
      if (pname != port || conn.kind != PortConn::Kind::kNet) continue;
      for (int b = 0; b < width; ++b) {
        double& a = arrival[conn.net][conn.lo + b];
        a = std::max(a, t);
      }
    }
  };
  auto in_arrival = [&](int i, const base::Symbol* out_port) {
    double a = 0.0;
    for (const auto& [in_port, conn, width] : views[i].ins) {
      if (conn.kind != PortConn::Kind::kNet) continue;
      if (out_port != nullptr &&
          !genus::output_depends_on(insts[i].spec, *out_port, in_port)) {
        continue;
      }
      const int span = conn.replicate ? 1 : width;
      for (int b = 0; b < span; ++b) {
        a = std::max(a, arrival[conn.net][conn.lo + b]);
      }
    }
    return a;
  };

  // Area, and clock-to-q launch for sequential instances.
  std::vector<int> seq_insts;
  std::vector<double> inst_delay(insts.size(), 0.0);
  for (int i = 0; i < static_cast<int>(insts.size()); ++i) {
    Metric m = child_metric(insts[i].spec);
    total.area += m.area;
    inst_delay[i] = m.delay;
    if (views[i].sequential) {
      seq_insts.push_back(i);
      for (const auto& [pname, conn, width] : views[i].outs) {
        (void)conn;
        (void)width;
        write_port(i, pname, m.delay);
      }
      worst_path = std::max(worst_path, m.delay);
    }
  }
  for (const dtas::EvalStep& step : topo) {
    double t = in_arrival(step.instance, &step.port) +
               inst_delay[step.instance];
    write_port(step.instance, step.port, t);
    worst_path = std::max(worst_path, t);
  }
  // Paths terminating at sequential inputs (register setup).
  for (int i : seq_insts) {
    worst_path = std::max(worst_path, in_arrival(i, nullptr));
  }
  total.delay = worst_path;
  return total;
}

long run_reference_odometer(const Module& tmpl,
                            const dtas::EvalSchedule& topo,
                            const std::vector<SpecNode*>& children,
                            const std::vector<int>& limit, int impl_index,
                            std::vector<Alternative>& candidates) {
  long evaluated = 0;
  const int n = static_cast<int>(children.size());
  std::vector<int> choice(n, 0);
  for (;;) {
    auto metric_of = [&](const ComponentSpec& spec) -> Metric {
      for (int c = 0; c < n; ++c) {
        if (children[c]->spec == spec) {
          return children[c]->alts[choice[c]].metric;
        }
      }
      throw Error("template child spec not found: " + spec.key());
    };
    Alternative alt;
    alt.impl_index = impl_index;
    alt.child_alt = choice;
    alt.metric = eval_template(tmpl, topo, metric_of);
    ++evaluated;
    candidates.push_back(std::move(alt));

    int c = 0;
    while (c < n && ++choice[c] >= limit[c]) {
      choice[c] = 0;
      ++c;
    }
    if (c == n) break;
  }
  return evaluated;
}

namespace {

/// Per-child alternative limits of an odometer, capped like production.
std::vector<int> capped_limits(const dtas::DesignSpace& space,
                               const std::vector<SpecNode*>& children) {
  std::vector<int> limit;
  limit.reserve(children.size());
  for (const SpecNode* c : children) {
    limit.push_back(static_cast<int>(c->alts.size()));
  }
  dtas::DesignSpace::trim_limits(limit,
                                 space.options().max_combinations_per_impl);
  return limit;
}

}  // namespace

long reference_evaluate(dtas::DesignSpace& space, SpecNode* node) {
  if (node->evaluated) return 0;
  node->evaluated = true;  // set first: graph is acyclic by construction
  long combinations = 0;
  std::vector<Alternative> candidates;
  for (size_t ii = 0; ii < node->impls.size(); ++ii) {
    ImplNode* impl = node->impls[ii].get();
    if (impl->is_leaf()) {
      Alternative alt;
      alt.impl_index = static_cast<int>(ii);
      alt.metric = Metric{impl->cell->area, impl->cell->delay_ns};
      candidates.push_back(std::move(alt));
      continue;
    }
    bool viable = true;
    for (SpecNode* child : impl->children) {
      combinations += reference_evaluate(space, child);
      if (child->alts.empty()) {
        viable = false;
        break;
      }
    }
    if (!viable) {
      impl->dead = true;
      continue;
    }
    combinations += run_reference_odometer(
        *impl->tmpl, dtas::DesignSpace::topo_order(*impl->tmpl),
        impl->children, capped_limits(space, impl->children),
        static_cast<int>(ii), candidates);
  }
  node->alts = space.filter_alternatives(std::move(candidates));
  return combinations;
}

NetlistSweep reference_sweep(dtas::DesignSpace& space, const Module& input) {
  NetlistSweep sweep;
  for (const Instance& inst : input.instances()) {
    BRIDGE_CHECK(inst.ref == RefKind::kSpec,
                 "netlist input must be a netlist of specification "
                 "instances");
    SpecNode* node = space.expand(inst.spec);
    if (std::find(sweep.children.begin(), sweep.children.end(), node) ==
        sweep.children.end()) {
      sweep.children.push_back(node);
    }
  }
  for (SpecNode* c : sweep.children) {
    sweep.combinations += reference_evaluate(space, c);
    if (c->alts.empty()) return sweep;  // unrealizable instance
  }
  std::vector<Alternative> candidates;
  sweep.combinations += run_reference_odometer(
      input, dtas::DesignSpace::topo_order(input), sweep.children,
      capped_limits(space, sweep.children), /*impl_index=*/0, candidates);
  sweep.kept = space.filter_alternatives(std::move(candidates));
  return sweep;
}

// --- (b) expansion --------------------------------------------------------

namespace {

class UncachedRule final : public dtas::Rule {
 public:
  UncachedRule(std::shared_ptr<const dtas::RuleBase> owner,
               const dtas::Rule& rule)
      : Rule(rule.name(), rule.principle(), rule.library_specific()),
        owner_(std::move(owner)),
        rule_(rule) {}

  bool applies(const ComponentSpec& spec,
               const dtas::RuleContext& ctx) const override {
    return rule_.applies(spec, ctx);
  }
  std::vector<Module> expand(const ComponentSpec& spec,
                             const dtas::RuleContext& ctx) const override {
    return rule_.expand(spec, ctx);
  }
  bool cacheable() const override { return false; }
  // Forwarded so SpecNode::slice_fp, and with it extraction-cache keys,
  // match a space built on the original rules.
  std::uint64_t slice_fingerprint() const override {
    return rule_.slice_fingerprint();
  }

 private:
  std::shared_ptr<const dtas::RuleBase> owner_;  // keeps rule_ alive
  const dtas::Rule& rule_;
};

}  // namespace

dtas::RuleBase uncached_rules(dtas::RuleBase rules) {
  auto owner = std::make_shared<const dtas::RuleBase>(std::move(rules));
  dtas::RuleBase out;
  for (const auto& rule : owner->rules()) {
    out.add(std::make_unique<UncachedRule>(owner, *rule));
  }
  return out;
}

// --- (c) extraction -------------------------------------------------------

namespace {

/// Index of the distinct child implementing template instance `inst`.
int child_index(const std::vector<SpecNode*>& children, const Instance& inst) {
  for (size_t c = 0; c < children.size(); ++c) {
    if (children[c]->spec == inst.spec) return static_cast<int>(c);
  }
  throw Error("template child spec not found: " + inst.spec.key());
}

/// Builds every module of one design privately: (node, alternative)
/// subtrees are deduplicated within the design only.
class CopyExtractor {
 public:
  CopyExtractor(Design& out, dtas::ExtractionCache& names)
      : out_(out), names_(names) {}

  const Module* materialize(const SpecNode* node, int alt_index) {
    const auto key = std::make_pair(node, alt_index);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    Module& mod = out_.add_module(names_.name_for(node, alt_index));
    const Alternative& alt = node->alts.at(alt_index);
    const ImplNode* impl = node->impls.at(alt.impl_index).get();
    BRIDGE_CHECK(!impl->is_leaf(), "materialize called on a leaf alt");
    const Module& tmpl = *impl->tmpl;
    for (const auto& p : tmpl.module_ports()) {
      mod.add_port(p.name, p.dir, p.width);
    }
    for (const auto& n : tmpl.nets()) {
      if (mod.find_net(n.name) == netlist::kNoNet) {
        mod.add_net(n.name, n.width);
      }
    }
    for (const Instance& ti : tmpl.instances()) {
      const int c = child_index(impl->children, ti);
      bind(mod, ti, impl->children[c], alt.child_alt.at(c));
    }
    memo_[key] = &mod;
    return &mod;
  }

  /// Create the instance in `mod` implementing template instance `ti`
  /// with the chosen (child, alt).
  void bind(Module& mod, const Instance& ti, const SpecNode* child,
            int child_alt) {
    const Alternative& calt = child->alts.at(child_alt);
    const ImplNode* cimpl = child->impls.at(calt.impl_index).get();
    if (!cimpl->is_leaf()) {
      const Module* child_mod = materialize(child, child_alt);
      Instance& ni = mod.add_module_instance(ti.name, child_mod, child->spec);
      ni.connections = ti.connections;
      return;
    }
    const cells::Cell& cell = *cimpl->cell;
    Instance& ni = mod.add_cell_instance(ti.name, cell.spec, cell.name);
    for (const auto& [cell_port, binding] :
         dtas::cell_binding(cell.spec, child->spec)) {
      switch (binding.kind) {
        case dtas::PortBinding::Kind::kPort: {
          auto it = ti.connections.find(binding.need_port);
          if (it != ti.connections.end()) {
            ni.connections[cell_port] = it->second;
          } else {
            BRIDGE_CHECK(binding.dir == PortDir::kOut,
                         "instance " << ti.name << " of "
                                     << child->spec.key()
                                     << " leaves input port "
                                     << binding.need_port
                                     << " unconnected (cell " << cell.name
                                     << "." << cell_port << " would float)");
          }
          break;
        }
        case dtas::PortBinding::Kind::kConst:
          ni.connections[cell_port] = PortConn::constant(binding.value);
          break;
        case dtas::PortBinding::Kind::kOpen:
          break;
      }
    }
  }

 private:
  Design& out_;
  dtas::ExtractionCache& names_;
  std::map<std::pair<const SpecNode*, int>, const Module*> memo_;
};

/// Implementation traces, memoized per call only.
class Describer {
 public:
  const std::string& describe(const SpecNode* node, int alt_index,
                              int depth) {
    const auto key = std::make_tuple(node, alt_index, depth);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    const Alternative& alt = node->alts.at(alt_index);
    const ImplNode* impl = node->impls.at(alt.impl_index).get();
    std::string s;
    if (impl->is_leaf()) {
      s = impl->cell->name;
    } else {
      s = impl->rule_name;
      if (depth > 0 && !impl->children.empty()) {
        std::vector<std::string> parts;
        for (size_t c = 0; c < impl->children.size(); ++c) {
          const SpecNode* child = impl->children[c];
          // Only describe "interesting" children (skip SSI gate fodder).
          if (child->spec.kind == genus::Kind::kGate) continue;
          parts.push_back(genus::kind_name(child->spec.kind) + ":" +
                          describe(child, alt.child_alt[c], depth - 1));
        }
        if (!parts.empty()) s += " (" + join(parts, ", ") + ")";
      }
    }
    return memo_.emplace(key, std::move(s)).first->second;
  }

 private:
  std::map<std::tuple<const SpecNode*, int, int>, std::string> memo_;
};

}  // namespace

std::vector<AlternativeDesign> extract_copies(dtas::ExtractionCache& names,
                                              const SpecNode* node) {
  const ComponentSpec& spec = node->spec;
  std::vector<AlternativeDesign> out;
  Describer describer;
  for (size_t a = 0; a < node->alts.size(); ++a) {
    const Alternative& alt = node->alts[a];
    const ImplNode* impl = node->impls.at(alt.impl_index).get();
    AlternativeDesign d;
    d.metric = alt.metric;
    d.description = describer.describe(node, static_cast<int>(a), 2);
    d.design = std::make_shared<Design>(sanitize_identifier(spec.key()) +
                                        "__alt" + std::to_string(a));
    if (impl->is_leaf()) {
      // Wrap the direct cell match in a module with the spec's ports.
      Module& top = d.design->add_module(
          sanitize_identifier(spec.key() + "__direct" + std::to_string(a)));
      for (const PortSpec& p : genus::spec_ports(spec)) {
        top.add_port(p.name, p.dir, p.width);
      }
      Instance& ci =
          top.add_cell_instance("u0", impl->cell->spec, impl->cell->name);
      for (const auto& [cell_port, binding] :
           dtas::cell_binding(impl->cell->spec, spec)) {
        switch (binding.kind) {
          case dtas::PortBinding::Kind::kPort:
            top.connect(ci, cell_port, top.find_net(binding.need_port));
            break;
          case dtas::PortBinding::Kind::kConst:
            top.connect_const(ci, cell_port, binding.value);
            break;
          case dtas::PortBinding::Kind::kOpen:
            break;
        }
      }
      d.design->set_top(&top);
    } else {
      CopyExtractor ex(*d.design, names);
      d.design->set_top(ex.materialize(node, static_cast<int>(a)));
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<AlternativeDesign> extract_copies(dtas::ExtractionCache& names,
                                              const Module& input,
                                              const NetlistSweep& sweep) {
  std::vector<AlternativeDesign> out;
  Describer describer;
  for (size_t a = 0; a < sweep.kept.size(); ++a) {
    const Alternative& alt = sweep.kept[a];
    AlternativeDesign d;
    d.metric = alt.metric;
    d.design = std::make_shared<Design>(input.name() + "__alt" +
                                        std::to_string(a));
    Module& top = d.design->add_module(
        sanitize_identifier(input.name() + "__impl" + std::to_string(a)));
    for (const auto& p : input.module_ports()) {
      top.add_port(p.name, p.dir, p.width);
    }
    for (const auto& nn : input.nets()) {
      if (top.find_net(nn.name) == netlist::kNoNet) {
        top.add_net(nn.name, nn.width);
      }
    }
    CopyExtractor ex(*d.design, names);
    for (const Instance& ti : input.instances()) {
      const int c = child_index(sweep.children, ti);
      ex.bind(top, ti, sweep.children[c], alt.child_alt[c]);
    }
    std::vector<std::string> parts;
    for (size_t c = 0; c < sweep.children.size(); ++c) {
      const SpecNode* child = sweep.children[c];
      parts.push_back(genus::kind_name(child->spec.kind) + ":" +
                      describer.describe(child, alt.child_alt[c], 1));
    }
    d.description = join(parts, "; ");
    d.design->set_top(&top);
    out.push_back(std::move(d));
  }
  return out;
}

// --- whole-call references ------------------------------------------------

std::vector<AlternativeDesign> reference_synthesize(
    dtas::Synthesizer& synth, const ComponentSpec& spec,
    long* combinations) {
  const long n = reference_evaluate(synth.space(), synth.space().expand(spec));
  if (combinations != nullptr) *combinations = n;
  return synth.synthesize(spec);
}

std::vector<AlternativeDesign> reference_synthesize_netlist(
    dtas::Synthesizer& synth, const Module& input, long* combinations) {
  const NetlistSweep sweep = reference_sweep(synth.space(), input);
  if (combinations != nullptr) *combinations = sweep.combinations;
  return extract_copies(synth.extraction_cache(), input, sweep);
}

}  // namespace bridge::oracle
