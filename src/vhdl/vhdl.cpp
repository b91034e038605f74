#include "vhdl/vhdl.h"

#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "base/diag.h"
#include "base/strutil.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bridge::vhdl {

using genus::PortDir;
using genus::PortSpec;
using netlist::Instance;
using netlist::Module;
using netlist::PortConn;

namespace {

std::string bus_type(int width) {
  if (width == 1) return "std_logic";
  return "std_logic_vector(" + std::to_string(width - 1) + " downto 0)";
}

std::string bit_literal(std::uint64_t value, int width) {
  if (width == 1) return std::string("'") + ((value & 1) ? "1" : "0") + "'";
  std::string bits;
  for (int b = width - 1; b >= 0; --b) {
    bits.push_back(((value >> b) & 1) ? '1' : '0');
  }
  return "\"" + bits + "\"";
}

std::string slice_ref(const std::string& net, int net_width, int lo,
                      int width) {
  if (net_width == 1) return net;
  if (width == 1) return net + "(" + std::to_string(lo) + ")";
  return net + "(" + std::to_string(lo + width - 1) + " downto " +
         std::to_string(lo) + ")";
}

void emit_entity(std::ostringstream& os, const std::string& name,
                 const std::vector<PortSpec>& ports) {
  os << "entity " << name << " is\n  port (\n";
  for (size_t i = 0; i < ports.size(); ++i) {
    const PortSpec& p = ports[i];
    os << "    " << sanitize_identifier(p.name) << " : "
       << (p.dir == PortDir::kIn ? "in " : "out ") << bus_type(p.width)
       << (i + 1 == ports.size() ? ");" : ";") << "\n";
  }
  os << "end entity " << name << ";\n\n";
}

std::vector<PortSpec> module_port_specs(const Module& m) {
  std::vector<PortSpec> ports;
  for (const auto& p : m.module_ports()) {
    ports.push_back(PortSpec{p.name, p.dir, p.width, genus::PortRole::kData});
  }
  return ports;
}

void emit_module(std::ostringstream& os, const Module& m) {
  const std::string name = sanitize_identifier(m.name());
  emit_entity(os, name, module_port_specs(m));

  os << "architecture structural of " << name << " is\n";

  // Component declarations for each distinct reference.
  std::set<std::string> declared;
  for (const Instance& inst : m.instances()) {
    const std::string ref = sanitize_identifier(inst.ref_name);
    if (!declared.insert(ref).second) continue;
    os << "  component " << ref << "\n    port (\n";
    const auto ports = Module::instance_ports(inst);
    for (size_t i = 0; i < ports.size(); ++i) {
      const PortSpec& p = ports[i];
      os << "      " << sanitize_identifier(p.name) << " : "
         << (p.dir == PortDir::kIn ? "in " : "out ") << bus_type(p.width)
         << (i + 1 == ports.size() ? ");" : ";") << "\n";
    }
    os << "  end component;\n";
  }

  // Internal signals: every net that is not a module port.
  std::set<std::string> port_nets;
  for (const auto& p : m.module_ports()) port_nets.insert(p.name);
  for (const auto& n : m.nets()) {
    if (port_nets.count(n.name)) continue;
    os << "  signal " << sanitize_identifier(n.name) << " : "
       << bus_type(n.width) << ";\n";
  }

  // Helper signals for constants and replication.
  int helper = 0;
  std::ostringstream helper_decls;
  std::ostringstream helper_assigns;
  std::ostringstream body;
  for (const Instance& inst : m.instances()) {
    body << "  " << sanitize_identifier(inst.name) << " : "
         << sanitize_identifier(inst.ref_name) << "\n    port map (\n";
    const auto ports = Module::instance_ports(inst);
    std::vector<std::string> bindings;
    for (const PortSpec& p : ports) {
      auto it = inst.connections.find(p.name);
      if (it == inst.connections.end() ||
          it->second.kind == PortConn::Kind::kOpen) {
        if (p.dir == PortDir::kOut) {
          bindings.push_back(sanitize_identifier(p.name) + " => open");
        }
        continue;
      }
      const PortConn& c = it->second;
      std::string actual;
      if (c.kind == PortConn::Kind::kConst) {
        actual = bit_literal(c.const_value, p.width);
      } else {
        const auto& net = m.net(c.net);
        const std::string net_name = sanitize_identifier(net.name);
        if (c.replicate && p.width > 1) {
          // VHDL port maps cannot replicate; use a helper signal.
          std::string h = "rep_" + std::to_string(helper++);
          helper_decls << "  signal " << h << " : " << bus_type(p.width)
                       << ";\n";
          helper_assigns << "  " << h << " <= (others => "
                         << slice_ref(net_name, net.width, c.lo, 1)
                         << ");\n";
          actual = h;
        } else if (c.replicate) {
          actual = slice_ref(net_name, net.width, c.lo, 1);
        } else {
          actual = slice_ref(net_name, net.width, c.lo, p.width);
        }
      }
      bindings.push_back(sanitize_identifier(p.name) + " => " + actual);
    }
    for (size_t i = 0; i < bindings.size(); ++i) {
      body << "      " << bindings[i]
           << (i + 1 == bindings.size() ? ");" : ",") << "\n";
    }
  }
  os << helper_decls.str();
  os << "begin\n";
  os << helper_assigns.str();
  os << body.str();
  os << "end architecture structural;\n\n";
}

std::string render_module(const Module& m) {
  std::ostringstream os;
  emit_module(os, m);
  return os.str();
}

/// Registry mirrors of the emission-cache stats. The bytes gauge
/// aggregates across every live EmissionCache in the process (each adds
/// its deltas and subtracts its residue on destruction), like the
/// extraction-cache gauge.
struct EmissionCacheMetrics {
  obs::Counter& hits =
      obs::Registry::global().counter("vhdl.emission_cache.hits");
  obs::Counter& misses =
      obs::Registry::global().counter("vhdl.emission_cache.misses");
  obs::Gauge& bytes =
      obs::Registry::global().gauge("vhdl.emission_cache.bytes");

  static EmissionCacheMetrics& get() {
    static EmissionCacheMetrics m;
    return m;
  }
};

}  // namespace

std::string sanitize_identifier(const std::string& name) {
  return bridge::sanitize_identifier(name);
}

EmissionCache::~EmissionCache() {
  if (published_.bytes != 0) {
    EmissionCacheMetrics::get().bytes.add(-published_.bytes);
  }
}

const std::string& EmissionCache::module_text(
    const Module& m, const std::shared_ptr<const Module>& owner) {
  const auto lookup = memo_.get(
      m, owner,
      [&](std::string& text) {
        text = render_module(m);
        stats_.bytes += static_cast<long>(text.size());
      },
      [&](const std::string& dropped) {
        stats_.bytes -= static_cast<long>(dropped.size());
      });
  ++(lookup.hit ? stats_.hits : stats_.misses);
  return lookup.value;
}

void EmissionCache::publish() {
  // Zero deltas are skipped: a warm call then touches one shared atomic.
  EmissionCacheMetrics& metrics = EmissionCacheMetrics::get();
  if (stats_.hits != published_.hits) {
    metrics.hits.add(stats_.hits - published_.hits);
  }
  if (stats_.misses != published_.misses) {
    metrics.misses.add(stats_.misses - published_.misses);
  }
  if (stats_.bytes != published_.bytes) {
    metrics.bytes.add(stats_.bytes - published_.bytes);
  }
  published_ = stats_;
}

std::string emit_structural(const Module& module) {
  obs::Span span("emit", "vhdl");
  std::ostringstream os;
  os << "library ieee;\nuse ieee.std_logic_1164.all;\n\n";
  emit_module(os, module);
  return os.str();
}

std::string emit_structural(const netlist::Design& design,
                            EmissionCache& cache) {
  obs::Span span("emit", "vhdl");
  std::string out = "-- structural VHDL for design '" + design.name() +
                    "'\nlibrary ieee;\nuse ieee.std_logic_1164.all;\n\n";
  const auto append = [&](const Module& m,
                          const std::shared_ptr<const Module>* owner) {
    if (owner != nullptr) {
      out += cache.module_text(m, *owner);
    } else {
      out += render_module(m);  // design-owned: dies with the design
    }
  };
  // Children first so every referenced entity precedes its use.
  const std::shared_ptr<const Module>* top_owner = nullptr;
  design.for_each_module(
      [&](const Module& m, const std::shared_ptr<const Module>* owner) {
        if (&m == design.top()) {
          top_owner = owner;
        } else {
          append(m, owner);
        }
      });
  if (design.top() != nullptr) append(*design.top(), top_owner);
  cache.publish();
  return out;
}

std::string emit_structural(const netlist::Design& design) {
  EmissionCache cache;
  return emit_structural(design, cache);
}

std::string emit_behavioral(const genus::Component& component) {
  obs::Span span("emit", "vhdl");
  std::ostringstream os;
  const std::string name = sanitize_identifier(component.name());
  os << "-- behavioral model generated from GENUS generator '"
     << component.generator_name() << "'\n";
  os << "library ieee;\nuse ieee.std_logic_1164.all;\n";
  os << "use ieee.numeric_std.all;\n\n";
  emit_entity(os, name, component.ports());

  os << "architecture behavior of " << name << " is\nbegin\n";
  const bool sequential = genus::kind_is_sequential(component.spec().kind);
  std::vector<std::string> sensitivity;
  std::string clock;
  for (const auto& p : component.ports()) {
    if (p.dir != PortDir::kIn) continue;
    if (p.role == genus::PortRole::kClock) {
      clock = sanitize_identifier(p.name);
      continue;
    }
    sensitivity.push_back(sanitize_identifier(p.name));
  }
  if (sequential && !clock.empty()) {
    os << "  process (" << clock << ")\n  begin\n";
    os << "    if rising_edge(" << clock << ") then\n";
    for (const auto& op : component.operations()) {
      os << "      -- " << op.name;
      if (!op.control.empty()) os << " (when " << op.control << " = '1')";
      os << ": " << op.semantics << "\n";
    }
    bool first = true;
    for (const auto& op : component.operations()) {
      if (op.control.empty()) continue;
      os << "      " << (first ? "if" : "elsif") << " "
         << sanitize_identifier(op.control) << " = '1' then\n";
      os << "        null;  -- " << op.semantics << "\n";
      first = false;
    }
    if (!first) os << "      end if;\n";
    os << "    end if;\n  end process;\n";
  } else {
    os << "  process (" << join(sensitivity, ", ") << ")\n  begin\n";
    for (const auto& op : component.operations()) {
      os << "    -- " << op.name << ": " << op.semantics << "\n";
    }
    os << "    null;\n  end process;\n";
  }
  os << "end architecture behavior;\n";
  return os.str();
}

}  // namespace bridge::vhdl
