// Hierarchical structural netlists.
//
// Netlists appear in three places in the paper's flow (Figure 1):
//   1. High-level synthesis emits a netlist of GENUS component instances.
//   2. Each DTAS decomposition step is "a netlist [that] represents one
//      level of component decomposition; its modules represent connected
//      subcomponents".
//   3. DTAS output is "a set of hierarchical, library-specific netlists".
//
// One representation serves all three: a Module holds nets and instances;
// an instance references either a component specification (not yet mapped),
// a named library cell, or a child Module. Port connections may address a
// bit-slice of a net, so a 16-bit bus can feed four 4-bit adder slices
// without adapter components.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/symbol.h"
#include "genus/spec.h"

namespace bridge::netlist {

/// What an instance refers to.
enum class RefKind : std::uint8_t {
  kSpec,    // an unmapped component specification (DTAS input / templates)
  kCell,    // a technology library cell (leaves of mapped netlists)
  kModule,  // a child module (hierarchical mapped netlists)
};

/// Index of a net within its module.
using NetIndex = int;
inline constexpr NetIndex kNoNet = -1;

struct Net {
  base::Symbol name;
  int width = 1;
};

/// A port-to-net binding. `lo` selects the low bit of the net slice the
/// port attaches to; the slice width is the port's width. Constants model
/// data-book tie-offs (unused carry-in to 0, enable to 1). Open is only
/// legal for outputs. `replicate` fans a 1-bit net out across a multi-bit
/// input port (e.g. broadcasting a mode line to a w-wide XOR array).
struct PortConn {
  enum class Kind : std::uint8_t { kNet, kConst, kOpen };
  Kind kind = Kind::kOpen;
  NetIndex net = kNoNet;
  int lo = 0;
  std::uint64_t const_value = 0;
  bool replicate = false;

  static PortConn to_net(NetIndex n, int lo = 0) {
    return PortConn{Kind::kNet, n, lo, 0, false};
  }
  static PortConn replicated(NetIndex n, int bit = 0) {
    return PortConn{Kind::kNet, n, bit, 0, true};
  }
  static PortConn constant(std::uint64_t v) {
    return PortConn{Kind::kConst, kNoNet, 0, v, false};
  }
  static PortConn open() { return PortConn{}; }
};

class Module;

/// Port-connection map of an instance, keyed by interned port names.
/// Replaces the former std::map<std::string, PortConn>: lookups are linear
/// scans over a small flat vector with pointer-equality key compares (port
/// counts are tiny — a handful to ~70 for the widest gates), insertions
/// keep the entries in port-name *string* order, so iteration visits
/// connections in exactly the order the string-keyed map did — DRC
/// reports, evaluation schedules, and VHDL bindings stay bit-identical.
class ConnMap {
 public:
  using value_type = std::pair<base::Symbol, PortConn>;
  using const_iterator = std::vector<value_type>::const_iterator;

  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  const_iterator find(base::Symbol port) const {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->first == port) return it;
    }
    return items_.end();
  }
  std::size_t count(base::Symbol port) const {
    return find(port) == end() ? 0 : 1;
  }

  /// Insert-or-assign, preserving name-sorted order on insert. One
  /// lower_bound serves both the lookup and the insertion point.
  PortConn& operator[](base::Symbol port) {
    auto pos = std::lower_bound(
        items_.begin(), items_.end(), port,
        [](const value_type& v, base::Symbol p) { return v.first < p; });
    if (pos != items_.end() && pos->first == port) return pos->second;
    return items_.insert(pos, {port, PortConn{}})->second;
  }

 private:
  std::vector<value_type> items_;  // name-sorted (string order)
};

/// A component/cell/module instantiation within a module.
struct Instance {
  std::string name;
  /// The functional specification of this instance (always present: it is
  /// how DTAS recognizes and decomposes the instance).
  genus::ComponentSpec spec;
  RefKind ref = RefKind::kSpec;
  /// Cell or generated-component name for kCell/kSpec (report/VHDL label).
  std::string ref_name;
  /// Child module for kModule; owned by the enclosing Design.
  const Module* module = nullptr;
  ConnMap connections;
};

/// A module port: externally visible connection point bound to a net.
struct ModulePort {
  base::Symbol name;
  genus::PortDir dir = genus::PortDir::kIn;
  int width = 1;
  NetIndex net = kNoNet;
};

/// One level of structural hierarchy.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Create a net; names must be unique within the module.
  NetIndex add_net(base::Symbol name, int width);

  /// Create a port and its backing net in one step.
  NetIndex add_port(base::Symbol name, genus::PortDir dir, int width);

  /// Add an instance bound to an unmapped specification.
  Instance& add_spec_instance(const std::string& name,
                              const genus::ComponentSpec& spec,
                              const std::string& ref_name = "");

  /// Add an instance of a technology cell.
  Instance& add_cell_instance(const std::string& name,
                              const genus::ComponentSpec& cell_spec,
                              const std::string& cell_name);

  /// Add an instance of a child module (hierarchical netlists).
  Instance& add_module_instance(const std::string& name, const Module* child,
                                const genus::ComponentSpec& spec);

  /// Bind `port` of `inst` to a slice of `net` starting at bit `lo`.
  void connect(Instance& inst, base::Symbol port, NetIndex net, int lo = 0);
  /// Bind `port` of `inst` to a constant value. The value is masked to the
  /// port width (ports wider than 64 bits cannot take a constant); see
  /// PortConn::const_value consumers, which read exactly `width` low bits.
  void connect_const(Instance& inst, base::Symbol port, std::uint64_t value);
  /// Broadcast one bit of `net` (bit index `bit`) across every bit of a
  /// multi-bit input port.
  void connect_replicated(Instance& inst, base::Symbol port, NetIndex net,
                          int bit = 0);

  NetIndex find_net(base::Symbol name) const;  // kNoNet when absent
  const Net& net(NetIndex idx) const;
  int net_width(NetIndex idx) const { return net(idx).width; }

  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<ModulePort>& module_ports() const { return ports_; }
  const ModulePort& module_port(base::Symbol name) const;
  const std::deque<Instance>& instances() const { return instances_; }
  std::deque<Instance>& instances() { return instances_; }

  /// The port list an instance exposes, derived from its reference:
  /// child-module ports for kModule, spec_ports(spec) otherwise.
  static std::vector<genus::PortSpec> instance_ports(const Instance& inst);

  /// Allocation-free variant: returns the cached spec_ports list directly
  /// for spec/cell instances; only kModule instances materialize into
  /// `storage`. Use on paths that resolve ports per connection.
  static const std::vector<genus::PortSpec>& instance_ports_ref(
      const Instance& inst, std::vector<genus::PortSpec>& storage);

  /// Rough resident size of this module in bytes (containers, strings,
  /// connection maps). An estimate, not an audit: cache budget accounting
  /// needs proportionality across modules, not malloc-exact numbers.
  std::size_t approx_footprint_bytes() const;

 private:
  std::string name_;
  std::vector<Net> nets_;
  std::vector<ModulePort> ports_;
  std::deque<Instance> instances_;  // deque: stable references on growth
  std::unordered_map<base::Symbol, NetIndex> net_names_;
};

/// A collection of modules with stable addresses. A design either *owns* a
/// module (add_module — the mutable, build-in-place path) or *references*
/// an immutable module owned elsewhere (reference_module — the shared
/// path: one materialized subtree serving many alternative designs, kept
/// alive here by shared_ptr). Both kinds appear in module_order() in
/// registration order, which is the order emitters walk.
class Design {
 public:
  explicit Design(std::string name = "design") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Module& add_module(const std::string& name);

  /// Register a shared immutable module. The design co-owns it (so the
  /// hierarchy outlives whatever cache produced it) and it takes its place
  /// in module_order(). Registering the same module twice is a no-op;
  /// registering a second module with the name of an existing one throws.
  void reference_module(std::shared_ptr<const Module> m);

  const Module* find_module(const std::string& name) const;
  /// Owned modules only: referenced modules are immutable by contract.
  Module* find_module(const std::string& name);

  void set_top(const Module* m) { top_ = m; }
  const Module* top() const { return top_; }

  const std::deque<Module>& modules() const { return modules_; }

  /// Every module of the design — owned and referenced alike — in
  /// registration order.
  const std::vector<const Module*>& module_order() const { return order_; }

  /// The referenced (shared, immutable) modules and their co-owning
  /// handles — what address-keyed memo layers (base::WeakMemo) track
  /// weakly so their entries can never dangle onto a recycled address.
  const std::vector<std::shared_ptr<const Module>>& shared_modules() const {
    return shared_;
  }

  /// Calls f(module, owner) for every module in module_order() order.
  /// `owner` is the module's co-owning handle from shared_modules(), or
  /// nullptr for a module the design owns. One pass: shared_modules()
  /// lists the referenced modules in the same registration order.
  template <class F>
  void for_each_module(F&& f) const {
    std::size_t next = 0;
    for (const Module* m : order_) {
      const std::shared_ptr<const Module>* owner = nullptr;
      if (next < shared_.size() && shared_[next].get() == m) {
        owner = &shared_[next++];
      }
      f(*m, owner);
    }
  }

  /// Count leaf (cell) instances recursively from `m`, following module
  /// references; each module body is counted once per instantiation.
  static int count_leaf_instances(const Module& m);

 private:
  std::string name_;
  std::deque<Module> modules_;  // deque: stable addresses
  std::vector<std::shared_ptr<const Module>> shared_;  // co-owned, immutable
  std::vector<const Module*> order_;  // owned + shared, registration order
  const Module* top_ = nullptr;
};

/// Structural design-rule check. Returns human-readable violations:
/// unconnected inputs, width overflows, multiply-driven net bits,
/// undriven-but-read net bits, instances reading and writing the same net.
std::vector<std::string> check_module(const Module& m);

}  // namespace bridge::netlist
