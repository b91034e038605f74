#include "inputs.h"

#include <functional>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

using bridge::genus::ComponentSpec;
using bridge::genus::Op;
using bridge::genus::OpSet;
using bridge::genus::PortDir;
using bridge::netlist::Module;
using bridge::netlist::NetIndex;

const std::vector<std::string>& library_names() {
  static const std::vector<std::string> names = {"LSI_LGC15", "TTL74",
                                                 "sample_sky130_subset"};
  return names;
}

std::string SpecInput::key() const { return library + "/" + spec.key(); }

namespace {

OpSet shift_ops() { return OpSet{Op::kShl, Op::kShr}; }
OpSet compare_ops() { return OpSet{Op::kEq, Op::kLt}; }

std::vector<ComponentSpec> universe_specs() {
  namespace g = bridge::genus;
  std::vector<ComponentSpec> specs;
  for (int w : {4, 8, 16, 32, 64}) {
    specs.push_back(g::make_alu_spec(w, g::alu16_ops()));
    specs.push_back(g::make_adder_spec(w));
    specs.push_back(g::make_addsub_spec(w));
    specs.push_back(g::make_mux_spec(w, 4));
    specs.push_back(g::make_comparator_spec(w, compare_ops()));
    specs.push_back(g::make_shifter_spec(w, shift_ops()));
    specs.push_back(g::make_multiplier_spec(w / 2, w / 2));
    specs.push_back(g::make_register_spec(w));
    specs.push_back(g::make_gate_spec(Op::kXor, w, 2));
  }
  for (int in : {2, 3, 4}) specs.push_back(g::make_decoder_spec(in));
  return specs;
}

}  // namespace

std::vector<SpecInput> spec_universe() {
  std::vector<SpecInput> out;
  for (const std::string& lib : library_names()) {
    for (const ComponentSpec& s : universe_specs()) out.push_back({lib, s});
  }
  return out;
}

std::vector<SpecInput> serve_working_set() {
  namespace g = bridge::genus;
  const std::vector<ComponentSpec> specs = {
      g::make_alu_spec(8, g::alu16_ops()),
      g::make_adder_spec(32),
      g::make_addsub_spec(16),
      g::make_mux_spec(16, 4),
      g::make_comparator_spec(16, compare_ops()),
      g::make_shifter_spec(32, shift_ops()),
      g::make_multiplier_spec(8, 8),
      g::make_register_spec(16),
  };
  std::vector<SpecInput> out;
  for (const std::string& lib : library_names()) {
    for (const ComponentSpec& s : specs) out.push_back({lib, s});
  }
  return out;
}

namespace {

/// The per-slot choices that distinguish one sweep netlist from another.
struct Variant {
  OpSet alu_ops;
  OpSet alu8_ops;
  bool adder_ci = false;
  bool adder_co = false;
  OpSet shifter_ops;
  OpSet compare_ops;
  int mux_inputs = 4;
  Op gate = Op::kXor;
  bool in_reset = true;
  bool out_reset = true;
};

Variant variant_params(int index) {
  namespace g = bridge::genus;
  Variant v;
  v.alu_ops = g::alu16_ops();
  v.alu8_ops = g::alu16_ops();
  v.shifter_ops = shift_ops();
  v.compare_ops = compare_ops();
  if (index == 0) return v;  // datapath16 exactly
  // A fixed universe: the stream depends on the index alone, never on
  // the run seed, so golden digests cover every variant.
  Rng rng(sub_seed(0x5eedda7a, "sweep-variant-" + std::to_string(index)));
  const OpSet alu_choices[] = {g::alu16_ops(), g::alu16_arith_ops(),
                               g::alu16_ops()};
  v.alu_ops = alu_choices[rng.below(3)];
  v.alu8_ops = alu_choices[rng.below(3)];
  const int carry = rng.below(3);
  v.adder_ci = carry >= 1;
  v.adder_co = carry == 2;
  if (rng.below(2) == 1) v.compare_ops = OpSet{Op::kEq, Op::kLt, Op::kGt};
  v.mux_inputs = 2 + rng.below(3);
  const Op gates[] = {Op::kXor, Op::kAnd, Op::kOr, Op::kXnor};
  v.gate = gates[rng.below(4)];
  v.in_reset = rng.below(4) != 0;
  v.out_reset = rng.below(4) != 0;
  return v;
}

/// Binds every input port of `inst` from `ins` (port name -> net and bit
/// offset) and the named outputs from `outs`; other outputs stay open.
void wire(Module& m, bridge::netlist::Instance& inst,
          const std::map<std::string, std::pair<NetIndex, int>>& ins,
          const std::map<std::string, NetIndex>& outs) {
  for (const auto& p : bridge::genus::spec_ports(inst.spec)) {
    const std::string name = p.name;
    if (p.dir == PortDir::kIn) {
      auto it = ins.find(name);
      if (it == ins.end()) {
        throw std::logic_error("sweep variant: no driver for input " + name +
                               " of " + inst.spec.key());
      }
      m.connect(inst, name, it->second.first, it->second.second);
    } else if (auto it = outs.find(name); it != outs.end()) {
      m.connect(inst, name, it->second);
    }
  }
}

}  // namespace

Module sweep_variant(int index) {
  namespace g = bridge::genus;
  const Variant v = variant_params(index);
  const int w = 16;
  Module m(index == 0 ? std::string("datapath16")
                      : "datapath16_v" + std::to_string(index));
  const auto A = m.add_port("A", PortDir::kIn, w);
  const auto B = m.add_port("B", PortDir::kIn, w);
  const auto C = m.add_port("C", PortDir::kIn, w);
  const auto D = m.add_port("D", PortDir::kIn, w);
  const auto F = m.add_port("F", PortDir::kIn, 4);
  const auto SHF = m.add_port("SHF", PortDir::kIn, 1);
  const auto SEL = m.add_port("SEL", PortDir::kIn, 2);
  const auto CI = m.add_port("CI", PortDir::kIn, 1);
  const auto CLK = m.add_port("CLK", PortDir::kIn, 1);
  const auto EN = m.add_port("EN", PortDir::kIn, 1);
  const auto ARST = m.add_port("ARST", PortDir::kIn, 1);
  const auto OUT = m.add_port("OUT", PortDir::kOut, w);
  const auto EQ = m.add_port("FLAG_EQ", PortDir::kOut, 1);
  const auto LT = m.add_port("FLAG_LT", PortDir::kOut, 1);

  const auto ra = m.add_net("ra", w);
  const auto alu_out = m.add_net("alu_out", w);
  const auto sum = m.add_net("sum", w);
  const auto diff = m.add_net("diff", w);
  const auto shifted = m.add_net("shifted", w);
  const auto as_out = m.add_net("as_out", w);
  const auto alu8_out = m.add_net("alu8_out", w / 2);
  const auto mul_out = m.add_net("mul_out", w);
  const auto xr = m.add_net("xr", w);
  const auto muxed = m.add_net("muxed", w);

  auto& rin = m.add_spec_instance("rin",
                                  g::make_register_spec(w, true, v.in_reset));
  wire(m, rin, {{"D", {A, 0}}, {"CLK", {CLK, 0}}, {"EN", {EN, 0}},
                {"ARST", {ARST, 0}}},
       {{"Q", ra}});
  auto& alu = m.add_spec_instance("alu0", g::make_alu_spec(w, v.alu_ops));
  wire(m, alu, {{"A", {ra, 0}}, {"B", {B, 0}}, {"CI", {CI, 0}}, {"F", {F, 0}}},
       {{"OUT", alu_out}});
  auto& add = m.add_spec_instance(
      "add0", g::make_adder_spec(w, v.adder_ci, v.adder_co));
  wire(m, add, {{"A", {alu_out, 0}}, {"B", {C, 0}}, {"CI", {CI, 0}}},
       {{"S", sum}});
  auto& sub = m.add_spec_instance("sub0", g::make_subtractor_spec(w));
  wire(m, sub, {{"A", {sum, 0}}, {"B", {D, 0}}}, {{"S", diff}});
  auto& sh = m.add_spec_instance("sh0", g::make_shifter_spec(w, v.shifter_ops));
  wire(m, sh, {{"IN", {diff, 0}}, {"F", {SHF, 0}}}, {{"OUT", shifted}});
  auto& cmp =
      m.add_spec_instance("cmp0", g::make_comparator_spec(w, v.compare_ops));
  wire(m, cmp, {{"A", {sum, 0}}, {"B", {D, 0}}}, {{"EQ", EQ}, {"LT", LT}});
  auto& as = m.add_spec_instance("as0", g::make_addsub_spec(w));
  wire(m, as, {{"A", {shifted, 0}}, {"B", {C, 0}}, {"CI", {CI, 0}},
               {"MODE", {SHF, 0}}},
       {{"S", as_out}});
  auto& alu8 =
      m.add_spec_instance("alu8", g::make_alu_spec(w / 2, v.alu8_ops));
  wire(m, alu8, {{"A", {sum, 0}}, {"B", {sum, w / 2}}, {"CI", {CI, 0}},
                 {"F", {F, 0}}},
       {{"OUT", alu8_out}});
  auto& mul =
      m.add_spec_instance("mul0", g::make_multiplier_spec(w / 2, w / 2));
  wire(m, mul, {{"A", {alu8_out, 0}}, {"B", {diff, w / 2}}}, {{"P", mul_out}});
  auto& gate = m.add_spec_instance(v.gate == Op::kXor ? "xor0" : "gate0",
                                   g::make_gate_spec(v.gate, w, 2));
  wire(m, gate, {{"I0", {as_out, 0}}, {"I1", {mul_out, 0}}}, {{"OUT", xr}});
  const NetIndex mux_src[] = {alu_out, sum, xr, shifted};
  std::map<std::string, std::pair<NetIndex, int>> mux_ins = {{"SEL", {SEL, 0}}};
  const char* const mux_data[] = {"I0", "I1", "I2", "I3"};
  for (int i = 0; i < v.mux_inputs; ++i) mux_ins[mux_data[i]] = {mux_src[i], 0};
  auto& mux = m.add_spec_instance("mux0", g::make_mux_spec(w, v.mux_inputs));
  wire(m, mux, mux_ins, {{"OUT", muxed}});
  auto& rout = m.add_spec_instance(
      "rout", g::make_register_spec(w, false, v.out_reset));
  wire(m, rout, {{"D", {muxed, 0}}, {"CLK", {CLK, 0}}, {"ARST", {ARST, 0}}},
       {{"Q", OUT}});
  return m;
}

Stream oneshot_stream(std::uint64_t seed, int caller) {
  return Stream(sub_seed(seed, "oneshot-stream-" + std::to_string(caller)),
                static_cast<int>(spec_universe().size()));
}

ServeMix::ServeMix(std::uint64_t seed, const std::string& phase, int client)
    : rng_(sub_seed(seed, phase + "-client-" + std::to_string(client))) {}

ServeMix::Draw ServeMix::next() {
  static const int n = static_cast<int>(serve_working_set().size());
  Draw d;
  d.input = rng_.below(n);
  d.vhdl = rng_.below(4) == 0;
  return d;
}

std::string sweep_key(int index) { return "sweep/v" + std::to_string(index); }

std::vector<int> sweep_selection(std::uint64_t seed) {
  std::vector<int> pool;
  for (int i = 0; i < kSweepUniverse; ++i) pool.push_back(i);
  Rng rng(sub_seed(seed, "sweep-selection"));
  std::vector<int> out;
  for (int k = 0; k < kSweepPerRun; ++k) {
    const int pick = rng.below(static_cast<int>(pool.size()));
    out.push_back(pool[pick]);
    pool.erase(pool.begin() + pick);
  }
  return out;
}

}  // namespace perfbench
