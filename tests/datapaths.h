// Datapath netlists of GENUS specification instances, shared by the
// design-space tests that run whole-netlist synthesis.
#pragma once

#include <initializer_list>
#include <string>

#include "genus/spec.h"
#include "netlist/netlist.h"

namespace bridge::testutil {

/// One port connection of place(): `port` to `net` from bit `lo`.
struct Pin {
  const char* port;
  netlist::NetIndex net;
  int lo = 0;
};

/// Add a specification instance to `m` and connect its pins.
inline void place(netlist::Module& m, const std::string& name,
                  const genus::ComponentSpec& spec,
                  std::initializer_list<Pin> pins) {
  netlist::Instance& inst = m.add_spec_instance(name, spec);
  for (const Pin& p : pins) m.connect(inst, p.port, p.net, p.lo);
}

/// An eight-spec datapath: registered operand -> ALU -> adder ->
/// subtractor -> comparator -> mux -> xor merge -> output register.
inline netlist::Module make_datapath8() {
  netlist::Module m("pardp");
  using genus::Op;
  using genus::OpSet;
  using genus::PortDir;
  const auto A = m.add_port("A", PortDir::kIn, 8);
  const auto B = m.add_port("B", PortDir::kIn, 8);
  const auto C = m.add_port("C", PortDir::kIn, 8);
  const auto F = m.add_port("F", PortDir::kIn, 4);
  const auto CI = m.add_port("CI", PortDir::kIn, 1);
  const auto SEL = m.add_port("SEL", PortDir::kIn, 1);
  const auto CLK = m.add_port("CLK", PortDir::kIn, 1);
  const auto EN = m.add_port("EN", PortDir::kIn, 1);
  const auto ARST = m.add_port("ARST", PortDir::kIn, 1);
  const auto OUT = m.add_port("OUT", PortDir::kOut, 8);
  const auto EQ = m.add_port("EQ", PortDir::kOut, 1);
  const auto ra = m.add_net("ra", 8);
  const auto alu_out = m.add_net("alu_out", 8);
  const auto sum = m.add_net("sum", 8);
  const auto diff = m.add_net("diff", 8);
  const auto muxed = m.add_net("muxed", 8);
  const auto xr = m.add_net("xr", 8);
  place(m, "rin", genus::make_register_spec(8),
        {{"D", A}, {"CLK", CLK}, {"EN", EN}, {"ARST", ARST}, {"Q", ra}});
  place(m, "alu0", genus::make_alu_spec(8, genus::alu16_ops()),
        {{"A", ra}, {"B", B}, {"CI", CI}, {"F", F}, {"OUT", alu_out}});
  place(m, "add0", genus::make_adder_spec(8, false, false),
        {{"A", alu_out}, {"B", C}, {"S", sum}});
  place(m, "sub0", genus::make_subtractor_spec(8),
        {{"A", sum}, {"B", C}, {"S", diff}});
  place(m, "cmp0", genus::make_comparator_spec(8, OpSet{Op::kEq}),
        {{"A", sum}, {"B", C}, {"EQ", EQ}});
  place(m, "mux0", genus::make_mux_spec(8, 2),
        {{"I0", alu_out}, {"I1", diff}, {"SEL", SEL}, {"OUT", muxed}});
  place(m, "xor0", genus::make_gate_spec(Op::kXor, 8, 2),
        {{"I0", muxed}, {"I1", sum}, {"OUT", xr}});
  place(m, "rout", genus::make_register_spec(8, false, true),
        {{"D", xr}, {"CLK", CLK}, {"ARST", ARST}, {"Q", OUT}});
  return m;
}

/// The twelve-spec 16-bit datapath of the §6 runtime bench: under the
/// dense sweep its netlist-level odometer holds close to a million
/// combinations, nearly all of them dominated.
inline netlist::Module make_datapath16() {
  constexpr int w = 16;
  netlist::Module m("datapath16");
  using genus::Op;
  using genus::OpSet;
  using genus::PortDir;
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
  place(m, "rin", genus::make_register_spec(w),
        {{"D", A}, {"CLK", CLK}, {"EN", EN}, {"ARST", ARST}, {"Q", ra}});
  place(m, "alu0", genus::make_alu_spec(w, genus::alu16_ops()),
        {{"A", ra}, {"B", B}, {"CI", CI}, {"F", F}, {"OUT", alu_out}});
  place(m, "add0", genus::make_adder_spec(w, false, false),
        {{"A", alu_out}, {"B", C}, {"S", sum}});
  place(m, "sub0", genus::make_subtractor_spec(w),
        {{"A", sum}, {"B", D}, {"S", diff}});
  place(m, "sh0", genus::make_shifter_spec(w, OpSet{Op::kShl, Op::kShr}),
        {{"IN", diff}, {"F", SHF}, {"OUT", shifted}});
  place(m, "cmp0", genus::make_comparator_spec(w, OpSet{Op::kEq, Op::kLt}),
        {{"A", sum}, {"B", D}, {"EQ", EQ}, {"LT", LT}});
  place(m, "as0", genus::make_addsub_spec(w),
        {{"A", shifted}, {"B", C}, {"CI", CI}, {"MODE", SHF}, {"S", as_out}});
  place(m, "alu8", genus::make_alu_spec(w / 2, genus::alu16_ops()),
        {{"A", sum, 0}, {"B", sum, w / 2}, {"CI", CI}, {"F", F},
         {"OUT", alu8_out}});
  place(m, "mul0", genus::make_multiplier_spec(w / 2, w / 2),
        {{"A", alu8_out}, {"B", diff, w / 2}, {"P", mul_out}});
  place(m, "xor0", genus::make_gate_spec(Op::kXor, w, 2),
        {{"I0", as_out}, {"I1", mul_out}, {"OUT", xr}});
  place(m, "mux0", genus::make_mux_spec(w, 4),
        {{"I0", alu_out}, {"I1", sum}, {"I2", xr}, {"I3", shifted},
         {"SEL", SEL}, {"OUT", muxed}});
  place(m, "rout", genus::make_register_spec(w, false, true),
        {{"D", muxed}, {"CLK", CLK}, {"ARST", ARST}, {"Q", OUT}});
  return m;
}

/// The request tests' adder + mux datapath: OUT = SEL ? A + B : A.
inline netlist::Module make_adder_mux8() {
  netlist::Module input("dp8");
  const auto a = input.add_port("A", genus::PortDir::kIn, 8);
  const auto b = input.add_port("B", genus::PortDir::kIn, 8);
  const auto sel = input.add_port("SEL", genus::PortDir::kIn, 1);
  const auto out = input.add_port("OUT", genus::PortDir::kOut, 8);
  const auto sum = input.add_net("sum", 8);
  place(input, "add0",
        genus::make_adder_spec(8, /*carry_in=*/false, /*carry_out=*/false),
        {{"A", a}, {"B", b}, {"S", sum}});
  place(input, "mux0", genus::make_mux_spec(8, 2),
        {{"I0", a}, {"I1", sum}, {"SEL", sel}, {"OUT", out}});
  return input;
}

/// One netlist with every connection kind the request codec carries: a
/// net slice, a replicated bit, a constant, an explicit open, and an
/// instance reference label.
inline netlist::Module make_connection_kinds() {
  netlist::Module m("conns");
  const auto a = m.add_port("A", genus::PortDir::kIn, 4);
  const auto y = m.add_port("Y", genus::PortDir::kOut, 4);
  const auto mode = m.add_net("mode", 1);
  auto& inst = m.add_spec_instance(
      "g0", genus::make_gate_spec(genus::Op::kXor, 4), "ref-label");
  m.connect(inst, "I0", a, /*lo=*/0);
  m.connect_replicated(inst, "I1", mode, /*bit=*/0);
  m.connect(inst, "OUT", y);
  auto& add = m.add_spec_instance(
      "a0", genus::make_adder_spec(4, /*carry_in=*/true, /*carry_out=*/true));
  m.connect_const(add, "CI", 0);
  m.connect(add, "A", a);
  m.connect(add, "B", a);
  add.connections["CO"] = netlist::PortConn::open();
  m.connect(add, "S", y);
  return m;
}

}  // namespace bridge::testutil
