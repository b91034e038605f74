// Compiled-evaluator equivalence and bound-and-prune invariance.
//
// The TimingPlan evaluator must reproduce the reference functional
// evaluator (oracle::reference_evaluate, serial and never pruning)
// bit-for-bit: same alternative count, exactly equal metric doubles, same
// descriptions — across every component family DTAS synthesizes and
// across all three registry libraries (the LSI and TTL built-ins plus the
// bundled Liberty import). Bound-and-prune must never change the filtered
// front under any dominance-respecting filter, and must stay off under
// FilterKind::kNone.
#include <gtest/gtest.h>

#include "cells/registry.h"
#include "dtas/synthesizer.h"
#include "liberty/liberty.h"
#include "netlist/netlist.h"
#include "oracle/oracle.h"

namespace bridge {
namespace {

using genus::ComponentSpec;
using genus::Op;
using genus::OpSet;

std::vector<std::pair<std::string, ComponentSpec>> test_specs() {
  std::vector<std::pair<std::string, ComponentSpec>> specs;
  auto add = [&](const std::string& label, ComponentSpec s) {
    specs.emplace_back(label, std::move(s));
  };
  for (Op fn : {Op::kAnd, Op::kNand, Op::kXor}) {
    add(genus::op_name(fn) + "8", genus::make_gate_spec(fn, 8, 2));
  }
  add("AndFanin7", genus::make_gate_spec(Op::kAnd, 1, 7));
  add("Not8", genus::make_gate_spec(Op::kLnot, 8));
  for (int inputs : {2, 4, 8, 11}) {
    add("Mux" + std::to_string(inputs) + "x8",
        genus::make_mux_spec(8, inputs));
  }
  for (int width : {1, 6, 8, 16, 32}) {
    add("Adder" + std::to_string(width), genus::make_adder_spec(width));
  }
  add("AdderNoCarries", genus::make_adder_spec(8, false, false));
  add("Subtractor8", genus::make_subtractor_spec(8));
  add("AddSub16", genus::make_addsub_spec(16));
  add("Mul8x8", genus::make_multiplier_spec(8, 8));
  add("Mul3x5", genus::make_multiplier_spec(3, 5));
  add("Cmp8", genus::make_comparator_spec(8, OpSet{Op::kEq, Op::kLt, Op::kGt}));
  add("Decoder4", genus::make_decoder_spec(4));
  add("Encoder3", genus::make_encoder_spec(3));
  add("Shifter8", genus::make_shifter_spec(8, OpSet{Op::kShl, Op::kShr}));
  add("Barrel16", genus::make_barrel_shifter_spec(16, OpSet{Op::kRotl}));
  add("Lu8", genus::make_logic_unit_spec(8, genus::alu16_logic_ops()));
  add("Alu8", genus::make_alu_spec(8, genus::alu16_ops()));
  add("Alu16", genus::make_alu_spec(16, genus::alu16_ops()));
  add("Alu32ArithOnly", genus::make_alu_spec(32, genus::alu16_arith_ops()));
  add("Register16", genus::make_register_spec(16));
  add("Counter8", genus::make_counter_spec(
                      8, OpSet{Op::kCountUp, Op::kLoad}));
  return specs;
}

/// The registry the satellite task names: both built-ins plus the bundled
/// Liberty import.
const cells::LibraryRegistry& registry() {
  static cells::LibraryRegistry reg = [] {
    auto r = cells::LibraryRegistry::with_builtins();
    r.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                        "/sample_sky130_subset.lib");
    return r;
  }();
  return reg;
}

using Front = std::vector<dtas::AlternativeDesign>;

Front synthesize_with(const cells::CellLibrary& lib,
                      const ComponentSpec& spec,
                      const dtas::SpaceOptions& opt,
                      dtas::SpaceStats* stats = nullptr) {
  dtas::Synthesizer synth(lib, opt);
  Front front = synth.synthesize(spec);
  if (stats != nullptr) *stats = synth.space().stats();
  return front;
}

/// The same synthesis on the reference evaluator; `combinations`
/// receives how many combinations it enumerated.
Front reference_with(const cells::CellLibrary& lib, const ComponentSpec& spec,
                     const dtas::SpaceOptions& opt,
                     long* combinations = nullptr) {
  dtas::Synthesizer synth(lib, opt);
  return oracle::reference_synthesize(synth, spec, combinations);
}

/// Bit-for-bit front equality: exact double comparison on both metric
/// axes plus the human-readable implementation trace.
void expect_identical(const Front& a, const Front& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metric.area, b[i].metric.area)
        << context << " alt " << i;
    EXPECT_EQ(a[i].metric.delay, b[i].metric.delay)
        << context << " alt " << i;
    EXPECT_EQ(a[i].description, b[i].description) << context << " alt " << i;
  }
}

TEST(TimingPlanEquivalence, MatchesReferenceEvaluatorAcrossLibraries) {
  ASSERT_EQ(registry().size(), 3);
  for (const cells::CellLibrary* lib : registry().all()) {
    for (const auto& [label, spec] : test_specs()) {
      const dtas::SpaceOptions defaults;  // compiled plan + prune
      const Front a = synthesize_with(*lib, spec, defaults);
      const Front b = reference_with(*lib, spec, defaults);
      expect_identical(a, b, lib->name() + "/" + label);
    }
  }
}

TEST(TimingPlanEquivalence, DenseSweepMatchesReference) {
  // min_delay_gain = 0 keeps every non-dominated candidate, the regime
  // where the odometer (and the pruner) does real work.
  for (const cells::CellLibrary* lib : registry().all()) {
    dtas::SpaceOptions compiled;
    compiled.min_delay_gain = 0.0;
    const ComponentSpec spec = genus::make_alu_spec(16, genus::alu16_ops());
    expect_identical(synthesize_with(*lib, spec, compiled),
                     reference_with(*lib, spec, compiled),
                     lib->name() + "/Alu16Sweep");
  }
}

TEST(PruneInvariance, PruningNeverChangesTheFront) {
  for (const auto& [label, spec] : test_specs()) {
    const dtas::SpaceOptions pruned;  // default: prune on
    expect_identical(
        synthesize_with(cells::lsi_library(), spec, pruned),
        reference_with(cells::lsi_library(), spec, pruned), label);
  }
}

TEST(PruneInvariance, HoldsUnderEveryFilterKind) {
  const ComponentSpec spec = genus::make_alu_spec(16, genus::alu16_ops());
  for (dtas::FilterKind filter :
       {dtas::FilterKind::kPareto, dtas::FilterKind::kAreaOnly,
        dtas::FilterKind::kDelayOnly, dtas::FilterKind::kNone}) {
    dtas::SpaceOptions pruned;
    pruned.filter = filter;
    pruned.min_delay_gain = 0.0;
    dtas::SpaceStats pruned_stats;
    expect_identical(
        synthesize_with(cells::lsi_library(), spec, pruned, &pruned_stats),
        reference_with(cells::lsi_library(), spec, pruned),
        "filter " + std::to_string(static_cast<int>(filter)));
    if (filter == dtas::FilterKind::kNone) {
      // kNone keeps dominated candidates, so pruning must not engage.
      EXPECT_EQ(pruned_stats.combinations_pruned, 0);
    }
  }
}

TEST(PruneInvariance, StatsAccountForEveryCombination) {
  const dtas::SpaceOptions pruned;
  dtas::SpaceStats with_prune;
  long enumerated = 0;
  const ComponentSpec spec = genus::make_alu_spec(16, genus::alu16_ops());
  synthesize_with(cells::lsi_library(), spec, pruned, &with_prune);
  reference_with(cells::lsi_library(), spec, pruned, &enumerated);
  EXPECT_GT(with_prune.combinations_pruned, 0);
  // Pruned or not, the odometer enumerates the same combinations.
  EXPECT_EQ(with_prune.combinations_evaluated + with_prune.combinations_pruned,
            enumerated);
}

netlist::Module make_test_datapath() {
  netlist::Module m("dp");
  const auto A = m.add_port("A", genus::PortDir::kIn, 8);
  const auto B = m.add_port("B", genus::PortDir::kIn, 8);
  const auto C = m.add_port("C", genus::PortDir::kIn, 8);
  const auto F = m.add_port("F", genus::PortDir::kIn, 4);
  const auto CI = m.add_port("CI", genus::PortDir::kIn, 1);
  const auto SEL = m.add_port("SEL", genus::PortDir::kIn, 1);
  const auto CLK = m.add_port("CLK", genus::PortDir::kIn, 1);
  const auto EN = m.add_port("EN", genus::PortDir::kIn, 1);
  const auto ARST = m.add_port("ARST", genus::PortDir::kIn, 1);
  const auto OUT = m.add_port("OUT", genus::PortDir::kOut, 8);
  const auto EQ = m.add_port("EQ", genus::PortDir::kOut, 1);
  const auto alu_out = m.add_net("alu_out", 8);
  const auto sum = m.add_net("sum", 8);
  const auto muxed = m.add_net("muxed", 8);

  auto& alu =
      m.add_spec_instance("alu0", genus::make_alu_spec(8, genus::alu16_ops()));
  m.connect(alu, "A", A);
  m.connect(alu, "B", B);
  m.connect(alu, "CI", CI);
  m.connect(alu, "F", F);
  m.connect(alu, "OUT", alu_out);
  auto& add =
      m.add_spec_instance("add0", genus::make_adder_spec(8, false, false));
  m.connect(add, "A", alu_out);
  m.connect(add, "B", C);
  m.connect(add, "S", sum);
  auto& cmp = m.add_spec_instance(
      "cmp0", genus::make_comparator_spec(8, OpSet{Op::kEq}));
  m.connect(cmp, "A", sum);
  m.connect(cmp, "B", C);
  m.connect(cmp, "EQ", EQ);
  auto& mux = m.add_spec_instance("mux0", genus::make_mux_spec(8, 2));
  m.connect(mux, "I0", alu_out);
  m.connect(mux, "I1", sum);
  m.connect(mux, "SEL", SEL);
  m.connect(mux, "OUT", muxed);
  auto& reg = m.add_spec_instance("reg0", genus::make_register_spec(8));
  m.connect(reg, "D", muxed);
  m.connect(reg, "CLK", CLK);
  m.connect(reg, "EN", EN);
  m.connect(reg, "ARST", ARST);
  m.connect(reg, "Q", OUT);
  return m;
}

TEST(TimingPlanEquivalence, NetlistSynthesisMatchesReference) {
  const netlist::Module input = make_test_datapath();
  EXPECT_TRUE(netlist::check_module(input).empty());
  for (double gain : {0.10, 0.0}) {
    dtas::SpaceOptions compiled;
    compiled.min_delay_gain = gain;
    dtas::Synthesizer a(cells::lsi_library(), compiled);
    dtas::Synthesizer b(cells::lsi_library(), compiled);
    expect_identical(a.synthesize_netlist(input),
                     oracle::reference_synthesize_netlist(b, input),
                     "datapath gain " + std::to_string(gain));
  }
}

TEST(TimingPlanEquivalence, NetlistPruningNeverChangesTheFront) {
  const netlist::Module input = make_test_datapath();
  dtas::SpaceOptions pruned;
  pruned.min_delay_gain = 0.0;
  dtas::Synthesizer a(cells::lsi_library(), pruned);
  dtas::Synthesizer b(cells::lsi_library(), pruned);
  long enumerated = 0;
  expect_identical(a.synthesize_netlist(input),
                   oracle::reference_synthesize_netlist(b, input, &enumerated),
                   "datapath prune invariance");
  const dtas::SpaceStats& stats = a.space().stats();
  EXPECT_GT(stats.combinations_pruned, 0);
  EXPECT_EQ(stats.combinations_evaluated + stats.combinations_pruned,
            enumerated);
}

TEST(ParetoFront, StaircaseSemantics) {
  dtas::ParetoFront front;
  // Nothing recorded: nothing dominates.
  EXPECT_FALSE(front.dominates_bound(100.0, 100.0));
  front.add(10.0, 50.0);
  front.add(20.0, 30.0);
  front.add(30.0, 10.0);
  // Strictly worse than (20, 30) on both axes.
  EXPECT_TRUE(front.dominates_bound(25.0, 40.0));
  // Cheaper than every recorded point: never dominated.
  EXPECT_FALSE(front.dominates_bound(5.0, 500.0));
  // Faster than the best recorded delay at its area: not dominated.
  EXPECT_FALSE(front.dominates_bound(25.0, 20.0));
  // A dominated insert must not weaken the front: (20, 30) still rules.
  front.add(25.0, 40.0);
  EXPECT_TRUE(front.dominates_bound(26.0, 35.0));
  EXPECT_FALSE(front.dominates_bound(26.0, 25.0));
  // A dominating insert replaces what it beats.
  front.add(5.0, 5.0);
  EXPECT_TRUE(front.dominates_bound(6.0, 6.0));
}

}  // namespace
}  // namespace bridge
