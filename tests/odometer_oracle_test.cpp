// The block-skipping plan odometer against an exhaustive oracle.
//
// DesignSpace::run_plan_odometer skips whole blocks of combinations whose
// bound the running Pareto front already dominates. The oracle in this
// file is the plain loop that skipping replaced: time every combination
// exactly, discard the ones the front dominates with margin, store the
// rest. The contract checked here:
//  - at threads = 1 the odometer stores exactly the oracle's candidate
//    sequence (impl index, child choices, metric bit patterns, order) and
//    splits the enumerated combinations into the same evaluated / pruned
//    counts;
//  - at threads {1, 4} every filtered alternative list — per spec node and
//    for the netlist-level sweep — equals the oracle's, bit for bit;
// across the three registry libraries, every filter kind (Pareto with and
// without the favorable-tradeoff threshold, AreaOnly, DelayOnly, None),
// and caps tight enough that trim_limits cuts the odometers. A dense
// datapath sweep must really skip, and a deadline or fault that lands
// inside a skipping sweep must still be seen at the checkpoints.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/cancel.h"
#include "base/fault.h"
#include "cells/registry.h"
#include "datapaths.h"
#include "dtas/synthesizer.h"
#include "netlist/netlist.h"

namespace bridge {
namespace {

using dtas::Alternative;
using dtas::SpecNode;
using genus::ComponentSpec;
using genus::Op;

const cells::LibraryRegistry& registry() {
  static cells::LibraryRegistry reg = [] {
    auto r = cells::LibraryRegistry::with_builtins();
    r.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                        "/sample_sky130_subset.lib");
    return r;
  }();
  return reg;
}

struct Config {
  std::string label;
  dtas::SpaceOptions options;
};

/// Every filter kind, each under loose caps and under caps that force
/// trim_limits to cut the per-implementation odometers.
std::vector<Config> configs() {
  struct Filter {
    const char* label;
    dtas::FilterKind kind;
    double min_delay_gain;
  };
  const Filter filters[] = {
      {"pareto", dtas::FilterKind::kPareto, 0.0},
      {"pareto0.1", dtas::FilterKind::kPareto, 0.1},
      {"area", dtas::FilterKind::kAreaOnly, 0.0},
      {"delay", dtas::FilterKind::kDelayOnly, 0.0},
      {"none", dtas::FilterKind::kNone, 0.0},
  };
  std::vector<Config> out;
  for (const Filter& f : filters) {
    for (bool tight : {false, true}) {
      Config c;
      c.label = std::string(f.label) + (tight ? "/tight" : "/loose");
      c.options.filter = f.kind;
      c.options.min_delay_gain = f.min_delay_gain;
      c.options.max_alternatives_per_node = tight ? 6 : 12;
      c.options.max_combinations_per_impl = tight ? 40 : 5000;
      out.push_back(c);
    }
  }
  return out;
}

bool prunes(const dtas::SpaceOptions& o) {
  return o.filter != dtas::FilterKind::kNone;
}

dtas::SpaceOptions with_threads(dtas::SpaceOptions o, int threads) {
  o.threads = threads;
  o.min_combinations_per_shard = 16;  // test-sized odometers still shard
  return o;
}

/// The oracle: every combination of the odometer timed, in enumeration
/// order (digit 0 fastest), pruned only on its exact metrics.
struct OracleRun {
  std::vector<Alternative> stored;
  long evaluated = 0;
  long pruned = 0;
};

OracleRun oracle_odometer(const dtas::TimingPlan& plan,
                          const std::vector<SpecNode*>& children,
                          const std::vector<int>& limit, int impl_index,
                          bool prune, dtas::ParetoFront& front) {
  OracleRun run;
  const int n = static_cast<int>(children.size());
  std::vector<double> area(n), delay(n);
  std::vector<int> choice(n, 0);
  dtas::EvalScratch scratch;
  for (;;) {
    for (int c = 0; c < n; ++c) {
      area[c] = children[c]->alts[choice[c]].metric.area;
      delay[c] = children[c]->alts[choice[c]].metric.delay;
    }
    const dtas::Metric m{plan.area(area.data()),
                         plan.delay(delay.data(), scratch)};
    if (prune && front.dominates_bound(m.area, m.delay)) {
      ++run.pruned;
    } else {
      Alternative alt;
      alt.impl_index = impl_index;
      alt.child_alt = choice;
      alt.metric = m;
      front.add(m.area, m.delay);
      run.stored.push_back(std::move(alt));
      ++run.evaluated;
    }
    int c = 0;
    while (c < n && ++choice[c] >= limit[c]) {
      choice[c] = 0;
      ++c;
    }
    if (c == n) break;
  }
  return run;
}

void expect_same_alts(const std::vector<Alternative>& got,
                      const std::vector<Alternative>& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].impl_index, want[i].impl_index) << context << " #" << i;
    EXPECT_EQ(got[i].child_alt, want[i].child_alt) << context << " #" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].metric.area),
              std::bit_cast<std::uint64_t>(want[i].metric.area))
        << context << " #" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].metric.delay),
              std::bit_cast<std::uint64_t>(want[i].metric.delay))
        << context << " #" << i;
  }
}

std::vector<int> trimmed_limits(const std::vector<SpecNode*>& children,
                                long cap) {
  std::vector<int> limit;
  for (const SpecNode* c : children) {
    limit.push_back(static_cast<int>(c->alts.size()));
  }
  dtas::DesignSpace::trim_limits(limit, cap);
  return limit;
}

/// Run the production odometer (threads = 1) and the oracle on identical
/// inputs and fronts; both must store the same sequence and split the
/// combinations the same way. Returns the oracle's stored candidates and
/// advances `front` as the oracle did.
std::vector<Alternative> run_both(dtas::DesignSpace& space,
                                  const dtas::TimingPlan& plan,
                                  const std::vector<SpecNode*>& children,
                                  const std::vector<int>& limit,
                                  int impl_index, dtas::ParetoFront& front,
                                  const std::string& context) {
  dtas::ParetoFront production_front = front;
  std::vector<Alternative> produced;
  const dtas::SpaceStats before = space.stats();
  space.run_plan_odometer(plan, children, limit, impl_index,
                          production_front, produced);
  const OracleRun oracle = oracle_odometer(plan, children, limit, impl_index,
                                           prunes(space.options()), front);
  expect_same_alts(produced, oracle.stored, context + " stored sequence");
  const dtas::SpaceStats& after = space.stats();
  EXPECT_EQ(after.combinations_evaluated - before.combinations_evaluated,
            oracle.evaluated)
      << context;
  EXPECT_EQ(after.combinations_pruned - before.combinations_pruned,
            oracle.pruned)
      << context;
  EXPECT_LE(after.combinations_bound_skipped -
                before.combinations_bound_skipped,
            oracle.pruned)
      << context;
  return oracle.stored;
}

/// Evaluate `node`'s subgraph bottom-up the way DesignSpace::evaluate
/// does, taking every node's alternatives from the oracle and checking the
/// production odometer against it on every implementation (`space` must
/// run at threads = 1).
void evaluate_with_oracle(dtas::DesignSpace& space, SpecNode* node,
                          const std::string& context) {
  if (node->evaluated) return;
  node->evaluated = true;
  dtas::ParetoFront front;
  std::vector<Alternative> candidates;
  for (size_t ii = 0; ii < node->impls.size(); ++ii) {
    const dtas::ImplNode* impl = node->impls[ii].get();
    if (impl->is_leaf()) {
      Alternative alt;
      alt.impl_index = static_cast<int>(ii);
      alt.metric = dtas::Metric{impl->cell->area, impl->cell->delay_ns};
      front.add(alt.metric.area, alt.metric.delay);
      candidates.push_back(std::move(alt));
      continue;
    }
    bool viable = true;
    for (SpecNode* child : impl->children) {
      evaluate_with_oracle(space, child, context);
      if (child->alts.empty()) {
        viable = false;
        break;
      }
    }
    if (!viable) continue;
    const std::vector<int> limit = trimmed_limits(
        impl->children, space.options().max_combinations_per_impl);
    const std::vector<Alternative> stored =
        run_both(space, *impl->plan, impl->children, limit,
                 static_cast<int>(ii), front,
                 context + " " + node->spec.key() + " impl " +
                     std::to_string(ii));
    candidates.insert(candidates.end(), stored.begin(), stored.end());
  }
  node->alts = space.filter_alternatives(std::move(candidates));
}

/// Every node the oracle evaluated must carry identical alternatives in
/// the production space (looked up by spec: expand is memoized).
void expect_same_graph(dtas::DesignSpace& oracle, dtas::DesignSpace& prod,
                       const ComponentSpec& root, const std::string& context) {
  std::vector<SpecNode*> stack = {oracle.expand(root)};
  std::map<const SpecNode*, bool> seen;
  int compared = 0;
  while (!stack.empty()) {
    SpecNode* n = stack.back();
    stack.pop_back();
    if (seen[n] || !n->evaluated) continue;
    seen[n] = true;
    SpecNode* p = prod.expand(n->spec);
    ASSERT_TRUE(p->evaluated) << context << " " << n->spec.key();
    expect_same_alts(p->alts, n->alts, context + " " + n->spec.key());
    ++compared;
    for (const auto& impl : n->impls) {
      for (SpecNode* child : impl->children) stack.push_back(child);
    }
  }
  EXPECT_GT(compared, 1) << context;
}

/// The netlist-level odometer of synthesize_netlist over `input`: its
/// distinct instance specs (expanded and evaluated in `space`), the
/// compiled plan, and the capped limits.
struct NetlistSweep {
  std::vector<SpecNode*> children;
  dtas::TimingPlan plan;
  std::vector<int> limit;
};

NetlistSweep netlist_sweep(dtas::DesignSpace& space,
                           const netlist::Module& input, bool with_oracle,
                           const std::string& context) {
  NetlistSweep sweep;
  std::vector<const ComponentSpec*> specs;
  for (const netlist::Instance& inst : input.instances()) {
    SpecNode* node = space.expand(inst.spec);
    bool seen = false;
    for (SpecNode* c : sweep.children) seen = seen || c == node;
    if (seen) continue;
    sweep.children.push_back(node);
    specs.push_back(&node->spec);
    if (with_oracle) {
      evaluate_with_oracle(space, node, context);
    } else {
      space.evaluate(node);
    }
  }
  sweep.plan = dtas::TimingPlan::compile(
      input, dtas::DesignSpace::topo_order(input), specs);
  sweep.limit = trimmed_limits(sweep.children,
                               space.options().max_combinations_per_impl);
  return sweep;
}

TEST(OdometerOracle, SpecGraphsMatchOracleOnEveryLibraryAndFilter) {
  const std::vector<std::pair<std::string, ComponentSpec>> specs = {
      {"alu16", genus::make_alu_spec(16, genus::alu16_ops())},
      {"mul8x8", genus::make_multiplier_spec(8, 8)},
  };
  long skipped = 0;  // the comparisons must cover real skips
  for (const cells::CellLibrary* lib : registry().all()) {
    for (const Config& cfg : configs()) {
      for (const auto& [label, spec] : specs) {
        const std::string ctx = lib->name() + "/" + cfg.label + "/" + label;
        dtas::Synthesizer oracle(*lib, with_threads(cfg.options, 1));
        SpecNode* root = oracle.space().expand(spec);
        evaluate_with_oracle(oracle.space(), root, ctx);
        ASSERT_FALSE(root->alts.empty()) << ctx;
        skipped += oracle.space().stats().combinations_bound_skipped;
        for (int threads : {1, 4}) {
          dtas::Synthesizer prod(*lib, with_threads(cfg.options, threads));
          prod.space().evaluate(prod.space().expand(spec));
          expect_same_graph(oracle.space(), prod.space(), spec,
                            ctx + " threads " + std::to_string(threads));
        }
      }
    }
  }
  EXPECT_GT(skipped, 0);
}

TEST(OdometerOracle, NetlistSweepsMatchOracleOnEveryLibraryAndFilter) {
  const netlist::Module input = testutil::make_datapath8();
  ASSERT_TRUE(netlist::check_module(input).empty());
  long skipped = 0;  // the comparisons must cover real skips
  for (const cells::CellLibrary* lib : registry().all()) {
    for (const Config& cfg : configs()) {
      const std::string ctx = lib->name() + "/" + cfg.label + "/netlist";
      dtas::Synthesizer oracle(*lib, with_threads(cfg.options, 1));
      NetlistSweep ref = netlist_sweep(oracle.space(), input, true, ctx);
      dtas::ParetoFront front;
      const std::vector<Alternative> want = oracle.space().filter_alternatives(
          run_both(oracle.space(), ref.plan, ref.children, ref.limit, 0,
                   front, ctx));
      ASSERT_FALSE(want.empty()) << ctx;
      skipped += oracle.space().stats().combinations_bound_skipped;
      for (int threads : {1, 4}) {
        dtas::Synthesizer prod(*lib, with_threads(cfg.options, threads));
        NetlistSweep sweep = netlist_sweep(prod.space(), input, false, ctx);
        ASSERT_EQ(sweep.limit, ref.limit) << ctx;
        dtas::ParetoFront prod_front;
        std::vector<Alternative> candidates;
        prod.space().run_plan_odometer(sweep.plan, sweep.children,
                                       sweep.limit, 0, prod_front,
                                       candidates);
        expect_same_alts(
            prod.space().filter_alternatives(std::move(candidates)), want,
            ctx + " threads " + std::to_string(threads));
      }
    }
  }
  EXPECT_GT(skipped, 0);
}

/// The §5 dense sweep (strict Pareto, deep alternative lists, a
/// one-million combination cap).
dtas::SpaceOptions dense_sweep(int threads) {
  dtas::SpaceOptions o;
  o.min_delay_gain = 0.0;
  o.max_alternatives_per_node = 48;
  o.max_combinations_per_impl = 1000000;
  o.threads = threads;
  return o;
}

long product(const std::vector<int>& limit) {
  long p = 1;
  for (int l : limit) p *= l;
  return p;
}

TEST(OdometerOracle, DenseDatapathSweepSkipsBlocksAndMatchesOracle) {
  const netlist::Module input = testutil::make_datapath16();
  dtas::Synthesizer synth(cells::lsi_library(), dense_sweep(1));
  NetlistSweep sweep = netlist_sweep(synth.space(), input, false, "dense");
  const long total = product(sweep.limit);
  ASSERT_GT(total, 100000);
  const dtas::SpaceStats before = synth.space().stats();
  dtas::ParetoFront front;
  const std::vector<Alternative> stored = run_both(
      synth.space(), sweep.plan, sweep.children, sweep.limit, 0, front,
      "dense sweep");
  const dtas::SpaceStats& after = synth.space().stats();
  const long evaluated =
      after.combinations_evaluated - before.combinations_evaluated;
  const long pruned = after.combinations_pruned - before.combinations_pruned;
  const long skipped =
      after.combinations_bound_skipped - before.combinations_bound_skipped;
  EXPECT_EQ(evaluated + pruned, total);
  // The point of the block bound: most of the sweep is never timed.
  EXPECT_GT(skipped, 0);
  EXPECT_GT(skipped, total / 2);
  EXPECT_GT(after.bound_delay_calls - before.bound_delay_calls, 0);
  EXPECT_EQ(evaluated, static_cast<long>(stored.size()));

  // Sharded, the split moves but the filtered front may not.
  dtas::Synthesizer par(cells::lsi_library(), dense_sweep(4));
  NetlistSweep psweep = netlist_sweep(par.space(), input, false, "dense t4");
  const dtas::SpaceStats par_before = par.space().stats();
  dtas::ParetoFront pfront;
  std::vector<Alternative> pcands;
  par.space().run_plan_odometer(psweep.plan, psweep.children, psweep.limit, 0,
                                pfront, pcands);
  const dtas::SpaceStats& pstats = par.space().stats();
  EXPECT_GT(pstats.parallel_odometers, 0);
  EXPECT_EQ(pstats.combinations_evaluated + pstats.combinations_pruned -
                (par_before.combinations_evaluated +
                 par_before.combinations_pruned),
            total);
  expect_same_alts(par.space().filter_alternatives(std::move(pcands)),
                   synth.space().filter_alternatives(stored),
                   "dense sweep threads 4");
}

TEST(OdometerOracle, SkippedBlocksStayInsideTheirShard) {
  // A three-gate chain with hand-made alternative lists (4 x 5 x 7 = 140
  // combinations) against a front whose one point dominates everything:
  // serially the whole odometer is one dominated block; sharded, every
  // shard may skip only blocks that end inside its own range, so the
  // enumerated total stays exact.
  netlist::Module m("chain");
  const auto A = m.add_port("A", genus::PortDir::kIn, 1);
  const auto B = m.add_port("B", genus::PortDir::kIn, 1);
  const auto OUT = m.add_port("OUT", genus::PortDir::kOut, 1);
  const auto n1 = m.add_net("n1", 1);
  const auto n2 = m.add_net("n2", 1);
  const ComponentSpec gates[] = {genus::make_gate_spec(Op::kAnd, 1),
                                 genus::make_gate_spec(Op::kOr, 1),
                                 genus::make_gate_spec(Op::kXor, 1)};
  const netlist::NetIndex ins[][2] = {{A, B}, {n1, B}, {n2, A}};
  const netlist::NetIndex outs[] = {n1, n2, OUT};
  const int limits[] = {4, 5, 7};
  std::vector<SpecNode> nodes(3);
  std::vector<SpecNode*> children;
  std::vector<const ComponentSpec*> specs;
  for (int g = 0; g < 3; ++g) {
    netlist::Instance& inst = m.add_spec_instance("g" + std::to_string(g),
                                                  gates[g]);
    m.connect(inst, "I0", ins[g][0]);
    m.connect(inst, "I1", ins[g][1]);
    m.connect(inst, "OUT", outs[g]);
    for (int a = 0; a < limits[g]; ++a) {
      Alternative alt;
      alt.metric = dtas::Metric{1.0 + a, 1.0 + limits[g] - a};
      nodes[g].alts.push_back(alt);
    }
    children.push_back(&nodes[g]);
    specs.push_back(&gates[g]);
  }
  const dtas::TimingPlan plan =
      dtas::TimingPlan::compile(m, dtas::DesignSpace::topo_order(m), specs);
  const std::vector<int> limit(std::begin(limits), std::end(limits));
  const long total = product(limit);
  for (int threads : {1, 4}) {
    dtas::Synthesizer synth(cells::lsi_library(),
                            with_threads(dtas::SpaceOptions{}, threads));
    dtas::ParetoFront front;
    front.add(0.0, 0.0);
    std::vector<Alternative> candidates;
    synth.space().run_plan_odometer(plan, children, limit, 0, front,
                                    candidates);
    const dtas::SpaceStats& s = synth.space().stats();
    const std::string ctx = "threads " + std::to_string(threads);
    EXPECT_TRUE(candidates.empty()) << ctx;
    EXPECT_EQ(s.combinations_evaluated, 0) << ctx;
    EXPECT_EQ(s.combinations_pruned, total) << ctx;
    if (threads == 1) {
      EXPECT_EQ(s.combinations_bound_skipped, total);
      EXPECT_EQ(s.bound_delay_calls, 1);
    } else {
      EXPECT_GT(s.parallel_odometers, 0) << ctx;
      EXPECT_GT(s.combinations_bound_skipped, 0) << ctx;
      EXPECT_LT(s.combinations_bound_skipped, total) << ctx;
    }
  }
}

TEST(OdometerOracle, CheckpointsKeepFiringWhileSkipping) {
  // Checkpoints count loop steps, not index distance: a skip jumps the
  // index, and a cadence keyed on it would stop polling.
  const netlist::Module input = testutil::make_datapath16();
  dtas::Synthesizer synth(cells::lsi_library(), dense_sweep(1));
  NetlistSweep sweep = netlist_sweep(synth.space(), input, false, "probes");
  base::FaultInjector& inj = base::FaultInjector::global();
  inj.arm(/*seed=*/1, /*period=*/0);  // counting mode: tally, never fire
  const dtas::SpaceStats before = synth.space().stats();
  dtas::ParetoFront front;
  std::vector<Alternative> candidates;
  synth.space().run_plan_odometer(sweep.plan, sweep.children, sweep.limit, 0,
                                  front, candidates);
  const long probes = inj.probes("dtas.evaluate.plan");
  inj.disarm();
  const dtas::SpaceStats& after = synth.space().stats();
  const long timed =
      (after.combinations_evaluated - before.combinations_evaluated) +
      (after.combinations_pruned - before.combinations_pruned) -
      (after.combinations_bound_skipped - before.combinations_bound_skipped);
  const long bound = after.bound_delay_calls - before.bound_delay_calls;
  // A loop step times one combination or skips one block, and every skip
  // follows one bound delay() call, so timed <= steps <= timed + bound.
  // One probe fires every 1024 steps, from step 0.
  EXPECT_GE(probes, (timed + 1023) / 1024);
  EXPECT_LE(probes, (timed + bound + 1023) / 1024);
  EXPECT_GT(probes, 1);

  // A fault injected at a later checkpoint surfaces from inside the
  // sweep, and the same space then re-runs it to the same candidates.
  inj.arm_site("dtas.evaluate.plan", 3);
  dtas::ParetoFront faulted_front;
  std::vector<Alternative> partial;
  EXPECT_THROW(synth.space().run_plan_odometer(sweep.plan, sweep.children,
                                               sweep.limit, 0, faulted_front,
                                               partial),
               base::FaultInjected);
  inj.disarm();
  dtas::ParetoFront retry_front;
  std::vector<Alternative> retry;
  synth.space().run_plan_odometer(sweep.plan, sweep.children, sweep.limit, 0,
                                  retry_front, retry);
  expect_same_alts(retry, candidates, "retry after injected fault");
}

TEST(OdometerOracle, DeadlineExpiringInsideASkippingSweep) {
  const netlist::Module input = testutil::make_datapath16();
  dtas::Synthesizer synth(cells::lsi_library(), dense_sweep(1));
  NetlistSweep sweep = netlist_sweep(synth.space(), input, false, "deadline");
  const long total = product(sweep.limit);
  dtas::ParetoFront full_front;
  std::vector<Alternative> full;
  synth.space().run_plan_odometer(sweep.plan, sweep.children, sweep.limit, 0,
                                  full_front, full);

  // Best effort: a deadline far shorter than the sweep stops it part way
  // and keeps a prefix of the serial candidate sequence.
  dtas::DesignSpace& space = synth.space();
  space.set_deadline_policy(/*deadline_ms=*/1, /*best_effort=*/true, nullptr);
  space.arm_deadline();
  const dtas::SpaceStats before = space.stats();
  dtas::ParetoFront front;
  std::vector<Alternative> partial;
  space.run_plan_odometer(sweep.plan, sweep.children, sweep.limit, 0, front,
                          partial);
  const dtas::SpaceStats& after = space.stats();
  EXPECT_TRUE(after.deadline_hit);
  EXPECT_LT((after.combinations_evaluated - before.combinations_evaluated) +
                (after.combinations_pruned - before.combinations_pruned),
            total);
  ASSERT_LE(partial.size(), full.size());
  expect_same_alts(partial,
                   std::vector<Alternative>(full.begin(),
                                            full.begin() + partial.size()),
                   "best-effort prefix");

  // Hard deadline: the sweep throws, and the space runs it in full once
  // the deadline is lifted.
  auto token = std::make_shared<base::CancelToken>();
  token->request_cancel();
  space.set_deadline_policy(0, /*best_effort=*/false, token);
  space.arm_deadline();
  dtas::ParetoFront hard_front;
  std::vector<Alternative> none;
  EXPECT_THROW(space.run_plan_odometer(sweep.plan, sweep.children,
                                       sweep.limit, 0, hard_front, none),
               Cancelled);
  space.set_deadline_policy(0, false, nullptr);
  space.arm_deadline();
  dtas::ParetoFront again_front;
  std::vector<Alternative> again;
  space.run_plan_odometer(sweep.plan, sweep.children, sweep.limit, 0,
                          again_front, again);
  expect_same_alts(again, full, "after a cancelled sweep");
}

}  // namespace
}  // namespace bridge
