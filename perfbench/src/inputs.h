// The benchmark's input universes and seeded streams over them.
//
// Every input a run can draw comes from a fixed, finite universe, so the
// golden front digests (golden/fronts.json) cover every input any seed can
// produce. The seed only chooses which inputs a run uses and in what
// order; the program under test sees nothing but the generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "genus/spec.h"
#include "netlist/netlist.h"
#include "util.h"

namespace perfbench {

/// The three libraries every spec workload retargets across.
const std::vector<std::string>& library_names();

/// One component synthesis input: a library and a GENUS specification.
struct SpecInput {
  std::string library;
  bridge::genus::ComponentSpec spec;
  /// Golden-digest key: "<library>/<spec key>".
  std::string key() const;
};

/// {ALU, adder, add/sub, mux, comparator, shifter, multiplier, register,
/// XOR gate} x widths {4, 8, 16, 32, 64} plus decoders of 2..4 inputs,
/// each on every library: the oneshot_specs universe.
std::vector<SpecInput> spec_universe();

/// The serve_warm working set: eight fixed mid-sized specs x the three
/// libraries (the seed drives the request mix, not the set).
std::vector<SpecInput> serve_working_set();

/// Number of 16-bit datapath netlists in the sweep_netlist universe.
constexpr int kSweepUniverse = 12;
/// Distinct netlists one sweep_netlist run draws from the universe.
constexpr int kSweepPerRun = 6;

/// Datapath netlist `index` of the sweep universe. Index 0 is the
/// twelve-component `datapath16` shape of the §6 runtime bench; the others
/// keep its twelve component slots (register, ALU, adder, subtractor,
/// shifter, comparator, add/sub, byte ALU, multiplier, gate, mux, output
/// register) and vary their op sets, carries, fan-ins and gate function.
bridge::netlist::Module sweep_variant(int index);
std::string sweep_key(int index);

/// The sweep variants a run uses: kSweepPerRun distinct universe indices
/// drawn without replacement from `seed`.
std::vector<int> sweep_selection(std::uint64_t seed);

/// An endless seeded stream of indices into a set of `n` inputs.
class Stream {
 public:
  Stream(std::uint64_t seed, int n) : rng_(seed), n_(n) {}
  int next() { return rng_.below(n_); }

 private:
  Rng rng_;
  int n_;
};

/// sweep_netlist: positions into sweep_selection(seed).
inline Stream sweep_stream(std::uint64_t seed) {
  return Stream(sub_seed(seed, "sweep-stream"), kSweepPerRun);
}
/// oneshot_specs: caller `caller`'s indices into spec_universe(), with
/// repeats.
Stream oneshot_stream(std::uint64_t seed, int caller);

/// serve_warm: one client connection's request mix over
/// serve_working_set() — a uniform input, and VHDL on ~1 request in 4.
class ServeMix {
 public:
  ServeMix(std::uint64_t seed, const std::string& phase, int client);
  struct Draw {
    int input = 0;
    bool vhdl = false;
  };
  Draw next();

 private:
  Rng rng_;
};

}  // namespace perfbench
