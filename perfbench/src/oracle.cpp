#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "base/bitvec.h"
#include "base/diag.h"
#include "genus/kind.h"
#include "lint/lint.h"
#include "sim/semantics.h"
#include "sim/simulator.h"
#include "util.h"
#include "vhdl/vhdl.h"

namespace perfbench {

using bridge::BitVec;
using bridge::api::Json;
using bridge::api::ResultAlternative;
using bridge::dtas::AlternativeDesign;
using bridge::genus::PortDir;
using bridge::genus::PortRole;

namespace {

template <class Alts, class Area, class Delay, class Desc>
std::string digest_front(const Alts& alts, Area area, Delay delay, Desc desc) {
  Hasher h;
  h.u64(alts.size());
  for (const auto& a : alts) h.f64(area(a)).f64(delay(a)).bytes(desc(a));
  return h.hex();
}

}  // namespace

std::string front_digest(const std::vector<ResultAlternative>& alts) {
  return digest_front(
      alts, [](const ResultAlternative& a) { return a.area; },
      [](const ResultAlternative& a) { return a.delay; },
      [](const ResultAlternative& a) -> const std::string& {
        return a.description;
      });
}

std::string front_digest(const std::vector<AlternativeDesign>& alts) {
  return digest_front(
      alts, [](const AlternativeDesign& a) { return a.metric.area; },
      [](const AlternativeDesign& a) { return a.metric.delay; },
      [](const AlternativeDesign& a) -> const std::string& {
        return a.description;
      });
}

std::string vhdl_digest(const std::vector<ResultAlternative>& alts) {
  Hasher h;
  h.u64(alts.size());
  for (const ResultAlternative& a : alts) h.bytes(a.vhdl);
  return h.hex();
}

std::string vhdl_digest(const std::vector<AlternativeDesign>& alts) {
  Hasher h;
  h.u64(alts.size());
  bridge::vhdl::EmissionCache emission;
  for (const AlternativeDesign& a : alts) {
    h.bytes(bridge::vhdl::emit_structural(*a.design, emission));
  }
  return h.hex();
}

Golden Golden::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw bridge::Error("cannot read golden digests " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const Json root = Json::parse(ss.str());
  Golden g;
  for (const auto& [key, e] : root.at("fronts").members()) {
    g.set(key, GoldenEntry{e.str_or("front", ""), e.str_or("vhdl", ""),
                           e.int_or("alternatives", 0)});
  }
  return g;
}

void Golden::save(const std::string& path) const {
  Json fronts = Json::object();
  for (const auto& [key, e] : entries_) {
    Json j = Json::object();
    j.set("front", e.front).set("alternatives", e.alternatives);
    if (!e.vhdl.empty()) j.set("vhdl", e.vhdl);
    fronts.set(key, std::move(j));
  }
  Json root = Json::object();
  root.set("about",
           "Golden front digests, one per input of the benchmark's input "
           "universes. Regenerate with `python3 perfbench/run.py "
           "--gen-golden` only when a change is meant to alter fronts.");
  root.set("fronts", std::move(fronts));
  std::ofstream out(path);
  out << root.dump() << "\n";
  if (!out) throw bridge::Error("cannot write golden digests " + path);
}

const GoldenEntry* Golden::find(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void OracleReport::merge(const OracleReport& o) {
  fronts += o.fronts;
  alternatives += o.alternatives;
  lint_errors += o.lint_errors;
  sim_mismatches += o.sim_mismatches;
  for (const std::string& f : o.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
}

namespace {

constexpr int kCombVectors = 12;   // per alternative of a component front
constexpr int kSeqCycles = 16;     // per alternative of a sequential front
constexpr int kNetlistCycles = 5;  // per alternative of a netlist front

BitVec random_vec(Rng& rng, int width) {
  BitVec v(width);
  for (int b = 0; b < width; b += 64) {
    const std::uint64_t word = rng.next();
    for (int i = b; i < std::min(width, b + 64); ++i) {
      v.set_bit(i, ((word >> (i - b)) & 1) != 0);
    }
  }
  return v;
}

/// Stimulus for one cycle: random data, sparse asynchronous set/reset so
/// state actually evolves.
BitVec stimulus(Rng& rng, int width, bool async) {
  if (async && rng.below(8) != 0) return BitVec(width);
  return random_vec(rng, width);
}

void fail(OracleReport& r, const std::string& what) {
  ++r.sim_mismatches;
  if (r.failures.size() < 8) r.failures.push_back(what);
}

void check_spec(const OracleJob& job, const AlternativeDesign& alt,
                OracleReport& r) {
  const bridge::genus::ComponentSpec& spec = *job.spec;
  const auto& ports = bridge::genus::spec_ports(spec);
  bridge::sim::Simulator s(*alt.design->top());
  Rng rng(job.seed);
  const bool sequential = bridge::genus::kind_is_sequential(spec.kind);
  bridge::sim::SeqState state;
  if (sequential) state = bridge::sim::init_state(spec);
  const int steps = sequential ? kSeqCycles : kCombVectors;
  for (int t = 0; t < steps; ++t) {
    bridge::sim::PortValues in;
    for (const auto& p : ports) {
      if (p.dir != PortDir::kIn || p.role == PortRole::kClock) continue;
      in[p.name] = stimulus(rng, p.width, sequential && p.role == PortRole::kAsync);
      s.set_input(p.name, in[p.name]);
    }
    s.eval();
    const bridge::sim::PortValues want =
        sequential ? bridge::sim::seq_outputs(spec, state, in)
                   : bridge::sim::eval_combinational(spec, in);
    for (const auto& p : ports) {
      if (p.dir != PortDir::kOut) continue;
      if (!(s.get(p.name) == want.at(p.name))) {
        fail(r, job.key + " [" + alt.description + "] output " +
                    std::string(p.name) + " step " + std::to_string(t));
        return;
      }
    }
    if (sequential) {
      s.step();
      bridge::sim::seq_step(spec, state, in);
    }
  }
}

void check_netlist(const OracleJob& job, const AlternativeDesign& alt,
                   OracleReport& r) {
  const bridge::netlist::Module& input = *job.input;
  bridge::sim::Simulator ref(input);
  bridge::sim::Simulator got(*alt.design->top());
  Rng rng(job.seed);
  for (int t = 0; t < kNetlistCycles; ++t) {
    for (const auto& p : input.module_ports()) {
      if (p.dir != PortDir::kIn || std::string(p.name) == "CLK") continue;
      const BitVec v = stimulus(rng, p.width, std::string(p.name) == "ARST");
      ref.set_input(p.name, v);
      got.set_input(p.name, v);
    }
    ref.eval();
    got.eval();
    for (const auto& p : input.module_ports()) {
      if (p.dir != PortDir::kOut) continue;
      if (!(ref.get(p.name) == got.get(p.name))) {
        fail(r, job.key + " [" + alt.description + "] output " +
                    std::string(p.name) + " cycle " + std::to_string(t));
        return;
      }
    }
    ref.step();
    got.step();
  }
}

OracleReport check_job(const OracleJob& job) {
  OracleReport r;
  r.fronts = 1;
  bridge::lint::Cache lint_cache;
  for (const AlternativeDesign& alt : *job.alts) {
    ++r.alternatives;
    for (const bridge::lint::Diagnostic& d :
         bridge::lint::lint_design(*alt.design, lint_cache)) {
      if (d.severity != bridge::lint::Severity::kError) continue;
      ++r.lint_errors;
      if (r.failures.size() < 8) {
        r.failures.push_back(job.key + ": " + d.to_string());
      }
    }
    try {
      if (job.spec != nullptr) {
        check_spec(job, alt, r);
      } else {
        check_netlist(job, alt, r);
      }
    } catch (const std::exception& e) {
      fail(r, job.key + " [" + alt.description + "] simulation threw: " +
                  e.what());
    }
  }
  return r;
}

}  // namespace

std::vector<OracleReport> run_oracle(const std::vector<OracleJob>& jobs,
                                     int threads) {
  std::vector<OracleReport> reports(jobs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < jobs.size();
         i = next.fetch_add(1)) {
      try {
        reports[i] = check_job(jobs[i]);
      } catch (const std::exception& e) {
        reports[i].failures.push_back(jobs[i].key + ": oracle threw: " +
                                      e.what());
      }
    }
  };
  std::vector<std::thread> pool;
  const int n = std::max(1, std::min<int>(threads, static_cast<int>(jobs.size())));
  for (int t = 1; t < n; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return reports;
}

}  // namespace perfbench
