// Correctness side of the benchmark: golden front digests and the
// independent functional oracle (lint + simulation against src/sim).
//
// A digest covers the bit patterns of every alternative's area and delay
// and its description; the VHDL digest covers the emitted text. Any op
// whose front differs from the golden digest of its input counts as
// failed. The oracle runs outside the timed window.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/api.h"
#include "dtas/synthesizer.h"
#include "genus/spec.h"
#include "netlist/netlist.h"

namespace perfbench {

std::string front_digest(const std::vector<bridge::api::ResultAlternative>& alts);
std::string front_digest(const std::vector<bridge::dtas::AlternativeDesign>& alts);
/// Digest of the VHDL texts of a result front (each alternative's text).
std::string vhdl_digest(const std::vector<bridge::api::ResultAlternative>& alts);
/// Emits every alternative (one EmissionCache per front, as run_request
/// does) and digests the texts.
std::string vhdl_digest(const std::vector<bridge::dtas::AlternativeDesign>& alts);

/// The golden digests, one entry per universe input (golden/fronts.json).
struct GoldenEntry {
  std::string front;
  std::string vhdl;  // empty for inputs synthesized without VHDL
  long alternatives = 0;
};

class Golden {
 public:
  /// Throws bridge::Error when the file is missing or malformed.
  static Golden load(const std::string& path);
  void save(const std::string& path) const;

  const GoldenEntry* find(const std::string& key) const;
  void set(const std::string& key, GoldenEntry e) { entries_[key] = std::move(e); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, GoldenEntry> entries_;
};

/// Outcome of the functional oracle over a set of fronts.
struct OracleReport {
  long fronts = 0;
  long alternatives = 0;
  long lint_errors = 0;
  long sim_mismatches = 0;
  std::vector<std::string> failures;  // first few, for the log

  bool ok() const { return lint_errors == 0 && sim_mismatches == 0 && failures.empty(); }
  void merge(const OracleReport& o);
};

/// One front to check: a component spec (simulated against
/// sim::eval_combinational / seq_step) or an input netlist (simulated
/// against Simulator(input), cycle by cycle).
struct OracleJob {
  std::string key;
  const bridge::genus::ComponentSpec* spec = nullptr;
  const bridge::netlist::Module* input = nullptr;
  const std::vector<bridge::dtas::AlternativeDesign>* alts = nullptr;
  std::uint64_t seed = 0;
};

/// Lints every alternative (no error diagnostics allowed) and simulates it
/// on seeded vectors against the independent interpreter. Jobs run on up to
/// `threads` threads; one report per job.
std::vector<OracleReport> run_oracle(const std::vector<OracleJob>& jobs,
                                     int threads);

}  // namespace perfbench
