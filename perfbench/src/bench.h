// Shared types of the benchmark program: options, the process-wide set-up
// every workload starts from, the timed window, and the result line.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cells/registry.h"
#include "dtas/design_space.h"
#include "oracle.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Set-up only: build everything a run builds, report setup_s, exit.
  bool setup_only = false;
  std::string golden_path;  // golden/fronts.json
  std::string out_dir = ".bench_out";
};

/// Named metrics in output order (each name set once).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  Metrics metrics;
};

/// Everything before a workload's own set-up: the clock origin, the golden
/// digests, the library registry (built-ins + the bundled Liberty file) and
/// one rule induction per library.
struct Env {
  std::int64_t t_start = 0;  // process start, as seen from main()
  Options opt;
  Golden golden;
  bridge::cells::LibraryRegistry registry;
  double liberty_load_ms = 0.0;
  double lola_rules_ms = 0.0;  // mean default_rules_for per library
  int threads = 1;             // min(4, online CPUs)
  std::mutex failures_mu;
  std::vector<std::string> failures;  // correctness notes; guarded by failures_mu

  /// Records a correctness failure (thread-safe).
  void note_failure(const std::string& what);
  double setup_s() const;
};

/// Builds the registry and induces each library's rules, timing both.
void common_setup(Env& env);

/// The timed window of one workload.
struct Window {
  std::vector<double> latency_ms;
  long attempted = 0;
  long failed = 0;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  double peak_rss_mb = 0.0;  // at the window's end, before the oracle runs
  /// Throughput and CPU per op of each round of a fixed number of
  /// completed ops (see RoundClock): the end-to-end rates are their
  /// medians, so a burst of host load in part of the window moves them
  /// less than it moves a whole-window mean.
  std::vector<double> round_ops_per_s;
  std::vector<double> round_cpu_ms_per_op;
};

/// Splits a window into rounds of `ops_per_round` completed ops and
/// records each round's wall time and process CPU. op_done() is
/// thread-safe.
class RoundClock {
 public:
  explicit RoundClock(long ops_per_round) : k_(ops_per_round) {}
  void start();
  void op_done();
  /// Appends the rounds' rates to `w`.
  void finish(Window& w) const;

 private:
  struct Mark {
    std::int64_t t_ns;
    double cpu_ms;
  };
  long k_;
  std::atomic<long> done_{0};
  std::mutex mu_;
  std::vector<Mark> marks_;  // guarded by mu_; marks_[0] is the start
};

/// Fills the end-to-end metrics from an untraced window.
void end_to_end_metrics(const Window& w, double setup_s, Metrics& out);

/// The §5 dense-sweep options of sweep_netlist: strict Pareto
/// (min_delay_gain 0), 48 alternatives per node, 1M combinations.
bridge::dtas::SpaceOptions sweep_options(int threads);

RunResult run_sweep_netlist(Env& env);
RunResult run_oneshot_specs(Env& env);
RunResult run_serve_warm(Env& env);
RunResult run_warm_requests(Env& env);

/// Child side of the contention control: one single-thread sweep
/// Synthesizer looping for `seconds`; prints its per-op p50.
int contention_child(double seconds);

/// Digests of every universe input at this commit (golden/fronts.json).
int generate_golden(const std::string& path);

/// The benchmark's own checks (seeded streams, percentile rule, digest
/// stability).
int self_test(const std::string& golden_path);

}  // namespace perfbench
