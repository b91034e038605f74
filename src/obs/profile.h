// Per-operation profile: a structured phase/counter breakdown of one
// synthesis (or any other request-shaped unit of work).
//
// Where the tracer answers "what happened when, on which thread", a
// Profile answers "where did this one request's time go" in a form a
// caller can assert on, aggregate, or serialize: an ordered list of
// (phase, milliseconds) plus the counter deltas attributed to the
// request (cache hits, combinations evaluated, ...). dtas::Synthesizer
// fills one per synthesize call; benches serialize it into
// BENCH_*profile*.json and server mode will return it per request.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace bridge::obs {

struct Profile {
  std::string name;
  /// (phase, wall milliseconds), in order of first execution.
  std::vector<std::pair<std::string, double>> phases_ms;
  /// (counter, this-request delta), in registration order.
  std::vector<std::pair<std::string, long>> counters;

  /// Adds `ms` to `phase`, appending the phase when it is new: names stay
  /// unique, so a stage that runs twice in one request (a verify gate in
  /// synthesize, then the request's own verify) reads as one phase.
  void add_phase(std::string phase, double ms) {
    for (auto& [name, total] : phases_ms) {
      if (name == phase) {
        total += ms;
        return;
      }
    }
    phases_ms.emplace_back(std::move(phase), ms);
  }
  void add_counter(std::string counter, long delta) {
    counters.emplace_back(std::move(counter), delta);
  }

  /// Sum of the recorded phases.
  double total_ms() const;

  /// Recorded phase time, 0 when absent.
  double phase_ms(const std::string& phase) const;

  /// Recorded counter delta, 0 when absent.
  long counter(const std::string& name) const;

  /// One JSON object: {"name": ..., "total_ms": ...,
  /// "phases_ms": {...}, "counters": {...}}.
  std::string to_json() const;
};

}  // namespace bridge::obs
