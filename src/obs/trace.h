// Span tracer: RAII scopes emitting Chrome trace-event JSON.
//
// obs::Span marks a phase of work; when tracing is enabled the enclosing
// Tracer records one complete ("ph": "X") event per span with the
// executing thread's id, and the resulting file loads directly into
// chrome://tracing or https://ui.perfetto.dev — expand / evaluate /
// extract / emit phases, odometer runs, and ThreadPool task execution
// nest into one timeline per synthesis.
//
// Cost discipline: tracing is compiled in and gated at runtime. A Span
// with tracing *off* is one relaxed atomic load and a branch — no clock
// read, no allocation, no lock (the disabled-overhead guard in
// tests/obs_test.cpp pins this). With tracing on, each span costs two
// clock reads and one mutex-guarded vector push at destruction; the
// mutex keeps the tracer trivially ThreadSanitizer-clean, and nothing
// per-combination is ever spanned (instrumentation sits at phase /
// odometer-run / pool-task granularity).
//
// Enabling: set BRIDGE_TRACE=<path> in the environment before the first
// span (the trace is written at process exit), or call
// Tracer::global().start(path) programmatically. The tracer is
// process-wide, so only the process turns it on; no request can.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/annotations.h"

namespace bridge::obs {

/// Tracing configuration resolved from the environment.
struct Config {
  bool enabled = false;
  std::string path;  // trace output file

  /// BRIDGE_TRACE=<path> enables tracing into <path>.
  static Config from_env();
};

class Tracer {
 public:
  /// Leaked singleton; applies Config::from_env() on first access, so a
  /// BRIDGE_TRACE run needs no code changes anywhere.
  static Tracer& global();

  /// The Span fast path: one relaxed load.
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Begin collecting spans into `path`. Idempotent while already
  /// started (the first path wins); the file is written by stop() or at
  /// process exit.
  void start(const std::string& path);

  /// Disable, write the collected trace (if started), and clear. Safe to
  /// call when never started (no-op). Returns the path written, or "".
  std::string stop();

  /// Record one complete event (called by ~Span; times in nanoseconds on
  /// the tracer's clock). `name` and `cat` must be string literals (they
  /// are stored by pointer).
  void record(const char* name, const char* cat, std::int64_t start_ns,
              std::int64_t end_ns);

  /// Events buffered so far (diagnostics / tests).
  std::size_t event_count() const;

  /// Nanoseconds since the first use of the tracer clock (monotonic).
  static std::int64_t now_ns();

  /// Small stable id of the calling thread (1 = first thread seen).
  static int thread_id();

 private:
  static std::atomic<bool>& enabled_flag();

  struct Event {
    const char* name;
    const char* cat;
    int tid;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };

  void write_locked() BRIDGE_REQUIRES(mu_);

  mutable base::Mutex mu_;
  std::string path_ BRIDGE_GUARDED_BY(mu_);
  bool started_ BRIDGE_GUARDED_BY(mu_) = false;
  std::vector<Event> events_ BRIDGE_GUARDED_BY(mu_);
};

/// RAII phase scope. Constructed with tracing off it does nothing;
/// constructed with tracing on it records a complete event on
/// destruction. Spans on one thread nest by scoping, which is exactly
/// the nesting tools/trace_summary.py --check validates.
class Span {
 public:
  /// A null `name` makes the span a no-op — the idiom for conditional
  /// spans ("only the top-level recursion opens a phase scope").
  explicit Span(const char* name, const char* cat = "bridge") {
    if (!Tracer::enabled() || name == nullptr) return;  // branch-only off path
    name_ = name;
    cat_ = cat;
    start_ns_ = Tracer::now_ns();
  }
  /// Record the span now instead of at scope exit (idempotent) — for
  /// spans that end mid-scope, e.g. "extract" ending before "verify"
  /// starts so the phases never nest.
  void close() {
    if (name_ == nullptr) return;
    Tracer::global().record(name_, cat_, start_ns_, Tracer::now_ns());
    name_ = nullptr;
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::int64_t start_ns_ = 0;
};

}  // namespace bridge::obs
