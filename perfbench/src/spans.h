// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer (name, start, end, parent, op id), kept in per-thread buffers with
// no locking, and written at exit as Chrome trace-event JSON — the format
// src/obs emits. A layer's self time is its span time minus the time of
// its child spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index in the same buffer, -1 for a root
  long op = -1;     // per-op id; -1 for set-up spans
  bool derived = false;  // reconstructed from a reported phase duration
};

/// One thread's spans. Not thread-safe: each client thread owns one.
class SpanBuffer {
 public:
  explicit SpanBuffer(int tid = 0) : tid_(tid) {}

  /// Opens a span as a child of the innermost open span.
  int open(const std::string& name, long op);
  void close(int index);
  /// Adds a closed span of `dur_ns` starting at `start_ns` under `parent`,
  /// for time reported by the program (a profile phase, server_ms) rather
  /// than observed by the benchmark.
  int add_derived(const std::string& name, long op, int parent,
                  std::int64_t start_ns, std::int64_t dur_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  int tid() const { return tid_; }

 private:
  int tid_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null buffer records nothing (the untraced path).
class Scope {
 public:
  Scope(SpanBuffer* buf, const std::string& name, long op)
      : buf_(buf), index_(buf ? buf->open(name, op) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void close() {
    if (buf_ != nullptr && index_ >= 0) buf_->close(index_);
    index_ = -1;
  }
  int index() const { return index_; }

 private:
  SpanBuffer* buf_;
  int index_;
};

/// Self time per span name (ms, summed over every span of that name) and
/// total span time per name, over a set of buffers; only spans with op >= 0
/// when `ops_only`.
struct LayerTimes {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> total_ms;
};
LayerTimes layer_times(const std::vector<const SpanBuffer*>& buffers,
                       bool ops_only);

/// Writes every buffer as one Chrome trace-event JSON file.
void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench
