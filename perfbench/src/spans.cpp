#include "spans.h"

#include <cstdio>

#include "base/diag.h"
#include "util.h"

namespace perfbench {

int SpanBuffer::open(const std::string& name, long op) {
  SpanRecord r;
  r.name = name;
  r.op = op;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.start_ns = now_ns();
  spans_.push_back(std::move(r));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanBuffer::close(int index) {
  spans_[index].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

int SpanBuffer::add_derived(const std::string& name, long op, int parent,
                            std::int64_t start_ns, std::int64_t dur_ns) {
  SpanRecord r;
  r.name = name;
  r.op = op;
  r.parent = parent;
  r.start_ns = start_ns;
  r.end_ns = start_ns + (dur_ns > 0 ? dur_ns : 0);
  r.derived = true;
  spans_.push_back(std::move(r));
  return static_cast<int>(spans_.size()) - 1;
}

LayerTimes layer_times(const std::vector<const SpanBuffer*>& buffers,
                       bool ops_only) {
  LayerTimes out;
  for (const SpanBuffer* b : buffers) {
    const std::vector<SpanRecord>& s = b->spans();
    std::vector<double> child_ms(s.size(), 0.0);
    for (const SpanRecord& r : s) {
      if (r.parent >= 0) child_ms[r.parent] += ms_between(r.start_ns, r.end_ns);
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (ops_only && s[i].op < 0) continue;
      const double total = ms_between(s[i].start_ns, s[i].end_ns);
      out.total_ms[s[i].name] += total;
      out.self_ms[s[i].name] += total - child_ms[i];
    }
  }
  return out;
}

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw bridge::Error("cannot write trace " + path);
  std::int64_t t0 = 0;
  for (const SpanBuffer* b : buffers) {
    for (const SpanRecord& r : b->spans()) {
      if (t0 == 0 || r.start_ns < t0) t0 = r.start_ns;
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool first = true;
  for (const SpanBuffer* b : buffers) {
    const std::vector<SpanRecord>& s = b->spans();
    for (std::size_t i = 0; i < s.size(); ++i) {
      const SpanRecord& r = s[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                   "\"args\": {\"op\": %ld, \"id\": %zu, \"parent\": %d}}",
                   first ? "" : ",", escape(r.name).c_str(),
                   r.derived ? "perfbench.derived" : "perfbench",
                   static_cast<double>(r.start_ns - t0) / 1e3,
                   static_cast<double>(r.end_ns - r.start_ns) / 1e3, b->tid(),
                   r.op, i, r.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench
