// Shared JSON report for the bench_* binaries.
//
// Every perf-tracking bench appends its measurements to one file —
// BENCH_synthesis.json by default, overridable through the
// BRIDGE_BENCH_JSON environment variable — so the repo accumulates a
// recorded perf trajectory across PRs and CI runs upload one artifact.
//
// The file is a single JSON object with an "entries" array holding one
// object per line. Entries are keyed by their "name" field: writing an
// entry whose name already exists replaces it, entries from other bench
// binaries are preserved. The one-line-per-entry layout is what makes the
// merge robust without a JSON parser.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/json_text.h"
#include "dtas/synthesizer.h"

namespace bridge::benchjson {

inline std::string default_path() {
  const char* env = std::getenv("BRIDGE_BENCH_JSON");
  return env != nullptr && env[0] != '\0' ? env : "BENCH_synthesis.json";
}

struct Entry {
  std::string name;
  std::vector<std::pair<std::string, double>> numbers;
  std::vector<std::pair<std::string, std::string>> strings;

  Entry& num(std::string key, double value) {
    numbers.emplace_back(std::move(key), value);
    return *this;
  }
  Entry& str(std::string key, std::string value) {
    strings.emplace_back(std::move(key), std::move(value));
    return *this;
  }
};

inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples[samples.size() / 2];
}

/// Median wall time of `repeats` runs, in milliseconds.
template <class Fn>
double time_ms(Fn&& fn, int repeats = 3) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return median(std::move(samples));
}

/// The compiled and reference evaluators must agree exactly: same
/// alternative count, bitwise-equal metric doubles, same descriptions.
/// Both JSON-emitting benches gate their exit status on this.
inline bool identical_fronts(const std::vector<dtas::AlternativeDesign>& a,
                             const std::vector<dtas::AlternativeDesign>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].metric.area != b[i].metric.area ||
        a[i].metric.delay != b[i].metric.delay ||
        a[i].description != b[i].description) {
      return false;
    }
  }
  return true;
}

namespace detail {

inline std::string format_entry(const Entry& e) {
  std::ostringstream os;
  os << "    {\"name\": \"" << base::json_escaped(e.name) << '"';
  for (const auto& [k, v] : e.numbers) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    os << ", \"" << base::json_escaped(k) << "\": " << buf;
  }
  for (const auto& [k, v] : e.strings) {
    os << ", \"" << base::json_escaped(k) << "\": \"" << base::json_escaped(v)
       << '"';
  }
  os << '}';
  return os.str();
}

/// Name of an entry line previously written by format_entry, or "".
inline std::string entry_name(const std::string& line) {
  const std::string marker = "{\"name\": \"";
  const size_t b = line.find(marker);
  if (b == std::string::npos) return "";
  const size_t start = b + marker.size();
  std::string name;
  for (size_t i = start; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      name.push_back(line[++i]);
    } else if (line[i] == '"') {
      return name;
    } else {
      name.push_back(line[i]);
    }
  }
  return "";
}

}  // namespace detail

/// Merge `entries` into the report at `path` (see file comment) and print
/// where they went.
inline void write(const std::vector<Entry>& entries,
                  const std::string& path = default_path()) {
  // Retain existing entry lines whose names are not being rewritten.
  std::vector<std::pair<std::string, std::string>> kept;  // (name, line)
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const std::string name = detail::entry_name(line);
      if (name.empty()) continue;
      bool replaced = false;
      for (const Entry& e : entries) replaced = replaced || e.name == name;
      if (!replaced) kept.emplace_back(name, line);
    }
  }
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"schema\": \"bridge-bench-synthesis-v1\",\n  \"entries\": [\n";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) out << ",\n";
    first = false;
    out << line;
  };
  for (const auto& [name, line] : kept) {
    // Strip any trailing comma from a previously-written middle line.
    std::string l = line;
    while (!l.empty() && (l.back() == ',' || l.back() == ' ')) l.pop_back();
    emit(l);
  }
  for (const Entry& e : entries) emit(detail::format_entry(e));
  out << "\n  ]\n}\n";
  std::printf("wrote %zu entr%s to %s\n", entries.size(),
              entries.size() == 1 ? "y" : "ies", path.c_str());
}

}  // namespace bridge::benchjson
