#include "obs/profile.h"

#include <cstdio>
#include <sstream>

#include "base/json_text.h"

namespace bridge::obs {

double Profile::total_ms() const {
  double total = 0.0;
  for (const auto& [phase, ms] : phases_ms) total += ms;
  return total;
}

double Profile::phase_ms(const std::string& phase) const {
  for (const auto& [p, ms] : phases_ms) {
    if (p == phase) return ms;
  }
  return 0.0;
}

long Profile::counter(const std::string& name) const {
  for (const auto& [c, v] : counters) {
    if (c == name) return v;
  }
  return 0;
}

std::string Profile::to_json() const {
  std::ostringstream os;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", total_ms());
  os << "{\"name\": \"" << base::json_escaped(name)
     << "\", \"total_ms\": " << buf << ", \"phases_ms\": {";
  bool first = true;
  for (const auto& [phase, ms] : phases_ms) {
    std::snprintf(buf, sizeof(buf), "%.6g", ms);
    os << (first ? "" : ", ") << "\"" << base::json_escaped(phase)
       << "\": " << buf;
    first = false;
  }
  os << "}, \"counters\": {";
  first = true;
  for (const auto& [counter, v] : counters) {
    os << (first ? "" : ", ") << "\"" << base::json_escaped(counter)
       << "\": " << v;
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace bridge::obs
