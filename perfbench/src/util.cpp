#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

std::uint64_t sub_seed(std::uint64_t seed, std::string_view label) {
  return Hasher().u64(seed).bytes(label).value();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double cpu_ms(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}
}  // namespace

double process_cpu_ms() { return cpu_ms(RUSAGE_SELF); }
double thread_cpu_ms() { return cpu_ms(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

namespace {
constexpr std::uint64_t kPrime = 0x100000001b3ULL;
inline std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  h ^= w;
  h *= kPrime;
  return h ^ (h >> 29);
}
}  // namespace

Hasher& Hasher::bytes(std::string_view s) {
  h_ = mix(h_, s.size());
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + i, 8);
    h_ = mix(h_, w);
  }
  std::uint64_t tail = 0;
  if (i < s.size()) std::memcpy(&tail, s.data() + i, s.size() - i);
  h_ = mix(h_, tail);
  return *this;
}

Hasher& Hasher::u64(std::uint64_t v) {
  h_ = mix(h_, v);
  return *this;
}

Hasher& Hasher::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return u64(bits);
}

std::string Hasher::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

bool quantile_supported(std::size_t n, double q, std::size_t beyond) {
  if (n == 0) return false;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return n >= rank + beyond;
}

}  // namespace perfbench
