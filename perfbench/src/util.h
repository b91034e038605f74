// Small self-contained helpers shared by the benchmark's workloads: a
// seeded generator whose streams are identical on every platform, clocks,
// process resource counters, percentiles, and a stable 64-bit hash.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64: the same seed yields the same stream everywhere (unlike the
/// <random> distributions, whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

/// Derive an independent stream seed from a parent seed and a label.
std::uint64_t sub_seed(std::uint64_t seed, std::string_view label);

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();
inline double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// Process user+system CPU time (getrusage RUSAGE_SELF), milliseconds.
double process_cpu_ms();
/// The calling thread's user+system CPU time (RUSAGE_THREAD), milliseconds.
double thread_cpu_ms();
/// Peak resident set size (ru_maxrss), MiB.
double peak_rss_mb();
/// Online CPUs (at least 1).
int online_cpus();

/// Stable 64-bit content hash (word-at-a-time FNV-style mix). Used for the
/// golden front digests, so it must never depend on the standard library.
class Hasher {
 public:
  Hasher& bytes(std::string_view s);
  Hasher& u64(std::uint64_t v);
  Hasher& f64(double v);  // exact bit pattern
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A uniform sample of at most `capacity` values from a stream of any
/// length (reservoir sampling, seeded): latency percentiles from a bounded
/// buffer, so the benchmark's own memory does not grow with the window and
/// show up in the program's peak RSS.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}
  void add(double v) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(v);
    } else if (const std::uint64_t j = rng_.next() % seen_; j < capacity_) {
      values_[j] = v;
    }
  }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t capacity_;
  Rng rng_;
  std::uint64_t seen_ = 0;
  std::vector<double> values_;
};

/// The q-quantile (0 < q < 1) of `values` by nearest rank on the sorted
/// samples. Sorts `values` in place.
double quantile(std::vector<double>& values, double q);

/// True when a q-quantile of n samples has at least `beyond` samples above
/// it — the rule for which percentile a run may report.
bool quantile_supported(std::size_t n, double q, std::size_t beyond = 10);

}  // namespace perfbench
