#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "base/json_text.h"

namespace bridge::obs {

namespace {

/// CAS-fold `v` into `target` under `better` (relaxed; extrema and sums
/// never order anything else).
template <class Cmp>
void fold(std::atomic<double>& target, double v, Cmp better) {
  double cur = target.load(std::memory_order_relaxed);
  while (better(v, cur) &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

int Histogram::bucket_of(double v) {
  if (!(v > 1.0)) return 0;  // <= 1, negatives, and NaN
  int b = 1;
  double bound = 2.0;
  while (v > bound && b < kBuckets - 1) {
    bound *= 2.0;
    ++b;
  }
  return b;
}

double Histogram::bucket_lower(int i) {
  return i <= 0 ? 0.0 : std::ldexp(1.0, i - 1);  // 2^(i-1)
}

double Histogram::bucket_upper(int i) {
  return i <= 0 ? 1.0 : std::ldexp(1.0, i);  // 2^i
}

void Histogram::record(double v) {
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  if (!has_extrema_.exchange(true, std::memory_order_relaxed)) {
    // First sample seeds both extrema; racing seeds resolve via the folds
    // below (a second thread that lost the exchange still folds its v).
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  fold(min_, v, [](double a, double b) { return a < b; });
  fold(max_, v, [](double a, double b) { return a > b; });
}

double Histogram::min() const {
  return has_extrema_.load(std::memory_order_relaxed)
             ? min_.load(std::memory_order_relaxed)
             : 0.0;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  has_extrema_.store(false, std::memory_order_relaxed);
}

namespace {

/// Shared percentile math: interpolate within the bucket where the
/// cumulative count crosses rank p * total.
double percentile_over(const long* buckets, int n, long total, double p) {
  if (total <= 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(total);
  long cum = 0;
  for (int i = 0; i < n; ++i) {
    const long c = buckets[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      const double within =
          c > 0 ? (target - static_cast<double>(cum)) / static_cast<double>(c)
                : 0.0;
      const double lo = Histogram::bucket_lower(i);
      const double hi = Histogram::bucket_upper(i);
      const double clamped = within < 0.0 ? 0.0 : (within > 1.0 ? 1.0 : within);
      return lo + (hi - lo) * clamped;
    }
    cum += c;
  }
  return Histogram::bucket_upper(n - 1);
}

}  // namespace

double Histogram::percentile(double p) const {
  long counts[kBuckets];
  long total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  return percentile_over(counts, kBuckets, total, p);
}

double HistogramSnapshot::percentile(double p) const {
  long total = 0;
  for (long c : buckets) total += c;
  return percentile_over(buckets.data(), static_cast<int>(buckets.size()),
                         total, p);
}

Registry& Registry::global() {
  static Registry* registry = new Registry;
  return *registry;
}

Counter& Registry::counter(const std::string& name) {
  base::LockGuard lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  base::LockGuard lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  base::LockGuard lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

Snapshot Registry::snapshot() const {
  base::LockGuard lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) {
    s.gauges[name] = g->value();
    s.gauge_peaks[name] = g->peak();
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = h->min();
    hs.max = h->max();
    hs.buckets.resize(Histogram::kBuckets);
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      hs.buckets[i] = h->bucket_count(i);
    }
    s.histograms[name] = std::move(hs);
  }
  return s;
}

void Registry::reset() {
  base::LockGuard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Snapshot diff(const Snapshot& after, const Snapshot& before) {
  Snapshot d;
  for (const auto& [name, v] : after.counters) {
    auto it = before.counters.find(name);
    d.counters[name] = v - (it == before.counters.end() ? 0 : it->second);
  }
  d.gauges = after.gauges;
  d.gauge_peaks = after.gauge_peaks;
  for (const auto& [name, h] : after.histograms) {
    HistogramSnapshot dh = h;
    auto it = before.histograms.find(name);
    if (it != before.histograms.end()) {
      dh.count -= it->second.count;
      dh.sum -= it->second.sum;
      for (size_t i = 0;
           i < dh.buckets.size() && i < it->second.buckets.size(); ++i) {
        dh.buckets[i] -= it->second.buckets[i];
      }
    }
    d.histograms[name] = std::move(dh);
  }
  return d;
}

namespace {

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "\n" : ",\n") << "    \"" << base::json_escaped(name)
       << "\": " << v;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    auto pk = gauge_peaks.find(name);
    os << (first ? "\n" : ",\n") << "    \"" << base::json_escaped(name)
       << "\": {\"value\": " << v << ", \"peak\": "
       << (pk == gauge_peaks.end() ? v : pk->second) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "\n" : ",\n") << "    \"" << base::json_escaped(name)
       << "\": {\"count\": " << h.count << ", \"sum\": " << fmt_num(h.sum)
       << ", \"min\": " << fmt_num(h.min) << ", \"max\": " << fmt_num(h.max)
       << ", \"p50\": " << fmt_num(h.percentile(0.5))
       << ", \"p99\": " << fmt_num(h.percentile(0.99)) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

}  // namespace bridge::obs
