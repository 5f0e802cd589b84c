#pragma once

// Shared pieces of the lmre benchmark binary: the seeded RNG, wall-clock
// helpers, order statistics, the in-memory span recorder and the metric
// sink that becomes the final JSON line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: the benchmark's only source of randomness, so one seed
/// always yields the same inputs.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile of an unsorted sample; 0 for an empty one.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The tail the benchmark reports: the highest percentile that still has
/// at least ten samples beyond it (p = 1 - 10/n, floored to a whole
/// tenth of a percent).  Fewer than 20 samples fall back to the maximum.
struct Tail {
  double percentile = 100.0;  ///< e.g. 99.5
  double value = 0.0;
  size_t samples = 0;
};

inline Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  if (v.size() < 20) {
    t.value = *std::max_element(v.begin(), v.end());
    return t;
  }
  double p = 1.0 - 10.0 / static_cast<double>(v.size());
  p = std::floor(p * 1000.0) / 1000.0;
  t.percentile = p * 100.0;
  t.value = quantile(v, p);
  return t;
}

/// Geometric mean of positive ratios; 1 for an empty set.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 1.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// One recorded span: a layer call made by the benchmark on behalf of one
/// request.  `parent` indexes the span that caused it (-1 for a root).
struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  int request = 0;
};

/// Spans are kept in memory and summarised when the run ends.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open one.
  void open(const char* name, int request) {
    spans_.push_back(Span{name, Clock::now(), {}, stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void close() {
    spans_[static_cast<size_t>(stack_.back())].end = Clock::now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name (ms): duration minus the covered child time.
  std::map<std::string, double> self_ms() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += ms_between(s.start, s.end);
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += ms_between(spans_[i].start, spans_[i].end) - child[i];
    }
    return out;
  }
  std::map<std::string, int> calls() const {
    std::map<std::string, int> out;
    for (const Span& s : spans_) ++out[s.name];
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, int request) : rec_(rec) {
    rec_.open(name, request);
  }
  ~ScopedSpan() { rec_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
};

/// Named metrics with units, in insertion order, plus the failure tally.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

}  // namespace perfbench
