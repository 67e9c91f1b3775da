/// \file metrics.hpp
/// Lock-free-on-the-hot-path metrics registry for solver instrumentation.
///
/// Registration (name lookup) takes a mutex; the returned Counter / Gauge /
/// Timer handles are plain relaxed atomics, so hot loops (simplex pivots,
/// branch & bound node processing) record without contention. Handle
/// references are stable for the registry's lifetime (values live in
/// node-stable unique_ptr slots). A snapshot flattens everything into a
/// name -> value map for reporting (`Solution::metrics`, JSON export).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace archex::obs {

/// Monotonically increasing integer metric (events, nodes, pivots).
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-value metric (current gap, open-node count).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Accumulated duration metric with an invocation count and the worst single
/// observation; fed by obs::Region (obs/recorder.hpp).
class Timer {
 public:
  void record(std::int64_t nanos) {
    nanos_.fetch_add(nanos, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::int64_t prev = max_nanos_.load(std::memory_order_relaxed);
    while (nanos > prev &&
           !max_nanos_.compare_exchange_weak(prev, nanos,
                                             std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }
  [[nodiscard]] std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Worst single observation (seconds); 0 before any record().
  [[nodiscard]] double max_seconds() const {
    return static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  std::atomic<std::int64_t> nanos_{0};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> max_nanos_{0};
};

/// Fixed-bucket log-scale duration histogram for latency distributions
/// (service request latency, queue wait). Like Counter/Gauge/Timer the hot
/// path is relaxed atomics only: record() computes a bucket index (one log2)
/// and does two fetch_adds, so concurrent workers record without locking.
/// Buckets are geometric with ratio sqrt(2) starting at 100 µs — 64 buckets
/// cover ~100 µs to ~4.7 h with ≤ ~41% relative error per bucket, plenty for
/// p50/p99 reporting; the last bucket absorbs overflow. Quantiles linearly
/// interpolate inside the landing bucket.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(double seconds) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_nanos_.fetch_add(static_cast<std::int64_t>(seconds * 1e9),
                         std::memory_order_relaxed);
    buckets_[bucket_index(seconds)].fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum_seconds() const {
    return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }
  /// Estimated q-quantile in seconds, q in [0, 1]. NaN before any record()
  /// — "no samples" is not "zero latency". The NaN flows consistently
  /// through every export: snapshot() stores it, write_json emits null,
  /// write_prometheus prints "NaN" (valid Prometheus exposition text).
  /// Concurrent record() calls may skew an in-flight estimate by the races'
  /// worth of samples — fine for reporting, not a synchronization point.
  [[nodiscard]] double quantile(double q) const;

  /// Inclusive upper bound of bucket `i` in seconds (+inf for the last).
  [[nodiscard]] static double bucket_upper(std::size_t i);

 private:
  [[nodiscard]] static std::size_t bucket_index(double seconds);

  std::atomic<std::int64_t> buckets_[kBuckets]{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_nanos_{0};
};

/// Named metric store. Thread-safe registration, lock-free recording through
/// the returned handles. One registry spans one solve (or one arch Problem,
/// which re-uses it across encode + solve + extract).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Timer& timer(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Flattens all metrics to name -> value. Timers expand to three entries:
  /// `<name>.seconds`, `<name>.count`, and `<name>.max` (worst single
  /// observation, seconds). Histograms expand to four: `<name>.count`,
  /// `<name>.sum` (seconds), `<name>.p50`, and `<name>.p99`.
  [[nodiscard]] std::map<std::string, double> snapshot() const;

  /// Writes the snapshot as a single JSON object.
  void write_json(std::ostream& os) const;

  /// Writes the registry in Prometheus text exposition format (version
  /// 0.0.4): metric names are mangled `.` -> `_` under an `archex_` prefix,
  /// counters gain a `_total` suffix, timers expand to `_seconds_total`,
  /// `_count`, and a `_max_seconds` gauge, histograms to `_seconds_sum` /
  /// `_seconds_count` counters plus `_p50_seconds` / `_p99_seconds` gauges.
  /// Format details in docs/observability.md.
  void write_prometheus(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Prometheus text exposition of a registry as a string — the scrape body of
/// `archex_serve`'s `{"op": "metrics"}` endpoint (docs/serving.md). Thin
/// wrapper over MetricsRegistry::write_prometheus.
[[nodiscard]] std::string prometheus_text(const MetricsRegistry& reg);

}  // namespace archex::obs
