#pragma once
// Named metrics: counters, gauges and log2-bucketed histograms.
//
// The runtime publishes its RunStats / TableStats / Comm counters into the
// registry under a dotted-name convention (`<component>.<metric>[_<unit>]`,
// see docs/observability.md), and the whole registry dumps as one JSON or
// text document.  Publishing happens off the hot paths: `runtime.*` once
// per rank at the end of run_node, `comm.*` and
// `runtime.ready_queue_depth` once per run in runtime::run_facts (covering
// the attempt that finished, after a restart).  Instruments are created
// once (mutex-guarded name lookup) and then updated with relaxed atomics.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dpgen::obs {

/// Monotone event count.
class Counter {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time level; also tracks the maximum level ever set.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// Clears the level AND the high-water mark: back-to-back runs in one
  /// process must not inherit the previous run's peak through
  /// MetricsRegistry::reset().
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Histogram over nonnegative values with power-of-two bucket boundaries:
/// bucket b counts observations in [2^(b-1), 2^b) (bucket 0 holds 0).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(std::int64_t v);

  /// Adds every observation `other` holds, as if each were observed here.
  void merge(const Histogram& other);

  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t min() const { return min_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::int64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside
  /// the log2 bucket holding the target rank, clamped to [min, max].
  /// Exact at the bucket boundaries; within a factor of 2 inside.
  double quantile(double q) const;

  void reset();

 private:
  std::atomic<std::int64_t> buckets_[kBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Process-wide registry of named instruments.  Names are stable for the
/// life of the process; reset() zeroes values but keeps instruments so
/// cached references stay valid.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// {"counters":{...},"gauges":{...},"histograms":{...}}
  std::string to_json() const;
  /// One `name value` line per instrument (Prometheus-flavoured).
  std::string to_text() const;

  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dpgen::obs
