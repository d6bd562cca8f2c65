// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Naming convention (docs/observability.md): dot-separated, lower-case,
// rooted at the subsystem — "sim.c_machine.segments",
// "analysis.thread_pool.task_latency_us".  Metrics are created on first use
// and live for the process; references returned by the registry are stable.
//
// Cost discipline: every mutation is a relaxed atomic op on a pre-resolved
// reference.  Hot simulator loops additionally gate their sites behind
// metrics_enabled() (one relaxed load) via OBS_COUNT, so a disabled build of
// the bench hot path pays a branch, not an atomic RMW, per event — and the
// shared cache line is never bounced across thread-pool workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace speedscale::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-written level (queue depth, current ratio, ...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: counts per upper bound plus an implicit +inf
/// bucket, with total count and sum for mean recovery.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x);

  [[nodiscard]] const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Bucket counts, size upper_bounds().size() + 1 (last = overflow).
  [[nodiscard]] std::vector<std::int64_t> bucket_counts() const;
  [[nodiscard]] std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Process-wide name -> metric map.  Get-or-create; references are stable.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Bounds are fixed by the first caller; later callers get the same
  /// histogram regardless of the bounds they pass.
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds);

  /// Every counter's current value, sorted by name.  The deterministic
  /// work-counter signal the bench ledger records (src/obs/perf/).
  [[nodiscard]] std::map<std::string, std::int64_t> counter_values() const;

  /// Serializes every metric as one JSON object:
  ///   {"build_info":{...},"counters":{...},"gauges":{...},"histograms":{...}}
  /// Keys are sorted and numbers locale-independent "%.17g", so equal state
  /// serializes byte-identically everywhere (see src/obs/json_util.h).
  [[nodiscard]] std::string snapshot_json() const;
  void write_snapshot(std::ostream& os) const;

  /// Zeroes every metric (names survive).  For tests and benches.
  void reset_all();

 private:
  MetricsRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::instance().
[[nodiscard]] MetricsRegistry& registry();

class ShardMetricsScope;

namespace detail {
/// Gate for *hot-path* metric sites (see OBS_COUNT).  Off by default so the
/// exact simulators run at seed speed; harnesses and tools flip it on.
inline std::atomic<bool> g_metrics_enabled{false};
/// Innermost shard scope on this thread (src/obs/shard_scope.h).  While
/// non-null, counter adds divert into the scope's private delta map instead
/// of the global registry; the sweep scheduler merges the deltas back in a
/// deterministic order after the shard finishes.
inline thread_local ShardMetricsScope* g_shard_scope = nullptr;
/// Records `n` against `literal_name` in the thread's innermost shard scope.
/// Pointer is retained: the name must have static storage duration.
void shard_record(const char* literal_name, std::int64_t n);
}  // namespace detail

[[nodiscard]] inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on) noexcept;

/// Enables/disables both pillars' runtime gates (tracing + hot metrics).
void set_observability_enabled(bool on) noexcept;

/// Shard-aware add for a pre-resolved counter (the OBS_COUNT fast path):
/// one thread_local load + branch on top of the relaxed RMW.  `name` must
/// have static storage duration (shard scopes retain the pointer).
inline void shard_aware_add(Counter& cached, const char* name, std::int64_t n) {
  if (detail::g_shard_scope != nullptr) {
    detail::shard_record(name, n);
  } else {
    cached.add(n);
  }
}

/// Shard-aware add for call sites that carry the counter name at runtime and
/// cannot cache a per-site reference (numerics::IterationTally, the sweep
/// scheduler's merge step).  `name` must have static storage duration.
void shard_aware_add(const char* name, std::int64_t n);
/// Same, for dynamically built names (the pointer is not retained).
void shard_aware_add(const std::string& name, std::int64_t n);

}  // namespace speedscale::obs

/// Hot-path counter increment: a relaxed load + branch when disabled; the
/// registry lookup happens once per call site.  `name` must be a literal.
#define OBS_COUNT(name, n)                                                    \
  do {                                                                        \
    if (::speedscale::obs::metrics_enabled()) {                               \
      static ::speedscale::obs::Counter& obs_counter_ =                       \
          ::speedscale::obs::registry().counter(name);                        \
      ::speedscale::obs::shard_aware_add(obs_counter_, name, (n));            \
    }                                                                         \
  } while (0)
