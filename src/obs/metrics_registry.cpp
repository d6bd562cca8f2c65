#include "src/obs/metrics_registry.h"

#include <algorithm>
#include <sstream>

#include "src/core/types.h"
#include "src/obs/build_info.h"
#include "src/obs/json_util.h"
#include "src/obs/trace.h"

namespace speedscale::obs {

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.empty() ? 1 : bounds_.size() + 1) {
  if (bounds_.empty()) throw ModelError("Histogram: need at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i] > bounds_[i - 1])) {
      throw ModelError("Histogram: bucket bounds must be strictly increasing");
    }
  }
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());  // == size() -> overflow
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

std::vector<std::int64_t> Histogram::bucket_counts() const {
  std::vector<std::int64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// --- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry reg;
  return reg;
}

MetricsRegistry& registry() { return MetricsRegistry::instance(); }

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

std::map<std::string, std::int64_t> MetricsRegistry::counter_values() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

// Keys emit in sorted order (the maps are ordered) and numbers through
// append_json_number — snapshots of equal state are byte-identical across
// runs, platforms, and process locales.
std::string MetricsRegistry::snapshot_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\"build_info\":";
  append_build_info_json(out);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    append_json_number(out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":{\"bounds\":[";
    const auto& bounds = h->upper_bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i) out += ',';
      append_json_number(out, bounds[i]);
    }
    out += "],\"counts\":[";
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(counts[i]);
    }
    out += "],\"count\":";
    out += std::to_string(h->count());
    out += ",\"sum\":";
    append_json_number(out, h->sum());
    out += '}';
  }
  out += "}}";
  return out;
}

void MetricsRegistry::write_snapshot(std::ostream& os) const { os << snapshot_json(); }

void MetricsRegistry::reset_all() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void set_metrics_enabled(bool on) noexcept {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

void set_observability_enabled(bool on) noexcept {
  set_metrics_enabled(on);
  Tracer::instance().set_enabled(on);
}

}  // namespace speedscale::obs
