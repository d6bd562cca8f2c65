#include "src/analysis/sweep.h"

#include <optional>
#include <utility>

#include "src/analysis/thread_pool.h"
#include "src/obs/json_util.h"
#include "src/obs/shard_scope.h"
#include "src/opt/opt_cache.h"

namespace speedscale::analysis {

SweepScheduler::SweepScheduler(const SweepOptions& options) : options_(options) {}

std::vector<std::map<std::string, std::int64_t>> SweepScheduler::run(
    std::size_t n, const std::function<void(std::size_t)>& item) {
  std::vector<std::map<std::string, std::int64_t>> deltas(n);
  {
    ThreadPool pool(options_.jobs);
    parallel_for(pool, n, [&](std::size_t i) {
      // Shard isolation: counters divert into this item's private scope, and
      // OPT solves memoize in this item's private cache — so what the item
      // records depends only on the item, never on sibling scheduling.
      obs::ShardMetricsScope scope;
      std::optional<OptSolveCache> cache;
      std::optional<ScopedOptSolveCache> bind;
      if (options_.opt_cache_capacity > 0) {
        cache.emplace(options_.opt_cache_capacity);
        bind.emplace(&*cache);
      }
      item(i);
      bind.reset();
      scope.stop();
      deltas[i] = scope.counters();
    });
    // parallel_for rethrows the first item failure here, before any merge:
    // a failed sweep contributes nothing to the ledger.
  }
  // Deterministic reduction, on the caller's thread: index order, routed
  // through the caller's own shard scope when sweeps nest.
  for (const auto& delta : deltas) {
    for (const auto& [name, v] : delta) obs::shard_aware_add(name, v);
  }
  return deltas;
}

namespace {

void append_outcome_json(std::string& out, const SuiteResult& suite, const AlgoOutcome& o) {
  out += "{\"name\":";
  obs::append_json_string(out, o.name);
  out += ",\"status\":";
  obs::append_json_string(out, robust::run_status_name(o.status));
  out += ",\"energy\":";
  obs::append_json_number(out, o.metrics.energy);
  out += ",\"fractional_flow\":";
  obs::append_json_number(out, o.metrics.fractional_flow);
  out += ",\"integral_flow\":";
  obs::append_json_number(out, o.metrics.integral_flow);
  out += ",\"frac_ratio\":";
  obs::append_json_number(out, suite.frac_ratio(o));
  out += ",\"int_ratio\":";
  obs::append_json_number(out, suite.int_ratio(o));
  if (o.certified) {
    out += ",\"cert_records\":" + std::to_string(o.cert_records);
    out += ",\"cert_violations\":" + std::to_string(o.cert_violations);
    out += ",\"cert_min_slack\":";
    obs::append_json_number(out, o.cert_min_slack);
    out += ",\"cert_min_slack_int\":";
    obs::append_json_number(out, o.cert_min_slack_int);
  }
  if (!o.diagnostic.empty()) {
    out += ",\"diagnostic\":";
    obs::append_json_string(out, o.diagnostic);
  }
  out += '}';
}

/// The `{"point":i,...}` object embedded in suite_json()'s "points" array.
std::string suite_point_json(std::size_t index, const SuiteSweepResult::PointInfo& info,
                             const SuiteResult& suite) {
  std::string out = "{\"point\":" + std::to_string(index);
  out += ",\"alpha\":";
  obs::append_json_number(out, info.alpha);
  out += ",\"n_jobs\":" + std::to_string(info.n_jobs);
  out += ",\"opt_fractional\":";
  if (suite.opt_fractional) {
    obs::append_json_number(out, *suite.opt_fractional);
  } else {
    out += "null";
  }
  out += ",\"outcomes\":[";
  for (std::size_t k = 0; k < suite.outcomes.size(); ++k) {
    if (k > 0) out += ',';
    append_outcome_json(out, suite, suite.outcomes[k]);
  }
  out += "]}";
  return out;
}

/// One point's slice of cert_jsonl(): a {"kind":"cert_stream",...} header
/// line per certified outcome followed by its certificate records.
std::string suite_point_cert_jsonl(std::size_t index, const SuiteResult& suite) {
  std::string out;
  for (const AlgoOutcome& o : suite.outcomes) {
    if (!o.certified) continue;
    out += "{\"kind\":\"cert_stream\",\"point\":" + std::to_string(index) + ",\"algo\":";
    obs::append_json_string(out, o.name);
    out += "}\n";
    out += o.cert_jsonl;
  }
  return out;
}

}  // namespace

std::string SuiteSweepResult::suite_json() const {
  std::string out = "{\"schema\":\"speedscale.suite_sweep/1\",\"points\":[";
  for (std::size_t i = 0; i < suites.size(); ++i) {
    if (i > 0) out += ',';
    out += suite_point_json(i, info[i], suites[i]);
  }
  out += "],\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : merged_counters) {
    if (!first) out += ',';
    first = false;
    obs::append_json_string(out, name);
    out += ':' + std::to_string(v);
  }
  out += "}}";
  return out;
}

std::string SuiteSweepResult::cert_jsonl() const {
  std::string out;
  for (std::size_t i = 0; i < suites.size(); ++i) {
    out += suite_point_cert_jsonl(i, suites[i]);
  }
  return out;
}

SuiteSweepResult run_suite_sweep(const std::vector<SuitePoint>& points,
                                 const SuiteOptions& suite_options,
                                 const SweepOptions& sweep_options) {
  SuiteSweepResult out;
  out.suites.resize(points.size());
  out.info.reserve(points.size());
  for (const SuitePoint& p : points) out.info.push_back({p.alpha, p.instance.size()});

  SweepScheduler scheduler(sweep_options);
  out.point_counters = scheduler.run(points.size(), [&](std::size_t i) {
    out.suites[i] = run_suite(points[i].instance, points[i].alpha, suite_options);
  });
  for (const auto& delta : out.point_counters) {
    for (const auto& [name, v] : delta) out.merged_counters[name] += v;
  }
  return out;
}

}  // namespace speedscale::analysis
