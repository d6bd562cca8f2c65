// Sweep engine, shard metric capture, OPT solve cache, and the thread-pool
// fixes that ride with them (PR 5).
//
// The load-bearing property throughout: parallelism must be unobservable in
// every recorded artifact.  The headline test runs the same suite sweep at
// --jobs 1/2/4 and asserts the suite JSON, the concatenated certificate
// JSONL, and the merged registry counter snapshot are byte-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/algo/algorithm_nc_uniform.h"
#include "src/analysis/sweep.h"
#include "src/analysis/thread_pool.h"
#include "src/analysis/worst_case.h"
#include "src/core/power.h"
#include "src/obs/cert/potential_tracker.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/shard_scope.h"
#include "src/obs/trace.h"
#include "src/opt/convex_opt.h"
#include "src/opt/opt_cache.h"
#include "src/robust/fault_injection.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

// --- ShardMetricsScope --------------------------------------------------

TEST(ShardScope, CapturesAddsAndMergesOnRequest) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::registry().counter("test.shard.capture");
  const std::int64_t base = c.value();
  obs::ShardMetricsScope scope;
  OBS_COUNT("test.shard.capture", 5);
  OBS_COUNT("test.shard.capture", 2);
  scope.stop();
  // Diverted: nothing reached the registry while the scope was active.
  EXPECT_EQ(c.value(), base);
  const auto deltas = scope.counters();
  ASSERT_EQ(deltas.count("test.shard.capture"), 1u);
  EXPECT_EQ(deltas.at("test.shard.capture"), 7);
  scope.merge_into_parent();
  EXPECT_EQ(c.value(), base + 7);
}

TEST(ShardScope, NestedMergeRoutesToEnclosingScope) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::registry().counter("test.shard.nested");
  const std::int64_t base = c.value();
  obs::ShardMetricsScope outer;
  {
    obs::ShardMetricsScope inner;
    OBS_COUNT("test.shard.nested", 3);
    inner.merge_into_parent();
  }
  // The inner merge must land in `outer`, not leak to the registry.
  EXPECT_EQ(c.value(), base);
  outer.stop();
  const auto deltas = outer.counters();
  ASSERT_EQ(deltas.count("test.shard.nested"), 1u);
  EXPECT_EQ(deltas.at("test.shard.nested"), 3);
  outer.merge_into_parent();
  EXPECT_EQ(c.value(), base + 3);
}

TEST(ShardScope, DroppedScopeContributesNothing) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::registry().counter("test.shard.dropped");
  const std::int64_t base = c.value();
  {
    obs::ShardMetricsScope scope;
    OBS_COUNT("test.shard.dropped", 11);
    // No merge: destructor only pops the scope (rejected-attempt semantics).
  }
  EXPECT_EQ(c.value(), base);
}

// --- OptSolveCache ------------------------------------------------------

TEST(OptSolveCache, MemoizesExactRepeatsOnly) {
  const Instance inst = workload::generate({.n_jobs = 6, .arrival_rate = 2.0, .seed = 3});
  ConvexOptParams params;
  params.slots = 100;
  OptSolveCache cache(16);
  ScopedOptSolveCache bind(&cache);
  const ConvexOptResult a = solve_fractional_opt(inst, 2.0, params);
  const ConvexOptResult b = solve_fractional_opt(inst, 2.0, params);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.iterations, b.iterations);

  // Any parameter change is a different key — no epsilon matching.
  params.slots = 101;
  (void)solve_fractional_opt(inst, 2.0, params);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(OptSolveCache, UninstalledMeansUncached) {
  const Instance inst = workload::generate({.n_jobs = 4, .arrival_rate = 2.0, .seed = 9});
  OptSolveCache cache(16);
  {
    ScopedOptSolveCache bind(&cache);
    (void)solve_fractional_opt(inst, 2.0, {});
  }
  (void)solve_fractional_opt(inst, 2.0, {});  // outside the scope: no lookup
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

// --- ThreadPool regressions ---------------------------------------------

TEST(ThreadPoolRegression, NestedSubmitDrainsBeforeWaitIdleReturns) {
  analysis::ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&] {
    ran.fetch_add(1);
    pool.submit([&] {
      ran.fetch_add(1);
      pool.submit([&] { ran.fetch_add(1); });
    });
  });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolRegression, FailureCountersSurviveTeardown) {
  obs::set_metrics_enabled(true);
  obs::Counter& failures = obs::registry().counter("analysis.thread_pool.task_failures");
  obs::Counter& dropped = obs::registry().counter("analysis.thread_pool.dropped_errors");
  const std::int64_t f0 = failures.value();
  const std::int64_t d0 = dropped.value();
  {
    analysis::ThreadPool pool(2);
    for (int i = 0; i < 3; ++i) {
      pool.submit([] { throw std::runtime_error("boom"); });
    }
    // No wait_idle(): teardown drains the queue, counts every failure, and
    // reports the uncollected first error instead of swallowing it.
  }
  EXPECT_EQ(failures.value() - f0, 3);
  EXPECT_EQ(dropped.value() - d0, 1);
}

TEST(ThreadPoolRegression, CollectedErrorIsNotDropped) {
  obs::Counter& dropped = obs::registry().counter("analysis.thread_pool.dropped_errors");
  const std::int64_t d0 = dropped.value();
  {
    analysis::ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("collected"); });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    EXPECT_EQ(pool.failed_tasks(), 1u);
  }
  EXPECT_EQ(dropped.value() - d0, 0);
}

// --- SweepScheduler -----------------------------------------------------

TEST(SweepScheduler, DeltasAreIndexAddressed) {
  obs::set_metrics_enabled(true);
  analysis::SweepOptions options;
  options.jobs = 3;
  analysis::SweepScheduler scheduler(options);
  const auto deltas = scheduler.run(5, [](std::size_t i) {
    OBS_COUNT("test.sweep.work", static_cast<std::int64_t>(i + 1));
  });
  ASSERT_EQ(deltas.size(), 5u);
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    ASSERT_EQ(deltas[i].count("test.sweep.work"), 1u) << "item " << i;
    EXPECT_EQ(deltas[i].at("test.sweep.work"), static_cast<std::int64_t>(i + 1));
  }
}

TEST(SweepScheduler, ItemFailureRethrownAndNothingMerged) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::registry().counter("test.sweep.failed_sweep");
  const std::int64_t base = c.value();
  analysis::SweepOptions options;
  options.jobs = 4;
  analysis::SweepScheduler scheduler(options);
  EXPECT_THROW(scheduler.run(8,
                             [](std::size_t i) {
                               OBS_COUNT("test.sweep.failed_sweep", 1);
                               if (i == 3) throw std::runtime_error("item failed");
                             }),
               std::runtime_error);
  // A failed sweep contributes nothing to the ledger.
  EXPECT_EQ(c.value(), base);
}

// --- Determinism: the tentpole contract ---------------------------------

/// Runs the pinned suite sweep at `jobs` workers and returns every recorded
/// artifact: the suite JSON, the certificate JSONL, and the (nonzero) merged
/// registry counter snapshot.
struct SweepArtifacts {
  std::string suite_json;
  std::string cert_jsonl;
  std::map<std::string, std::int64_t> counters;
};

SweepArtifacts run_pinned_sweep(std::size_t jobs) {
  obs::registry().reset_all();
  std::vector<analysis::SuitePoint> points;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    points.push_back(
        {workload::generate({.n_jobs = 6, .arrival_rate = 2.0, .seed = seed}), 2.0});
  }
  analysis::SuiteOptions suite;
  suite.include_nonuniform = false;
  suite.certify = true;
  suite.opt_slots = 120;
  analysis::SweepOptions sweep;
  sweep.jobs = jobs;
  const analysis::SuiteSweepResult r = analysis::run_suite_sweep(points, suite, sweep);
  SweepArtifacts out;
  out.suite_json = r.suite_json();
  out.cert_jsonl = r.cert_jsonl();
  for (const auto& [name, v] : obs::registry().counter_values()) {
    if (v != 0) out.counters[name] = v;
  }
  return out;
}

TEST(SweepDeterminism, ArtifactsByteIdenticalAcrossJobs) {
  obs::set_metrics_enabled(true);
  const SweepArtifacts serial = run_pinned_sweep(1);
  const SweepArtifacts two = run_pinned_sweep(2);
  const SweepArtifacts four = run_pinned_sweep(4);

  EXPECT_EQ(serial.suite_json, two.suite_json);
  EXPECT_EQ(serial.suite_json, four.suite_json);
  EXPECT_EQ(serial.cert_jsonl, two.cert_jsonl);
  EXPECT_EQ(serial.cert_jsonl, four.cert_jsonl);
  EXPECT_EQ(serial.counters, two.counters);
  EXPECT_EQ(serial.counters, four.counters);

  // Sanity: the artifacts actually contain the interesting parts.
  EXPECT_NE(serial.suite_json.find("\"schema\":\"speedscale.suite_sweep/1\""),
            std::string::npos);
  EXPECT_NE(serial.suite_json.find("cert_records"), std::string::npos);
  EXPECT_FALSE(serial.cert_jsonl.empty());
  // The per-point OPT caches saw repeats (C and NC certify the same prefix
  // chain), and the hit counter made it into the merged snapshot.
  ASSERT_EQ(serial.counters.count("opt.cache.hits"), 1u);
  EXPECT_GT(serial.counters.at("opt.cache.hits"), 0);
}

TEST(WorstCaseRestarts, ResultIdenticalAtAnyJobs) {
  analysis::WorstCaseOptions options;
  options.n_jobs = 2;
  options.rounds = 2;
  options.opt_slots = 80;
  options.seed = 3;
  options.restarts = 3;
  options.jobs = 1;
  const analysis::WorstCaseResult serial = analysis::find_worst_nc_instance(2.0, options);
  options.jobs = 3;
  const analysis::WorstCaseResult parallel = analysis::find_worst_nc_instance(2.0, options);

  EXPECT_EQ(serial.ratio, parallel.ratio);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.failed_evaluations, parallel.failed_evaluations);
  EXPECT_EQ(serial.rounds_completed, parallel.rounds_completed);
  EXPECT_EQ(serial.restarts_run, 3);
  EXPECT_EQ(parallel.restarts_run, 3);
  ASSERT_EQ(serial.instance.size(), parallel.instance.size());
  for (std::size_t i = 0; i < serial.instance.size(); ++i) {
    EXPECT_EQ(serial.instance.jobs()[i].release, parallel.instance.jobs()[i].release);
    EXPECT_EQ(serial.instance.jobs()[i].volume, parallel.instance.jobs()[i].volume);
  }
}

TEST(CertifySolverJobs, LedgerByteIdenticalAtAnyJobs) {
  const Instance inst = workload::generate({.n_jobs = 10, .arrival_rate = 2.0, .seed = 2});
  obs::RingBufferSink ring(1 << 16);
  {
    obs::ScopedThreadCapture capture(&ring);
    (void)run_nc_uniform(inst, 2.0);
  }
  obs::cert::CertOptions options;
  options.opt_slots = 120;
  options.solver_jobs = 1;
  const obs::cert::CertificateLedger serial =
      obs::cert::certify_events(ring.events(), 2.0, options);
  options.solver_jobs = 4;
  const obs::cert::CertificateLedger parallel =
      obs::cert::certify_events(ring.events(), 2.0, options);
  EXPECT_EQ(serial.records.size(), parallel.records.size());
  EXPECT_EQ(serial.opt_lb_updates, parallel.opt_lb_updates);
  EXPECT_EQ(obs::cert::certificates_jsonl(serial), obs::cert::certificates_jsonl(parallel));
}

}  // namespace
}  // namespace speedscale
