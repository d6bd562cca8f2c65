#include "src/analysis/pinned_suite.h"

#include <chrono>
#include <cstdint>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_nonuniform.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/analysis/sweep.h"
#include "src/engine/job_source.h"
#include "src/engine/stream_engine.h"
#include "src/core/power.h"
#include "src/numerics/roots.h"
#include "src/obs/cert/potential_tracker.h"
#include "src/obs/history/history_store.h"
#include "src/obs/history/sentinel.h"
#include "src/obs/live/telemetry_hub.h"
#include "src/obs/perf/bench_ledger.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/robust/guarded_engine.h"
#include "src/sim/numeric_engine.h"
#include "src/workload/generators.h"

namespace speedscale::analysis {

namespace {

constexpr double kAlpha = kPinnedBenchAlpha;
constexpr int kEngineSubsteps = kPinnedBenchEngineSubsteps;

Instance make_uniform(int n, std::uint64_t seed, double rate = 2.0) {
  return workload::generate({.n_jobs = n, .arrival_rate = rate, .seed = seed});
}

NumericConfig engine_config() {
  NumericConfig cfg;
  cfg.substeps_per_interval = kEngineSubsteps;
  return cfg;
}

/// One sweep-suite workload: the full ratio-harness suite (with certificate
/// capture) over 8 pinned uniform instances, sharded across `jobs` inner
/// workers.  The /8x1 and /8x8 entries run the *same* points, so their
/// counter snapshots must be identical — the committed proof that the sweep
/// engine's parallelism is unobservable — while their wall times expose the
/// speedup (tracked in BENCH_PR5.json; wall is advisory in the gate).
void run_sweep_suite_bench(std::size_t jobs) {
  std::vector<analysis::SuitePoint> points;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    points.push_back({make_uniform(20, seed), kAlpha});
  }
  analysis::SuiteOptions suite;
  suite.include_nonuniform = false;
  suite.certify = true;
  suite.opt_slots = 200;
  analysis::SweepOptions sweep;
  sweep.jobs = jobs;
  (void)analysis::run_suite_sweep(points, suite, sweep);
}

/// The pinned suite.  Changing a seed, size, or config here invalidates the
/// committed baseline — regenerate BENCH_PR3.json in the same change.
std::vector<PinnedBench> build_pinned_suite() {
  return {
      {"sim.algorithm_c/1024",
       [] { (void)run_algorithm_c(make_uniform(1024, 1), kAlpha); }},
      {"sim.algorithm_c/4096",
       [] { (void)run_algorithm_c(make_uniform(4096, 1), kAlpha); }},
      {"sim.nc_uniform/1024", [] { (void)run_nc_uniform(make_uniform(1024, 1), kAlpha); }},
      {"sim.nc_nonuniform/8",
       [] {
         const Instance inst = workload::generate(
             {.n_jobs = 8, .density_mode = workload::DensityMode::kClasses, .seed = 2});
         (void)run_nc_nonuniform(inst, kAlpha);
       }},
      {"sim.preemption_burst/256",
       [] {
         // Bursty arrivals with mixed densities: later, denser jobs displace
         // the running one, so this pins the preemption counter.
         const Instance inst = workload::generate({.n_jobs = 256,
                                                   .arrival_rate = 4.0,
                                                   .density_mode = workload::DensityMode::kClasses,
                                                   .seed = 6});
         (void)run_algorithm_c(inst, kAlpha);
       }},
      {"engine.numeric_c/16",
       [] {
         const PowerLaw p(kAlpha);
         (void)run_generic_c(make_uniform(16, 3, 1.5), p, engine_config());
       }},
      {"engine.numeric_nc/12",
       [] {
         const PowerLaw p(kAlpha);
         (void)run_generic_nc_uniform(make_uniform(12, 4, 1.5), p, engine_config());
       }},
      {"robust.guarded_nc/8",
       [] {
         const PowerLaw p(kAlpha);
         robust::GuardedNumericOptions options;
         options.base.substeps_per_interval = 256;
         options.alpha = kAlpha;
         (void)robust::run_generic_nc_uniform_guarded(make_uniform(8, 5, 1.5), p, options);
       }},
      {"cert.nc_uniform/24",
       [] {
         // Certificate ledger over a captured NC run.  Single-job OPT mode:
         // closed-form, so obs.cert.records / obs.cert.opt_lb_updates are
         // deterministic work counters — the convex-solve mode would add
         // iteration counts that drift with solver tuning.  The capture is
         // thread-exclusive (ScopedThreadCapture): global ScopedTracing
         // would interleave sibling benches' events at --jobs > 1.
         obs::RingBufferSink ring(1 << 16);
         {
           obs::ScopedThreadCapture capture(&ring);
           (void)run_nc_uniform(make_uniform(24, 7), kAlpha);
         }
         obs::cert::CertOptions copts;
         copts.opt_lb = obs::cert::OptLbMode::kSingleJob;
         (void)obs::cert::certify_events(ring.events(), kAlpha, copts);
       }},
      {"numerics.roots/sweep",
       [] {
         // 48 bracketing root solves: pins brent/bisect iteration counts and
         // the geometric bracket-expansion tally.
         for (int k = 1; k <= 48; ++k) {
           const double target = static_cast<double>(k);
           (void)numerics::find_root_increasing(
               [target](double x) { return x * x * x - target; }, 0.0, 0.5, 1e-12);
         }
       }},
      {"live.nc_uniform_sampled/256",
       [] {
         // NC-uniform with the live telemetry sampler scraping the registry
         // at 1 ms (src/obs/live/).  The hub writes gauges only, so the
         // shard's counter delta must pin exactly the same work counters as
         // an unsampled run — the committed proof that live telemetry is
         // unobservable in the deterministic half of the ledger.
         obs::live::TelemetryOptions topts;
         topts.period = std::chrono::milliseconds(1);
         topts.publish_sweep_gauges = false;
         obs::live::TelemetryHub hub(topts);
         hub.start();
         (void)run_nc_uniform(make_uniform(256, 9), kAlpha);
         hub.stop();
       }},
      // The streaming engine (PR 10): pinned synthetic streams through
      // src/engine/.  The engine batches its engine.stream.* counters once
      // at end of run (jobs, arena high-water/slots, recorder tallies), so
      // backlog scale — the O(active) memory contract — and the ring-drop
      // accounting sit under the hard counter gate.  Kept in their own
      // ledger (BENCH_PR10.json) via run_bench_suite.py --filter/--exclude
      // engine.stream; the 10M-job run with the RSS plateau assertion lives
      // in bench/bench_engine_stream.cpp, merged into the same ledger.
      {"engine.stream/100k",
       [] {
         // The 10M-run mode at smoke scale: recording off, metrics online-only.
         engine::SyntheticJobSource::Params params;
         params.n_jobs = 100'000;
         params.seed = 21;
         engine::SyntheticJobSource source(params);
         engine::StreamOptions options;
         options.alpha = kAlpha;
         options.recorder.mode = engine::RecordMode::kOff;
         engine::StreamEngine eng(options);
         (void)eng.run(source);
       }},
      {"engine.stream_ring/20k",
       [] {
         // Ring recording over a deliberately undersized ring (drops pinned)
         // on two round-robin machines (the dispatch path pinned too).
         engine::SyntheticJobSource::Params params;
         params.n_jobs = 20'000;
         params.seed = 22;
         engine::SyntheticJobSource source(params);
         engine::StreamOptions options;
         options.alpha = kAlpha;
         options.machines = 2;
         options.recorder.mode = engine::RecordMode::kRing;
         options.recorder.ring_capacity = 1 << 10;
         engine::StreamEngine eng(options);
         (void)eng.run(source);
       }},
      // The perf-history observatory (PR 9): a fixed synthetic trajectory —
      // four bench-ledger runs, one injected counter regression in the last
      // run — pushed through the full stack: strict round-trip must be
      // byte-stable, the lenient loader must count a torn line and a
      // duplicate exactly, and the sentinel must flag exactly the injected
      // regression.  The byte/record/verdict tallies pin the
      // speedscale.history/1 wire format and the sentinel's policy.
      {"obs.history_store/48",
       [] {
         obs::history::HistoryStore store;
         for (int run = 0; run < 4; ++run) {
           obs::perf::BenchLedger ledger("pinned-history");
           ledger.set_config("git_hash", "deadbeefcafe");
           ledger.set_config("mode", "pinned");
           for (int b = 0; b < 6; ++b) {
             auto& e = ledger.entry("pinned.series/" + std::to_string(b));
             e.repetitions = 2;
             e.wall_ns = {1000.0 + 10.0 * (run % 3) + b, 990.0 + b};
             e.counters["sim.steps"] = 100 + b * 10 + (run == 3 && b == 5 ? 7 : 0);
             e.counters["opt.iters"] = 40 + b;
           }
           store.ingest_bench_ledger(ledger.to_json());
         }
         const std::string doc = store.to_jsonl();
         const obs::history::HistoryStore reparsed =
             obs::history::HistoryStore::parse(doc, obs::history::LoadMode::kStrict);
         if (reparsed.to_jsonl() != doc) {
           throw ModelError("obs.history_store bench: round-trip drifted");
         }
         // Lenient load over a corpus with one torn line and one duplicate.
         obs::history::LoadStats stats;
         const std::string corrupted =
             doc + "{\"torn\n" + store.records()[4].to_json() + "\n";
         const obs::history::HistoryStore lenient = obs::history::HistoryStore::parse(
             corrupted, obs::history::LoadMode::kLenient, &stats);
         if (stats.skipped_lines != 1 || stats.duplicates != 1 ||
             lenient.to_jsonl() != doc) {
           throw ModelError("obs.history_store bench: lenient load drifted");
         }
         const obs::history::SentinelReport report = obs::history::analyze(store);
         if (report.n_regression != 1 ||
             report.overall() != obs::history::Verdict::kRegression) {
           throw ModelError("obs.history_store bench: sentinel missed the regression");
         }
         OBS_COUNT("obs.history.records", static_cast<std::int64_t>(store.records().size()));
         OBS_COUNT("obs.history.bytes", static_cast<std::int64_t>(doc.size()));
         OBS_COUNT("obs.history.sentinel_ok", static_cast<std::int64_t>(report.n_ok));
         OBS_COUNT("obs.history.sentinel_advisory",
                   static_cast<std::int64_t>(report.n_advisory));
         OBS_COUNT("obs.history.sentinel_regression",
                   static_cast<std::int64_t>(report.n_regression));
       }},
      // The sweep-engine determinism pair: same 8-point suite grid at inner
      // jobs 1 and 8.  Identical counters (incl. opt.cache.hits/misses from
      // the per-point memoized OPT solves), different wall — the committed
      // speedup evidence.  Heavier than the rest; run_bench_suite.py keeps
      // them in their own ledger (--exclude / --filter analysis.sweep_suite).
      {"analysis.sweep_suite/8x1", [] { run_sweep_suite_bench(1); }},
      {"analysis.sweep_suite/8x8", [] { run_sweep_suite_bench(8); }},
  };
}

}  // namespace

const std::vector<PinnedBench>& pinned_bench_suite() {
  static const std::vector<PinnedBench> suite = build_pinned_suite();
  return suite;
}

}  // namespace speedscale::analysis
