#include "src/analysis/pinned_suite.h"

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
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/opt/convex_opt.h"
#include "src/sim/numeric_engine.h"
#include "src/workload/generators.h"

namespace speedscale::analysis {

namespace {

constexpr double kAlpha = kPinnedBenchAlpha;

Instance make_uniform(int n, std::uint64_t seed, double rate = 2.0) {
  return workload::generate({.n_jobs = n, .arrival_rate = rate, .seed = seed});
}

/// One sweep-suite workload: the full ratio-harness suite (with certificate
/// capture) over 8 pinned uniform instances, sharded across `jobs` inner
/// workers.  The /8x1 and /8x8 entries run the *same* points, so their
/// counter snapshots must be identical — the committed proof that the sweep
/// engine's parallelism is unobservable — while their wall times expose the
/// speedup (tracked in BENCH.json; wall is advisory in the gate).
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
/// committed baseline — regenerate BENCH.json in the same change.
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
      // The generic engine at P = s^alpha: quadrature bands and root
      // iterations (sim.generic.bands, .quad_intervals, numerics.roots.*).
      {"engine.generic_c/16",
       [] { (void)run_generic_c(make_uniform(16, 3, 1.5), PowerLaw(kAlpha)); }},
      {"engine.generic_nc/12",
       [] { (void)run_generic_nc_uniform(make_uniform(12, 4, 1.5), PowerLaw(kAlpha)); }},
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
      // The streaming engine (PR 10): pinned synthetic streams through
      // src/engine/.  The engine batches its engine.stream.* counters once
      // at end of run (jobs, arena high-water/slots, recorder tallies), so
      // backlog scale — the O(active) memory contract — and the ring-drop
      // accounting sit under the hard counter gate.  The 10M-job run with
      // the RSS plateau assertion lives in bench/bench_engine_stream.cpp;
      // run_bench_suite.py merges it into the same ledger.
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
      {"engine.stream_ncpar/100k",
       [] {
         // NC-PAR's dispatch on four machines, recording off: the stream
         // shape of run_nc_par (the queue is FIFO list scheduling).
         engine::SyntheticJobSource::Params params;
         params.n_jobs = 100'000;
         params.seed = 21;
         engine::SyntheticJobSource source(params);
         engine::StreamOptions options;
         options.alpha = kAlpha;
         options.machines = 4;
         options.dispatch = DispatchPolicy::kNcPar;
         options.recorder.mode = engine::RecordMode::kOff;
         engine::StreamEngine eng(options);
         (void)eng.run(source);
       }},
      // FISTA on the sweep's density-class solve shape, 32 jobs at 200
      // slots (the instance of the opt/classes32 bit-pin lines).  Pins its work (opt.fista.iterations, .projections) and that it
      // certifies without growing its trim (opt.fista.uncertified and
      // .grows stay 0, so the ledger has no entry for them and any count
      // shows up as a new, diverging counter).
      {"opt.fista/32x200",
       [] {
         const Instance inst = workload::generate(
             {.n_jobs = 32, .density_mode = workload::DensityMode::kClasses, .seed = 1000004});
         (void)solve_fractional_opt(inst, kAlpha, {.slots = 200});
       }},
      // The sweep-engine determinism pair: same 8-point suite grid at inner
      // jobs 1 and 8.  Identical counters (incl. opt.cache.hits/misses from
      // the per-point memoized OPT solves), different wall — the committed
      // speedup evidence.
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
