// E13 — engine performance (google-benchmark).
//
// Event throughput of the exact simulators, scaling in job count, the cost
// of the non-uniform algorithm's inner C re-simulations, and thread-pool
// sweep scaling.
#include <benchmark/benchmark.h>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_nonuniform.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/parallel.h"
#include "src/analysis/thread_pool.h"
#include "src/opt/convex_opt.h"
#include "src/workload/generators.h"

using namespace speedscale;

namespace {

Instance make_uniform(int n, std::uint64_t seed = 1) {
  return workload::generate({.n_jobs = n, .arrival_rate = 2.0, .seed = seed});
}

void BM_AlgorithmC(benchmark::State& state) {
  const Instance inst = make_uniform(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_algorithm_c(inst, 2.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AlgorithmC)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_AlgorithmNCUniform(benchmark::State& state) {
  const Instance inst = make_uniform(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_nc_uniform(inst, 2.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AlgorithmNCUniform)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MetricsReplay(benchmark::State& state) {
  const Instance inst = make_uniform(static_cast<int>(state.range(0)));
  const Schedule sched = run_algorithm_c(inst, 2.0);
  const PowerLaw p(2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_metrics(inst, sched, p));
  }
}
BENCHMARK(BM_MetricsReplay)->Arg(16)->Arg(64)->Arg(256);

void BM_NCNonUniform(benchmark::State& state) {
  const Instance inst = workload::generate({.n_jobs = static_cast<int>(state.range(0)),
                                            .density_mode = workload::DensityMode::kClasses,
                                            .seed = 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_nc_nonuniform(inst, 2.0));
  }
}
BENCHMARK(BM_NCNonUniform)->Arg(4)->Arg(8)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_NCPar(benchmark::State& state) {
  const Instance inst = make_uniform(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_nc_par(inst, 2.0, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_NCPar)->Arg(2)->Arg(8)->Arg(32);

/// Args {jobs, slots, classes}: 8 unit-density jobs at 100 and 400 slots,
/// then the two shapes perfbench `sweep` solves: a 12-job prefix
/// certificate at 240 slots and a 32-job density-class point at 200 slots.
void BM_ConvexOpt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Instance inst =
      state.range(2) != 0
          ? workload::generate(
                {.n_jobs = n, .density_mode = workload::DensityMode::kClasses, .seed = 1})
          : make_uniform(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_fractional_opt(inst, 2.0, {.slots = static_cast<int>(state.range(1)),
                                         .max_iters = 500}));
  }
}
BENCHMARK(BM_ConvexOpt)
    ->ArgNames({"jobs", "slots", "classes"})
    ->Args({8, 100, 0})
    ->Args({8, 400, 0})
    ->Args({12, 240, 0})
    ->Args({32, 200, 1})
    ->Unit(benchmark::kMillisecond);

void BM_SweepThreads(benchmark::State& state) {
  const std::size_t n_threads = static_cast<std::size_t>(state.range(0));
  // Pre-generate chunky instances so the measured region is pure simulation.
  std::vector<Instance> instances;
  for (std::size_t i = 0; i < 32; ++i) instances.push_back(make_uniform(1024, i + 1));
  analysis::ThreadPool pool(n_threads);
  for (auto _ : state) {
    std::vector<double> out(instances.size());
    analysis::parallel_for(pool, out.size(), [&](std::size_t i) {
      out[i] = run_nc_uniform(instances[i], 2.0).metrics.fractional_objective();
    });
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SweepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
