// E19 — observability overhead (google-benchmark).
//
// The tracing/metrics subsystem promises near-zero cost when disabled: a
// TRACE_EVENT site is one relaxed atomic load, an OBS_COUNT site one relaxed
// load plus a branch.  This bench measures the same hot loops as bench_perf
// (BM_AlgorithmC / BM_AlgorithmNCUniform) in three configurations —
// observability disabled, metrics-only, and full tracing into a ring buffer —
// so the disabled rows can be compared against the seed bench_perf numbers
// (<2% is the budget; measured numbers live in EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <memory>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/workload/generators.h"

using namespace speedscale;

namespace {

Instance make_uniform(int n, std::uint64_t seed = 1) {
  return workload::generate({.n_jobs = n, .arrival_rate = 2.0, .seed = seed});
}

void BM_AlgorithmC_ObsDisabled(benchmark::State& state) {
  const Instance inst = make_uniform(static_cast<int>(state.range(0)));
  obs::set_observability_enabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_algorithm_c(inst, 2.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AlgorithmC_ObsDisabled)->Arg(1024)->Arg(4096);

void BM_AlgorithmC_MetricsOnly(benchmark::State& state) {
  const Instance inst = make_uniform(static_cast<int>(state.range(0)));
  obs::set_metrics_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_algorithm_c(inst, 2.0));
  }
  obs::set_metrics_enabled(false);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AlgorithmC_MetricsOnly)->Arg(1024)->Arg(4096);

void BM_AlgorithmC_FullTrace(benchmark::State& state) {
  const Instance inst = make_uniform(static_cast<int>(state.range(0)));
  auto ring = std::make_shared<obs::RingBufferSink>();
  obs::ScopedTracing tracing(ring);
  obs::set_metrics_enabled(true);
  for (auto _ : state) {
    ring->clear();
    benchmark::DoNotOptimize(run_algorithm_c(inst, 2.0));
  }
  obs::set_metrics_enabled(false);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AlgorithmC_FullTrace)->Arg(1024)->Arg(4096);

void BM_AlgorithmNCUniform_ObsDisabled(benchmark::State& state) {
  const Instance inst = make_uniform(static_cast<int>(state.range(0)));
  obs::set_observability_enabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_nc_uniform(inst, 2.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AlgorithmNCUniform_ObsDisabled)->Arg(1024)->Arg(4096);

void BM_AlgorithmNCUniform_MetricsOnly(benchmark::State& state) {
  const Instance inst = make_uniform(static_cast<int>(state.range(0)));
  obs::set_metrics_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_nc_uniform(inst, 2.0));
  }
  obs::set_metrics_enabled(false);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AlgorithmNCUniform_MetricsOnly)->Arg(1024)->Arg(4096);

void BM_AlgorithmNCUniform_FullTrace(benchmark::State& state) {
  const Instance inst = make_uniform(static_cast<int>(state.range(0)));
  auto ring = std::make_shared<obs::RingBufferSink>();
  obs::ScopedTracing tracing(ring);
  obs::set_metrics_enabled(true);
  for (auto _ : state) {
    ring->clear();
    benchmark::DoNotOptimize(run_nc_uniform(inst, 2.0));
  }
  obs::set_metrics_enabled(false);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AlgorithmNCUniform_FullTrace)->Arg(1024)->Arg(4096);

// The raw cost of a dormant site, isolated: one TRACE_EVENT and one
// OBS_COUNT in a loop with tracing and metrics off.  Expect ~1 ns/iter.
void BM_DisabledSiteCost(benchmark::State& state) {
  obs::set_observability_enabled(false);
  double x = 0.0;
  for (auto _ : state) {
    TRACE_EVENT(.kind = obs::EventKind::kSpeedChange, .t = x, .value = x);
    OBS_COUNT("bench.disabled_site", 1);
    x += 1.0;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_DisabledSiteCost);

}  // namespace

BENCHMARK_MAIN();
