// E20 — robustness overhead (google-benchmark).
//
// The post-run invariant checker promises the same cost discipline as the
// observability sites: a single O(bands) pass.  This bench isolates that
// pass on a reusable generic-engine run, so a regression shows up as a
// number, not folklore.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/core/power.h"
#include "src/robust/invariants.h"
#include "src/sim/numeric_engine.h"
#include "src/workload/generators.h"

using namespace speedscale;

namespace {

// The checker pass in isolation, on a reusable run.
void BM_InvariantChecker(benchmark::State& state) {
  const Instance inst = workload::generate(
      {.n_jobs = static_cast<int>(state.range(0)), .arrival_rate = 1.5, .seed = 1});
  const SampledRun run = run_generic_c(inst, PowerLaw(2.0));
  robust::InvariantOptions opts;
  opts.kind = robust::RunKind::kAlgorithmC;
  for (auto _ : state) {
    benchmark::DoNotOptimize(robust::check_sampled_run(inst, run, opts));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(run.bands.size()));
}
BENCHMARK(BM_InvariantChecker)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
