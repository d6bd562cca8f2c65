// E20 — robustness overhead (google-benchmark).
//
// The guards added by the robustness layer promise the same cost discipline
// as the observability sites: a dormant fault-injection site is one relaxed
// atomic load, and the post-run invariant checker is a single O(bands)
// pass.  This bench isolates each cost so regressions show up as numbers,
// not folklore:
//
//   * the dormant fault_fire site, alone in a loop;
//   * the invariant checker pass by itself, on a generic-engine run.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/core/power.h"
#include "src/robust/fault_injection.h"
#include "src/robust/invariants.h"
#include "src/sim/numeric_engine.h"
#include "src/workload/generators.h"

using namespace speedscale;

namespace {

// The raw cost of a dormant injection site: one relaxed load, ~1 ns/iter.
void BM_DormantFaultSite(benchmark::State& state) {
  robust::FaultInjector::instance().clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(robust::fault_fire(robust::FaultSite::kRootBracket));
  }
}
BENCHMARK(BM_DormantFaultSite);

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
