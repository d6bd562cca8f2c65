// The pinned deterministic bench suite, as a library.
//
// The deterministic half of the bench ledger: pinned seeds and configs, so
// the MetricsRegistry counters each body produces are byte-for-byte
// reproducible (bench/bench_suite_runner.cpp asserts it across repetitions
// and shards the grid across the in-process SweepScheduler).
//
// Changing a seed, size, or config here invalidates the committed
// BENCH.json baseline that pins these names — regenerate it in the same
// change.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace speedscale::analysis {

/// Pinned configuration shared by every suite body — exported because the
/// ledger records them as config keys ("alpha", "engine_substeps").
inline constexpr double kPinnedBenchAlpha = 2.0;
inline constexpr int kPinnedBenchEngineSubsteps = 512;

/// One pinned, deterministic workload.
struct PinnedBench {
  std::string name;
  std::function<void()> body;
};

/// The pinned suite, in ledger order.  Built once per process.
[[nodiscard]] const std::vector<PinnedBench>& pinned_bench_suite();

}  // namespace speedscale::analysis
