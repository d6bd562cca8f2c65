// Bench suite runner: the pinned, deterministic half of the bench ledger.
//
// Runs the fixed workload set of src/analysis/pinned_suite.h — pinned seeds
// and configurations — `--reps` times each, and emits a
// speedscale.bench_ledger/1 JSON document (src/obs/perf/bench_ledger.h):
//
//   * per repetition, the wall time of the workload body;
//   * per workload, the MetricsRegistry counter snapshot it produced — ODE
//     substeps, root-solver iterations, bracket expansions, retry-ladder
//     rungs, preemptions, segments.  The simulators are exact, so these are
//     deterministic per seed; the runner *asserts* every repetition
//     reproduces the first one's counters and fails loudly otherwise.
//
// scripts/run_bench_suite.py wraps this binary, merges the google-benchmark
// wall-time suites (E13/E19/E20/E23) and the 10M-job stream run into the
// same ledger, and writes the committed artifact (BENCH.json).
// scripts/bench_compare.py is the regression gate over two such ledgers.
//
// The (bench x repetition) grid is sharded across the in-process sweep
// scheduler (src/analysis/sweep.h) with --jobs N: each repetition runs
// inside its own metrics shard, so its counter snapshot is exactly what the
// body recorded no matter which worker ran it, and the ledger is
// byte-identical for every N.
//
// Usage:
//   bench_suite_runner [--out ledger.json] [--reps N] [--quick] [--jobs N]
//                      [--filter SUBSTR] [--exclude SUBSTR] [--list]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/cli_numbers.h"
#include "src/analysis/pinned_suite.h"
#include "src/analysis/sweep.h"
#include "src/obs/build_info.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/perf/bench_ledger.h"

using namespace speedscale;

namespace {

/// Zero-valued names filtered out of a shard's counter delta: a shard scope
/// records OBS_COUNT(name, 0) as an explicit 0 entry, but the ledger pins
/// the counters a workload actually *produced* (matching the registry's
/// historical nonzero-snapshot semantics).
std::map<std::string, std::int64_t> nonzero(const std::map<std::string, std::int64_t>& delta) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, v] : delta) {
    if (v != 0) out[name] = v;
  }
  return out;
}

int usage(const char* flag = nullptr, const char* value = nullptr) {
  if (flag != nullptr) {
    std::fprintf(stderr, "bench_suite_runner: bad %s value: %s\n\n", flag, value);
  }
  std::fprintf(stderr,
               "usage: bench_suite_runner [--out ledger.json] [--reps N] [--quick]\n"
               "                          [--jobs N] [--filter SUBSTR] [--exclude SUBSTR]\n"
               "                          [--list]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> filters, excludes;  // repeatable; substring match
  int reps = 5;
  std::size_t jobs = 1;
  bool quick = false, list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      if (!bench::parse_int_in(argv[++i], 1, 100'000, reps)) return usage("--reps", argv[i]);
    } else if (arg == "--jobs" && i + 1 < argc) {
      // Workers; 0 is not accepted (it would mean hardware concurrency).
      if (!bench::parse_int_in<std::size_t>(argv[++i], 1, 256, jobs)) {
        return usage("--jobs", argv[i]);
      }
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--filter" && i + 1 < argc) {
      filters.emplace_back(argv[++i]);
    } else if (arg == "--exclude" && i + 1 < argc) {
      excludes.emplace_back(argv[++i]);
    } else if (arg == "--list") {
      list = true;
    } else {
      return usage();
    }
  }
  if (quick) reps = std::min(reps, 2);
  if (reps < 1) return usage();

  const std::vector<analysis::PinnedBench>& suite = analysis::pinned_bench_suite();
  if (list) {
    for (const analysis::PinnedBench& b : suite) std::printf("%s\n", b.name.c_str());
    return 0;
  }

  std::vector<const analysis::PinnedBench*> selected;
  for (const analysis::PinnedBench& b : suite) {
    const auto matches = [&b](const std::string& s) {
      return b.name.find(s) != std::string::npos;
    };
    if (!filters.empty() && std::none_of(filters.begin(), filters.end(), matches)) continue;
    if (std::any_of(excludes.begin(), excludes.end(), matches)) continue;
    selected.push_back(&b);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no pinned bench matches the --filter/--exclude selection\n");
    return 2;
  }

  obs::perf::BenchLedger ledger("pinned");
  ledger.set_config("alpha", "2");
  // Build identity (src/obs/build_info.h) travels with every ledger so a
  // regression report names the exact binary.  bench_compare.py ignores
  // config, so committed baselines predating these keys stay comparable.
  ledger.set_config("build_type", obs::build_info().build_type);
  ledger.set_config("compiler", obs::build_info().compiler);
  ledger.set_config("engine_substeps", std::to_string(analysis::kPinnedBenchEngineSubsteps));
  ledger.set_config("git_hash", obs::build_info().git_hash);
  ledger.set_config("mode", quick ? "quick" : "full");
  ledger.set_config("repetitions", std::to_string(reps));

  obs::set_metrics_enabled(true);
  obs::registry().reset_all();

  // The (bench x rep) grid, item idx = bench * reps + rep.  Each
  // repetition's counters are its shard delta — exactly what the body
  // recorded, wherever it ran — so the ledger does not depend on --jobs.
  // No outer OPT cache: memoizing across repetitions would make
  // rep 1 cheaper than rep 0 and trip the determinism check (workloads that
  // want caching install their own, e.g. the sweep-suite points).
  const std::size_t n_items = selected.size() * static_cast<std::size_t>(reps);
  std::vector<double> wall_ns(n_items, 0.0);

  analysis::SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  sweep_options.opt_cache_capacity = 0;
  analysis::SweepScheduler scheduler(sweep_options);
  const std::vector<std::map<std::string, std::int64_t>> deltas =
      scheduler.run(n_items, [&](std::size_t idx) {
        const analysis::PinnedBench& b = *selected[idx / static_cast<std::size_t>(reps)];
        const auto t0 = std::chrono::steady_clock::now();
        b.body();
        const auto t1 = std::chrono::steady_clock::now();
        wall_ns[idx] = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      });

  for (std::size_t bi = 0; bi < selected.size(); ++bi) {
    const analysis::PinnedBench& b = *selected[bi];
    obs::perf::BenchEntry& entry = ledger.entry(b.name);
    entry.source = "runner";
    entry.repetitions = reps;
    for (int rep = 0; rep < reps; ++rep) {
      const std::size_t idx = bi * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep);
      entry.wall_ns.push_back(wall_ns[idx]);
      std::map<std::string, std::int64_t> counters = nonzero(deltas[idx]);
      if (rep == 0) {
        entry.counters = std::move(counters);
      } else if (counters != entry.counters) {
        // The whole point of the ledger is that this never happens.
        std::fprintf(stderr,
                     "FATAL: %s: work counters differ between repetition 0 and %d — "
                     "the workload is not deterministic\n",
                     b.name.c_str(), rep);
        return 1;
      }
    }
    std::int64_t work = 0;
    for (const auto& [name, v] : entry.counters) work += v;
    std::printf("%-28s reps=%d  wall_med=%.3f ms  counters=%zu  total_work=%lld\n",
                b.name.c_str(), reps, entry.wall_median_ns() * 1e-6, entry.counters.size(),
                static_cast<long long>(work));
  }

  if (!out_path.empty()) {
    ledger.write_file(out_path);
    std::printf("ledger written to %s (%zu benches)\n", out_path.c_str(), selected.size());
  }
  return 0;
}
