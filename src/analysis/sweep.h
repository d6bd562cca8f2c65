// Parallel sharded sweep engine with deterministic reduction.
//
// Every experiment here is a grid of independent (instance, alpha) runs, and
// the grids were executed serially even though the pool exists.  The sweep
// scheduler shards items across a ThreadPool and makes the parallelism
// *unobservable* in every recorded artifact:
//
//   * results land in an index-addressed vector, so output order is the
//     submission order regardless of completion order;
//   * each item runs inside its own obs::ShardMetricsScope; after the sweep
//     drains, the per-item counter deltas are merged toward the caller in
//     index order (into the calling thread's own shard scope when one is
//     active — sweeps nest — else the global registry).  Totals are
//     therefore byte-identical for --jobs 1 and --jobs N, which keeps the
//     bench ledger's counter gate (scripts/bench_compare.py) meaningful at
//     any thread count;
//   * each item gets a private OptSolveCache (src/opt/opt_cache.h), so
//     convex OPT memoization hits depend only on the item's own solve
//     sequence, never on which sibling shard got scheduled first;
//   * --jobs 1 still routes through a one-worker pool, so pool counters
//     ("analysis.thread_pool.tasks") do not depend on the thread count
//     either.
//
// If any item throws, the first exception is rethrown on the caller after
// the sweep drains (ThreadPool's failure contract) and *no* deltas are
// merged — a failed sweep contributes nothing to the ledger.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/ratio_harness.h"
#include "src/core/instance.h"

namespace speedscale::analysis {

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency.  1 is the deterministic
  /// reference execution (still pooled — see above).
  std::size_t jobs = 1;
  /// Capacity of each item's private OPT solve cache; 0 disables caching.
  std::size_t opt_cache_capacity = 256;
};

/// Runs item(i) for i in [0, n) across a pool with per-shard metric capture
/// and the deterministic index-ordered reduction described above.  Returns
/// the per-item counter deltas (what each item added, by counter name).
class SweepScheduler {
 public:
  explicit SweepScheduler(const SweepOptions& options = {});

  std::vector<std::map<std::string, std::int64_t>> run(
      std::size_t n, const std::function<void(std::size_t)>& item);

 private:
  SweepOptions options_;
};

/// One grid point of a suite sweep.
struct SuitePoint {
  Instance instance;
  double alpha = 2.0;
};

/// Index-ordered results of run_suite over a point grid, with deterministic
/// serializations: equal inputs produce byte-identical strings at any --jobs.
struct SuiteSweepResult {
  struct PointInfo {
    double alpha = 2.0;
    std::size_t n_jobs = 0;
  };

  std::vector<SuiteResult> suites;     ///< suites[i] = run_suite(points[i])
  std::vector<PointInfo> info;         ///< per-point header data for JSON
  /// Per-point counter deltas and their index-ordered sum (what the sweep
  /// merged into the caller's scope / the registry).
  std::vector<std::map<std::string, std::int64_t>> point_counters;
  std::map<std::string, std::int64_t> merged_counters;

  /// One JSON object for the whole sweep (sorted structure, "%.17g"
  /// locale-independent numbers — see src/obs/json_util.h).
  [[nodiscard]] std::string suite_json() const;
  /// Concatenated certificate streams: a {"kind":"cert_stream",...} header
  /// line per certified outcome, then its certificates_jsonl records.
  [[nodiscard]] std::string cert_jsonl() const;
};

/// Runs the ratio-harness suite on every point, sharded per SweepOptions.
[[nodiscard]] SuiteSweepResult run_suite_sweep(const std::vector<SuitePoint>& points,
                                               const SuiteOptions& suite_options,
                                               const SweepOptions& sweep_options = {});

}  // namespace speedscale::analysis
