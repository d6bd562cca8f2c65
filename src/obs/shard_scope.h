// Per-shard metric capture for parallel sweeps.
//
// Counter adds are commutative, so running a sweep across threads already
// produces the right global totals — but the bench ledger (src/obs/perf/)
// pins *per-workload* counters, and a global registry cannot say which shard
// produced which increment.  ShardMetricsScope gives each shard a private
// delta map: while a scope is the innermost one on its thread, every
// OBS_COUNT / shard_aware_add on that thread lands in the scope instead of
// the registry.  The sweep scheduler (src/analysis/sweep.h) then merges the
// per-shard deltas back toward the caller in instance-index order, so the
// registry's final counter values — and everything serialized from them —
// are byte-identical for --jobs 1 and --jobs N.
//
// Scopes nest (a sweep item that runs a sweep of its own, as the pinned
// suite's analysis.sweep_suite entries do, opens scopes inside its shard's
// scope), and merging routes through the *merging thread's* innermost scope
// when one is active, so an inner sweep's counters surface in the enclosing
// shard rather than leaking straight to the registry.
//
// Thread discipline: a scope must be opened and closed on one thread.  Its
// counters()/merge results may be read from another thread only after the
// owning thread finished the scope and a synchronization point intervened
// (ThreadPool::wait_idle provides one).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "src/obs/metrics_registry.h"

namespace speedscale::obs {

/// Captures this thread's counter adds for its lifetime (or until stop()).
class ShardMetricsScope {
 public:
  ShardMetricsScope();
  ~ShardMetricsScope();
  ShardMetricsScope(const ShardMetricsScope&) = delete;
  ShardMetricsScope& operator=(const ShardMetricsScope&) = delete;

  /// Stops capturing (pops the scope).  Idempotent; the destructor calls it.
  void stop();

  /// Aggregated deltas by counter name.  Call after stop() (or from the
  /// owning thread); distinct literals with equal text are combined.
  [[nodiscard]] std::map<std::string, std::int64_t> counters() const;

  /// stop(), then routes every delta toward the caller: into the merging
  /// thread's innermost active scope if one exists, else the registry.
  void merge_into_parent();

  /// Internal recording endpoints (see shard_aware_add).
  void record_site(const char* literal_name, std::int64_t n);
  void record_named(const std::string& name, std::int64_t n);

 private:
  ShardMetricsScope* prev_;
  bool active_;
  // Fast path: OBS_COUNT names are literals, so pointer identity is a valid
  // (and hash-cheap) key; equal-text duplicates merge in counters().
  std::unordered_map<const char*, std::int64_t> by_site_;
  std::map<std::string, std::int64_t> by_name_;
};

}  // namespace speedscale::obs
