// Immediate dispatch and the Section 6 lower-bound adversary.
//
// Paper, Section 6: in the immediate-dispatch model, every deterministic
// non-clairvoyant algorithm is Omega(k^{1-1/alpha})-competitive, even with
// uniform densities and the fractional objective.  The adversary releases
// k^2 jobs at time 0; since the algorithm cannot distinguish them (identical
// observable parameters), some machine receives >= k jobs, and the adversary
// makes exactly those k jobs heavy and every other job negligible.  The
// algorithm then pays ~ the cost of k heavy jobs stacked on one machine,
// k^{1-1/alpha} times the optimum of one heavy job per machine.
//
// "Any deterministic algorithm" is instantiated by the natural deterministic
// dispatchers below; the pigeonhole step works against each of them because
// the k^2 jobs are observationally identical at dispatch time.
#pragma once

#include <vector>

#include "src/core/instance.h"
#include "src/core/metrics.h"

namespace speedscale {

/// Dispatch rules for k machines.  The first three are immediate rules: they
/// see only observable (non-clairvoyant) information at arrival (order,
/// release times, densities, counts), and Section 6's adversary defeats
/// them.  kNcPar is not one: it is Theorem 17's NC-PAR, where a job waits in
/// a global FIFO queue until a machine drains, so it depends on when earlier
/// jobs finish.  Only engine::StreamEngine runs it.
enum class DispatchPolicy {
  kRoundRobin,   ///< job i -> machine i mod k
  kLeastCount,   ///< machine with fewest assigned jobs (lowest index ties)
  kFirstFit,     ///< always the lowest-indexed machine until count k, then next
  kNcPar,        ///< NC-PAR's global FIFO queue (not an immediate rule)
};

/// Dispatches `n` observationally-identical jobs to k machines under one of
/// the immediate rules; throws ModelError for kNcPar.
[[nodiscard]] std::vector<MachineId> dispatch_identical(DispatchPolicy policy, int k, int n);

/// Runs each machine's assigned jobs under Algorithm C and sums the metrics.
[[nodiscard]] Metrics run_assignment_with_c(const Instance& instance, double alpha, int k,
                                            const std::vector<MachineId>& assignment);

/// Outcome of one adversary round.
struct AdversaryOutcome {
  double algo_cost = 0.0;     ///< fractional objective of the dispatched schedule
  double opt_cost = 0.0;      ///< fractional objective of the spread-out schedule
  double ratio = 0.0;
  int loaded_machine = -1;    ///< machine the adversary targeted
  int loaded_count = 0;       ///< jobs on it (>= k by pigeonhole)
};

/// Executes the Section 6 construction for k machines: k^2 unit-density jobs
/// at time 0; the adversary sets the k first jobs of the most-loaded machine
/// to volume `vol_hi` and all remaining jobs to `vol_lo`.
[[nodiscard]] AdversaryOutcome run_sec6_adversary(int k, double alpha, DispatchPolicy policy,
                                                  double vol_hi = 1.0, double vol_lo = 1e-9);

}  // namespace speedscale
