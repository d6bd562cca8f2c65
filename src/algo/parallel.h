// Identical parallel machines without immediate dispatch (paper, Section 6).
//
//  * C-PAR (clairvoyant reference): greedy immediate dispatch — on release,
//    assign the job to the machine whose fractional remaining weight is
//    least (Lemma 19 shows this minimizes the increase in the fractional
//    objective); each machine then runs Algorithm C.  O(alpha)-competitive
//    (Theorem 18, from Anand-Garg-Kumar).
//
//  * NC-PAR (the paper's non-clairvoyant algorithm): a global FIFO queue of
//    released, unassigned jobs; whenever a machine has completed everything
//    assigned to it, it takes the queue's head.  Each machine sets its speed
//    exactly as Algorithm NC, with the current instance given by the jobs
//    assigned to *that* machine (at their original release times).
//
// Lemma 20: the two algorithms produce the *same* job-to-machine assignment;
// combined with Lemmas 3/4 per machine this yields Theorem 17's
// O(alpha + 1/(alpha-1)) competitiveness.  The tests verify assignment
// equality, exact energy equality (Lemma 21) and the exact flow ratio
// (Lemma 22).
//
// run_nc_par is engine::StreamEngine with DispatchPolicy::kNcPar, which
// realises the queue as FIFO list scheduling (engine/stream_engine.h).
#pragma once

#include <optional>
#include <vector>

#include "src/core/instance.h"
#include "src/core/metrics.h"
#include "src/core/schedule.h"

namespace speedscale {

/// A completed multi-machine run.
struct ParallelRun {
  std::vector<Schedule> schedules;     ///< one per machine (global JobIds)
  std::vector<MachineId> assignment;   ///< per job id
  std::vector<double> start_times;     ///< per job id: when processing began
  Metrics metrics;                     ///< summed over machines
  std::optional<Metrics> online;       ///< NC-PAR: the engine's accumulators
};

/// C-PAR on k identical machines; exact.  Ties in remaining weight break
/// toward the lower machine index (the fixed total order both algorithms
/// share, as the paper's Lemma 20 proof assumes).
[[nodiscard]] ParallelRun run_c_par(const Instance& instance, double alpha, int k);

/// NC-PAR on k identical machines; exact.  Requires uniform density.
[[nodiscard]] ParallelRun run_nc_par(const Instance& instance, double alpha, int k);

/// Evaluates the summed metrics of per-machine schedules against the global
/// instance (exposed for tests that build custom assignments).
[[nodiscard]] Metrics parallel_metrics(const Instance& instance,
                                       const std::vector<Schedule>& schedules,
                                       const std::vector<MachineId>& assignment, double alpha);

}  // namespace speedscale
