// Algorithm NC for uniform densities (paper, Section 3).
//
// The first constant-competitive non-clairvoyant speed-scaling algorithm:
//   * Job selection: FIFO (smallest release first).  FIFO is forced by
//     information: by the time NC reaches job j, every earlier job has been
//     fully processed, so their volumes are known — which is exactly what the
//     speed rule needs.
//   * Speed: while processing job j at time t, set P(s) = W^C(r[j]^-) +
//     Wbreve[j](t), where W^C(r[j]^-) is the remaining weight of a *virtual
//     clairvoyant run* (Algorithm C on the jobs released before r[j]) at the
//     instant j was released, and Wbreve[j](t) is the weight of j that NC has
//     processed so far.  The machine's power thus sweeps the clairvoyant
//     power curve in reverse (Figure 1b).
//
// The run is engine::StreamEngine on one machine, fed by an
// InstanceJobSource: the virtual C run is the engine's O(1) W^b tracker
// (with uniform density C's remaining weight decays independently of which
// job C picks), and a ring of n segments records the whole schedule.
//
// Guarantees (verified exactly by the tests):
//   Lemma 3:   energy(NC) == energy(C)
//   Lemma 4:   flow(NC)   == flow(C) / (1 - 1/alpha)
//   Lemma 6/7: speed profiles are measure-preserving rearrangements
//   Theorem 5: (2 + 1/(alpha-1))-competitive, fractional objective
//   Theorem 9: (3 + 1/(alpha-1))-competitive, integral objective
#pragma once

#include <vector>

#include "src/algo/run_result.h"
#include "src/core/instance.h"

namespace speedscale {

/// Detailed NC run: result plus the quantities the analysis talks about.
struct NCUniformRun {
  RunResult result;
  /// W^C(r[j]^-) per job id, read from the job's segment, so an offset below
  /// the smallest normal double reads as about that double.
  std::vector<double> offsets;
  std::vector<double> starts;   ///< time NC begins processing each job

  explicit NCUniformRun(double alpha) : result(alpha) {}
};

/// Runs Algorithm NC on a uniform-density instance with P(s) = s^alpha.
/// Exact (closed-form growth segments).  Throws ModelError if densities are
/// not uniform — use run_nc_nonuniform for the general case.
[[nodiscard]] NCUniformRun run_nc_uniform_detailed(const Instance& instance, double alpha);

/// Convenience wrapper returning only schedule + metrics.
[[nodiscard]] RunResult run_nc_uniform(const Instance& instance, double alpha);

}  // namespace speedscale
