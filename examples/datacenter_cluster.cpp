// Datacenter cluster: scheduling on identical parallel machines (Section 6).
//
//  * without immediate dispatch, NC-PAR (global FIFO queue + per-machine
//    Algorithm NC speeds) matches the clairvoyant greedy dispatcher C-PAR
//    job-for-job and is O(alpha)-competitive (Theorem 17);
//  * with immediate dispatch, ANY deterministic non-clairvoyant dispatcher
//    gets fooled by the Omega(k^{1-1/alpha}) adversary.
//
// Usage: datacenter_cluster (no arguments).
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/algo/dispatch.h"
#include "src/algo/parallel.h"
#include "src/workload/generators.h"

using namespace speedscale;

namespace {

int run_demo() {
  const double alpha = 2.0;
  const int k = 8;

  const Instance inst = workload::generate({.n_jobs = 96, .arrival_rate = 6.0, .seed = 31});
  std::printf("cluster of %d speed-scalable machines, %zu jobs, alpha = %.1f\n\n", k,
              inst.size(), alpha);

  const ParallelRun nc = run_nc_par(inst, alpha, k);
  const ParallelRun c = run_c_par(inst, alpha, k);

  int matches = 0;
  for (std::size_t j = 0; j < inst.size(); ++j) {
    if (nc.assignment[j] == c.assignment[j]) ++matches;
  }
  std::printf("NC-PAR vs clairvoyant C-PAR:\n");
  std::printf("  identical machine assignments : %d / %zu   [Lemma 20]\n", matches, inst.size());
  std::printf("  energy                        : %.4f vs %.4f   [equal, Lemma 21]\n",
              nc.metrics.energy, c.metrics.energy);
  std::printf("  fractional flow               : %.4f vs %.4f (ratio %.4f = 1/(1-1/a))\n",
              nc.metrics.fractional_flow, c.metrics.fractional_flow,
              nc.metrics.fractional_flow / c.metrics.fractional_flow);
  std::printf("  fractional objective          : %.4f vs %.4f\n\n",
              nc.metrics.fractional_objective(), c.metrics.fractional_objective());

  // Per-machine load summary.
  std::printf("per-machine job counts (NC-PAR): ");
  std::vector<int> count(static_cast<std::size_t>(k), 0);
  for (MachineId m : nc.assignment) ++count[static_cast<std::size_t>(m)];
  for (int i = 0; i < k; ++i) std::printf("%d ", count[static_cast<std::size_t>(i)]);
  std::printf("\n\n");

  std::printf("why the queue matters — the immediate-dispatch adversary (Section 6):\n");
  std::printf("  k    cost(dispatched)/cost(spread)   k^(1-1/alpha)\n");
  for (int kk : {2, 4, 8, 16}) {
    const AdversaryOutcome out = run_sec6_adversary(kk, alpha, DispatchPolicy::kRoundRobin);
    std::printf("  %-4d %10.3f %28.3f\n", kk, out.ratio,
                std::pow(static_cast<double>(kk), 1.0 - 1.0 / alpha));
  }
  std::printf("\nHolding jobs in a shared queue (no immediate dispatch) is what lets the\n");
  std::printf("non-clairvoyant cluster avoid this penalty entirely.\n");
  return 0;
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: datacenter_cluster (no arguments)\n");
    return 2;
  }
  return run_demo();
}
