// E9 — the FIFO/HDF conflict and the speed rule (Section 1.2 ablations).
//
// Two ablations of Algorithm NC's design:
//  (1) Speed rule: replace the per-job clairvoyant offset with the naive
//      "P = total processed weight" — the exact identities break and the
//      ratio degrades on sparse instances.
//  (2) Job order (non-uniform): pure FIFO (density-blind) instead of
//      rounded-HDF — high-density jobs queue behind bulky low-density ones.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_nonuniform.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/baselines.h"
#include "src/analysis/table.h"
#include "src/numerics/stats.h"
#include "src/workload/adversarial.h"
#include "src/workload/generators.h"

using namespace speedscale;
using analysis::Table;

int main() {
  std::printf("E9 — design-rule ablations (Section 1.2's FIFO vs HDF conflict)\n\n");

  std::printf("(1) Speed rule: Algorithm NC vs the naive P = total-processed rule\n");
  std::printf("    (uniform density, alpha = 2; ratio vs Algorithm C; 12 seeds per rate)\n\n");
  Table t({"arrival rate", "NC/C (frac)", "naive/C (frac)", "NC energy == C energy?",
           "naive energy / C energy"});
  for (double rate : {0.2, 0.5, 1.0, 2.0, 4.0}) {
    numerics::RunningStats nc_ratio, naive_ratio, naive_energy;
    double worst_gap = 0.0;
    for (int seed = 1; seed <= 12; ++seed) {
      const Instance inst = workload::generate({.n_jobs = 16,
                                                .arrival_rate = rate,
                                                .seed = static_cast<std::uint64_t>(seed)});
      const RunResult c = run_c(inst, 2.0);
      const RunResult nc = run_nc_uniform(inst, 2.0);
      const RunResult naive = run_naive_nc(inst, 2.0);
      nc_ratio.add(nc.metrics.fractional_objective() / c.metrics.fractional_objective());
      naive_ratio.add(naive.metrics.fractional_objective() / c.metrics.fractional_objective());
      naive_energy.add(naive.metrics.energy / c.metrics.energy);
      worst_gap = std::max(worst_gap, std::abs(nc.metrics.energy - c.metrics.energy) /
                                          c.metrics.energy);
    }
    t.add_row({Table::cell(rate), Table::cell(nc_ratio.mean()), Table::cell(naive_ratio.mean()),
               worst_gap < 1e-9 ? "yes (gap < 1e-9)" : Table::cell(worst_gap, 3),
               Table::cell(naive_energy.mean())});
  }
  t.print(std::cout);

  std::printf("\n(2) Order rule (non-uniform): rounded-HDF vs density-blind FIFO\n");
  std::printf("    on the FIFO/HDF-conflict instance (one bulky low-density job,\n");
  std::printf("    bursts of urgent high-density jobs); alpha = 2.\n\n");
  Table t2({"density ratio", "C (frac)", "NC rounded-HDF", "NC density-blind",
            "HDF/C", "blind/C"});
  for (double ratio : {5.0, 20.0, 80.0}) {
    const Instance inst = workload::fifo_hdf_conflict_instance(3, 3, ratio);
    const RunResult c = run_c(inst, 2.0);
    const NCNonUniformRun hdf = run_nc_nonuniform(inst, 2.0);
    // Density-blind: feed the algorithm the same instance with densities
    // erased (all 1) for ORDERING, but evaluate with true densities by
    // running the rounded machinery on a unit-density copy and replaying.
    NCNonUniformParams blind_params;
    blind_params.round_densities = true;
    std::vector<Job> unit_jobs = inst.jobs();
    for (Job& j : unit_jobs) j.density = 1.0;
    const Instance unit_inst{std::move(unit_jobs)};
    const NCNonUniformRun blind = run_nc_nonuniform(unit_inst, 2.0, blind_params);
    // Replay the blind schedule against the TRUE instance for fair metrics
    // (the unit-density copy keeps every job id).
    const PowerLaw p(2.0);
    const Metrics blind_m = compute_metrics(inst, blind.result.schedule, p);
    t2.add_row({Table::cell(ratio), Table::cell(c.metrics.fractional_objective()),
                Table::cell(hdf.result.metrics.fractional_objective()),
                Table::cell(blind_m.fractional_objective()),
                Table::cell(hdf.result.metrics.fractional_objective() /
                            c.metrics.fractional_objective()),
                Table::cell(blind_m.fractional_objective() /
                            c.metrics.fractional_objective())});
  }
  t2.print(std::cout);
  std::printf("\nExpected shape: naive speed rule wastes energy on sparse instances\n");
  std::printf("(rate << 1) and its energy identity gap is large; density-blind ordering\n");
  std::printf("degrades steeply as the density ratio grows, rounded-HDF stays flat.\n");
  return 0;
}
