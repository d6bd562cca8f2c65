// E12 — quality of the numerical offline optimum (convex solver).
//
// (a) Single-job validation against the closed-form Euler-Lagrange optimum.
// (b) Grid-refinement convergence on a multi-job instance.
// (c) The C / OPT ratio stays under Theorem 1's bound of 2 across workloads.
//
// Every instance here has one density, so the solver is the exact
// water-filling path and its step counts are level-solver steps, not FISTA
// iterations (src/opt/convex_opt.h).
#include <cmath>
#include <cstdio>
#include <iostream>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/analysis/table.h"
#include "src/numerics/stats.h"
#include "src/opt/convex_opt.h"
#include "src/opt/single_job_opt.h"
#include "src/workload/generators.h"

using namespace speedscale;
using analysis::Table;

int main() {
  std::printf("E12 — convex offline-OPT solver validation\n\n");

  std::printf("(a) single job (V = 1, rho = 1) vs the closed form:\n\n");
  Table t({"alpha", "closed form", "solver (600 slots)", "rel err", "steps"});
  for (double alpha : {1.5, 2.0, 3.0}) {
    const SingleJobFracOpt exact = single_job_frac_opt(1.0, 1.0, alpha);
    const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}});
    const ConvexOptResult num = solve_fractional_opt(inst, alpha, {.slots = 600});
    t.add_row({Table::cell(alpha), Table::cell(exact.objective), Table::cell(num.objective),
               Table::cell(std::abs(num.objective - exact.objective) / exact.objective, 3),
               Table::cell(static_cast<long>(num.iterations))});
  }
  t.print(std::cout);

  std::printf("\n(b) grid refinement (8-job instance, alpha = 2):\n\n");
  const Instance inst = workload::generate({.n_jobs = 8, .arrival_rate = 1.5, .seed = 3});
  Table t2({"slots", "objective", "steps"});
  for (int slots : {100, 200, 400, 800, 1600}) {
    const ConvexOptResult r = solve_fractional_opt(inst, 2.0, {.slots = slots});
    t2.add_row({Table::cell(static_cast<long>(slots)), Table::cell(r.objective, 8),
                Table::cell(static_cast<long>(r.iterations))});
  }
  t2.print(std::cout);

  std::printf("\n(c) Theorem 1 / Theorem 5 head-room across workloads (alpha = 2):\n\n");
  Table t3({"workload", "C/OPT mean", "C/OPT max", "NC/OPT mean", "NC/OPT max"});
  struct Cfg {
    const char* name;
    workload::VolumeDist dist;
    double rate;
  };
  for (const Cfg& cfg : {Cfg{"exp volumes, rate 1.5", workload::VolumeDist::kExponential, 1.5},
                         Cfg{"pareto volumes, rate 1.5", workload::VolumeDist::kPareto, 1.5},
                         Cfg{"exp volumes, bursty rate 6", workload::VolumeDist::kExponential,
                             6.0}}) {
    numerics::RunningStats rc, rn;
    for (int seed = 1; seed <= 10; ++seed) {
      const Instance w = workload::generate({.n_jobs = 12,
                                             .arrival_rate = cfg.rate,
                                             .volume_dist = cfg.dist,
                                             .seed = static_cast<std::uint64_t>(seed)});
      const ConvexOptResult opt = solve_fractional_opt(w, 2.0, {.slots = 500, .max_iters = 3000});
      if (opt.objective <= 0.0) continue;
      rc.add(run_c(w, 2.0).metrics.fractional_objective() / opt.objective);
      rn.add(run_nc_uniform(w, 2.0).metrics.fractional_objective() / opt.objective);
    }
    t3.add_row({cfg.name, Table::cell(rc.mean()), Table::cell(rc.max()), Table::cell(rn.mean()),
                Table::cell(rn.max())});
  }
  t3.print(std::cout);
  std::printf("\nsteps: the exact single-density solver's Newton/bisection steps.\n");
  std::printf("Expected shape: single-job errors ~1e-2 or better; objectives decrease\n");
  std::printf("monotonically with refinement; C/OPT < 2 and NC/OPT < 3 everywhere.\n");
  return 0;
}
