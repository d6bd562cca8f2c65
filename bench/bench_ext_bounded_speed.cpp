// E14 (extension) — speed scaling with a bounded maximum speed (cf. [6]).
//
// A hard cap s <= s_max is the extended power function "s^alpha below s_max,
// infinite beyond", so the paper's general-P lemmas should transfer: equal
// energy (Lemma 3) and measure-preserving speed profiles (Lemma 6) between
// the capped NC and capped C — while the power-law-specific flow ratio
// 1/(1-1/alpha) (Lemma 4) should drift once the cap binds.  This bench
// measures all three across cap levels, plus the cost of the cap itself.
// It exits 1 if a Lemma 3 gap or Lemma 6 distance exceeds 1e-12, or if a
// cap that never binds (1.2x the peak and above) moves the objective off
// unbounded C's at all.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/bounds.h"
#include "src/algo/speed_bounded.h"
#include "src/analysis/table.h"
#include "src/sim/speed_profile.h"
#include "src/workload/generators.h"

using namespace speedscale;
using analysis::Table;

int main() {
  std::printf("E14 (extension) — bounded maximum speed\n");
  std::printf("(uniform density, 16 jobs, alpha = 2)\n\n");

  const double alpha = 2.0;
  const Instance inst = workload::generate({.n_jobs = 16, .arrival_rate = 2.0, .seed = 9});
  const RunResult unb_c = run_c(inst, alpha);
  const RunResult unb_nc = run_nc_uniform(inst, alpha);

  double peak = 0.0;
  for (int i = 0; i <= 2000; ++i) {
    peak = std::max(peak, unb_c.schedule.speed_at(unb_c.schedule.makespan() * i / 2000.0));
  }
  std::printf("unbounded clairvoyant peak speed: %.4f\n\n", peak);

  Table t({"s_max", "cap binds?", "energy(Cb)", "energy gap NCb vs Cb [Lem 3]",
           "rearrange dist [Lem 6]", "flow(NCb)/flow(Cb)", "1/(1-1/a)",
           "objective vs unbounded C"});
  // The gate: Lemmas 3 and 6 hold at every cap, and a cap that never binds
  // leaves C's own run, bit for bit.
  int failures = 0;
  for (double f : {0.3, 0.5, 0.7, 0.9, 1.2, 4.0}) {
    const double s_max = f * peak;
    const BoundedRun cb = run_c_bounded(inst, alpha, s_max);
    const BoundedRun ncb = run_nc_bounded(inst, alpha, s_max);
    const double e_gap = std::abs(ncb.result.metrics.energy - cb.result.metrics.energy) /
                         cb.result.metrics.energy;
    const double rd = rearrangement_distance(ncb.result.schedule, cb.result.schedule);
    const double vs_unbounded =
        cb.result.metrics.fractional_objective() / unb_c.metrics.fractional_objective();
    if (e_gap > 1e-12 || rd > 1e-12) {
      std::printf("FAIL s_max = %.4f: Lemma 3 gap %.3g, Lemma 6 distance %.3g (bound 1e-12)\n",
                  s_max, e_gap, rd);
      ++failures;
    }
    if (f >= 1.2 && vs_unbounded != 1.0) {
      std::printf("FAIL s_max = %.4f does not bind, yet objective vs unbounded C = %.17g\n",
                  s_max, vs_unbounded);
      ++failures;
    }
    t.add_row({Table::cell(s_max), f < 1.0 ? "yes" : "no",
               Table::cell(cb.result.metrics.energy), Table::cell(e_gap, 3),
               Table::cell(rd, 3),
               Table::cell(ncb.result.metrics.fractional_flow /
                           cb.result.metrics.fractional_flow, 6),
               Table::cell(bounds::nc_over_c_flow(alpha), 6),
               Table::cell(vs_unbounded)});
  }
  t.print(std::cout);

  std::printf("\nSingle-job cost vs cap level (V = 4, shows the price of capping):\n\n");
  Table t2({"s_max", "C bounded objective", "NC bounded objective"});
  for (double s_max : {0.25, 0.5, 1.0, 2.0, 8.0}) {
    const Instance one({Job{kNoJob, 0.0, 4.0, 1.0}});
    const BoundedRun cb = run_c_bounded(one, alpha, s_max);
    const BoundedRun ncb = run_nc_bounded(one, alpha, s_max);
    t2.add_row({Table::cell(s_max), Table::cell(cb.result.metrics.fractional_objective()),
                Table::cell(ncb.result.metrics.fractional_objective())});
  }
  t2.print(std::cout);
  std::printf("\nExpected shape: energy gaps and rearrangement distances ~ 0 at every cap\n");
  std::printf("(the general-P lemmas transfer); the flow ratio equals 1/(1-1/alpha) only\n");
  std::printf("when the cap never binds; costs rise as the cap tightens.\n");
  if (failures > 0) {
    std::printf("\n%d gate failure(s)\n", failures);
    return 1;
  }
  return 0;
}
