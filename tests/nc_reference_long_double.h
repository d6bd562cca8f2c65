// Test-only reference: single-machine Algorithm NC (uniform density) with
// its virtual-clairvoyant tracker, every step in long double.
//
// It follows the same algorithm as engine::StreamEngine on one machine but
// shares none of its arithmetic: the tracker holds the plain weight W (not
// W^b), each step takes its powers afresh with powl, and the sums are plain
// long double adds.  With a 64-bit mantissa on x86-64 (quad elsewhere) its
// own rounding sits about three orders of magnitude under double's, so the
// engine's error against it is the engine's error.  It is the first piece of
// an extended-precision oracle for the exact simulators.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/instance.h"

namespace speedscale::testing_ref {

struct LongDoubleNcRun {
  long double energy = 0.0L;
  long double fractional_flow = 0.0L;
  long double integral_flow = 0.0L;
  long double makespan = 0.0L;
  std::vector<long double> offsets;  ///< u0 = W^C(r_j^-) (+ tied cohort) per job id
  std::vector<long double> starts;   ///< time NC begins each job, per job id
};

/// Runs `inst` (one density) in FIFO order on one machine under P = s^alpha.
inline LongDoubleNcRun nc_uniform_long_double(const Instance& inst, double alpha) {
  using LD = long double;
  const LD b = 1.0L - 1.0L / static_cast<LD>(alpha);
  LongDoubleNcRun run;
  run.offsets.assign(inst.size(), 0.0L);
  run.starts.assign(inst.size(), 0.0L);
  LD c_weight = 0.0L;  // virtual C's remaining weight at c_time
  LD c_time = 0.0L;
  LD frontier = 0.0L;
  for (const JobId id : inst.fifo_order()) {
    const Job& job = inst.job(id);
    const LD rho = job.density;
    const LD release = job.release;
    const LD w = rho * static_cast<LD>(job.volume);
    // C's W^b falls at rate rho * b until C drains; u0 is its left limit.
    const LD root = std::pow(c_weight, b) - rho * b * (release - c_time);
    const LD u0 = root > 0.0L ? std::pow(root, 1.0L / b) : 0.0L;
    const LD u1 = u0 + w;
    c_weight = u1;
    c_time = release;
    run.offsets[static_cast<std::size_t>(id)] = u0;

    const LD start = std::max(frontier, release);
    run.starts[static_cast<std::size_t>(id)] = start;
    const LD dt = (std::pow(u1, b) - std::pow(u0, b)) / (rho * b);
    const LD energy = (std::pow(u1, 1.0L + b) - std::pow(u0, 1.0L + b)) / (rho * (1.0L + b));
    frontier = start + dt;
    run.energy += energy;
    run.fractional_flow += w * (start - release) + u1 * dt - energy;
    run.integral_flow += w * (frontier - release);
    run.makespan = std::max(run.makespan, frontier);
  }
  return run;
}

}  // namespace speedscale::testing_ref
