// Discretized offline optimum for the fractional objective.
//
// The offline problem "minimize energy + fractional weighted flow-time" is
// jointly convex in the per-slot volume allocations: with x[j,i] the volume
// of job j processed in slot i (width h, midpoint t_i),
//     G(x) = sum_i h * (sigma_i/h)^alpha + sum_{j,i} rho_j (t_i - r[j]) x[j,i],
//     sigma_i = sum_j x[j,i],
// subject to x >= 0, x[j,i] = 0 before j's release, sum_i x[j,i] = V[j].
// Each job's feasible set is a scaled simplex, so the program is solved by
// FISTA (accelerated projected gradient with backtracking and restart).
//
// This numerical OPT is the denominator for every theorem-level competitive
// ratio we report (Table 1); the exact single-job optimum (single_job_opt.h)
// validates it, and bench E12 studies its discretization error.  Note it is
// a valid *lower-bound reference* for the integral objective as well, since
// fractional OPT <= integral OPT.
#pragma once

#include <vector>

#include "src/core/instance.h"

namespace speedscale {

struct ConvexOptParams {
  int slots = 600;        ///< number of time slots
  double horizon = 0.0;   ///< 0 = auto: 3x the Algorithm C makespan
  int max_iters = 6000;
  double rel_tol = 1e-10; ///< stop when relative improvement stays below this
  /// Weight of the energy term: the solver minimizes
  /// energy_weight * E + F.  1.0 is the paper's objective; other values are
  /// the Lagrangian of the energy-budgeted problem (see budgeted.h).
  double energy_weight = 1.0;
};

struct ConvexOptResult {
  double energy = 0.0;
  double fractional_flow = 0.0;
  double objective = 0.0;
  int iterations = 0;
  double horizon = 0.0;
  std::vector<double> slot_speed;  ///< total machine speed per slot
};

/// Solves the discretized fractional offline optimum.  Consults the calling
/// thread's installed OptSolveCache (src/opt/opt_cache.h), when one exists,
/// before running FISTA — results are identical either way.  Throws
/// ModelError when a non-empty instance is given fewer than one slot.
[[nodiscard]] ConvexOptResult solve_fractional_opt(const Instance& instance, double alpha,
                                                   const ConvexOptParams& params = {});

namespace detail {
/// The raw FISTA solve, bypassing any installed cache (the cache's own
/// miss path lands here — it must not recurse through the public entry).
[[nodiscard]] ConvexOptResult solve_fractional_opt_uncached(const Instance& instance, double alpha,
                                                            const ConvexOptParams& params);
}  // namespace detail

}  // namespace speedscale
