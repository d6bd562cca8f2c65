// Discretized offline optimum for the fractional objective.
//
// The offline problem "minimize energy + fractional weighted flow-time" is
// jointly convex in the per-slot volume allocations: with x[j,i] the volume
// of job j processed in slot i (width h, midpoint t_i),
//     G(x) = sum_i h * (sigma_i/h)^alpha + sum_{j,i} rho_j (t_i - r[j]) x[j,i],
//     sigma_i = sum_j x[j,i],
// subject to x >= 0, x[j,i] = 0 before j's first allowed slot (the first
// slot boundary at or after r[j], clamped to the last slot),
// sum_i x[j,i] = V[j].  Two solvers share that grid:
//   - one density rho for every job: the flow is rho * sum_i t_i sigma_i
//     minus a constant, so G depends on the slot totals alone under one
//     prefix constraint per release slot.  That program is solved exactly by
//     water-filling: pool-adjacent-violators over the release groups, each
//     run of groups at one water level found by safeguarded Newton;
//   - mixed densities: each job's feasible set is a scaled simplex, and the
//     program is solved by FISTA (accelerated projected gradient with
//     backtracking and restart).  Its result is a feasible point, so its
//     objective is an upper bound on the grid optimum.  FISTA stops when the
//     grid's Lagrangian dual at the point's job prices proves it within
//     rel_tol of the grid optimum.  It iterates only over the slots up to a
//     little past Algorithm C's makespan, and grows that range when the
//     dual shows the optimum needs more; the range never decides the answer.
//
// This numerical OPT is the denominator for every theorem-level competitive
// ratio we report (Table 1); the exact single-job optimum (single_job_opt.h)
// validates it, and bench E12 studies its discretization error.  It is not a
// lower bound on the continuous fractional optimum: the grid is a
// restriction (jobs start at a slot boundary, speed is constant per slot,
// nothing runs past the horizon), so even its exact optimum lies above the
// continuous one (ROADMAP item 13).
#pragma once

#include <vector>

#include "src/core/instance.h"

namespace speedscale {

struct ConvexOptParams {
  int slots = 600;        ///< number of time slots
  double horizon = 0.0;   ///< 0 = auto: 3x the Algorithm C makespan
  int max_iters = 6000;   ///< FISTA only: the iteration cap
  /// FISTA only: the certified relative gap.  FISTA stops once
  /// (objective - dual) <= rel_tol * |objective|; a negative value never
  /// stops it before max_iters.
  double rel_tol = 1e-9;
  /// Weight of the energy term: the solver minimizes
  /// energy_weight * E + F.  1.0 is the paper's objective; other values are
  /// the Lagrangian of the energy-budgeted problem (see budgeted.h).
  double energy_weight = 1.0;
};

struct ConvexOptResult {
  double energy = 0.0;
  double fractional_flow = 0.0;
  double objective = 0.0;
  /// A lower bound on the grid optimum: the grid's Lagrangian dual
  /// sum_j mu_j V_j - sum_i w h P*(m_i / w) at job prices mu_j, with P* the
  /// conjugate of s^alpha and m_i the largest mu_j - rho_j (t_i - r_j) over
  /// the jobs allowed in slot i, or 0.  The exact single-density path
  /// takes its water levels as the prices and meets `objective` to
  /// rounding.  FISTA takes the prices that make its point's support
  /// exactly optimal, and certifies its result when
  /// objective - dual <= rel_tol * |objective|; a FISTA solve that runs out
  /// of iterations first still reports the best bound it found, and counts
  /// opt.fista.uncertified.  It bounds the grid, not the continuous
  /// optimum below it (ROADMAP item 13).
  double dual = 0.0;
  /// FISTA iterations; on the single-density path, the level solver's
  /// Newton/bisection steps summed over its solves.
  int iterations = 0;
  double horizon = 0.0;
  std::vector<double> slot_speed;  ///< total machine speed per slot
};

/// Solves the discretized fractional offline optimum: exactly when every job
/// has the same density, by FISTA otherwise.  Consults the calling thread's
/// installed OptSolveCache (src/opt/opt_cache.h), when one exists, before
/// solving — results are identical either way.  On a non-empty instance,
/// throws ModelError for fewer than one slot, alpha <= 1 or non-finite, a
/// negative or non-finite horizon, or a non-positive or non-finite
/// energy_weight.
[[nodiscard]] ConvexOptResult solve_fractional_opt(const Instance& instance, double alpha,
                                                   const ConvexOptParams& params = {});

namespace detail {
/// The raw solve, bypassing any installed cache (the cache's own miss path
/// lands here — it must not recurse through the public entry).
[[nodiscard]] ConvexOptResult solve_fractional_opt_uncached(const Instance& instance, double alpha,
                                                            const ConvexOptParams& params);

/// FISTA on any instance, single-density ones included: the oracle the
/// exact path is tested against, and the kernel's own differential tests.
[[nodiscard]] ConvexOptResult solve_fractional_opt_fista(const Instance& instance, double alpha,
                                                         const ConvexOptParams& params);

/// The lower bound FISTA stops on, split at its trim.
struct GridDual {
  double trimmed = 0.0;  ///< the dual of the program on slots [0, active) alone
  double full = 0.0;     ///< the whole grid's: `trimmed` less the slots past the trim
};

/// FISTA takes its bound every this many iterations.
inline constexpr int kFistaDualEvery = 8;

/// FISTA's bound at a point x of the grid program, laid out job-major
/// (x[j * slots + i]) and zero past slot `active`: the grid dual at the
/// prices that make x's support exactly optimal.  `price` holds each job's
/// price, read as the level solve's start (NaN for none) and written with
/// the prices the bound was taken at.  Exposed so tests can replay FISTA's
/// stop decisions.
[[nodiscard]] GridDual fista_grid_dual(const Instance& instance, double alpha,
                                       const ConvexOptParams& params, double horizon, int active,
                                       const std::vector<double>& x, std::vector<double>& price);
}  // namespace detail

}  // namespace speedscale
