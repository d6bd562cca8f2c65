// Scalar root finding: bisection and Brent's method.
//
// Used for cutting the generic engine's bands at releases (and inverting
// them), and solving the transcendental horizon equation of the single-job
// offline optimum.
//
// Failure contract (docs/robustness.md): all failures are typed
// robust::RobustError diagnostics —
//   * kRootNotBracketed — the bracket never straddles a sign change
//     (including when geometric re-expansion hits its cap);
//   * kNumericNonfinite — f returned NaN at a probe point;
//   * kNoConvergence    — never surfaced by brent: on iteration exhaustion
//     it *degrades* to bisection on the current bracket (counted under
//     "numerics.roots.brent_fallbacks") instead of failing.
#pragma once

#include <functional>

namespace speedscale::numerics {

/// Plain bisection on [lo, hi].  Requires f(lo) and f(hi) of opposite sign
/// (or one of them zero).  Returns a point x with |interval| <= tol or
/// f(x) == 0.  Throws robust::RobustError(kRootNotBracketed) otherwise.
double bisect(const std::function<double(double)>& f, double lo, double hi, double tol);

/// Brent's method: inverse-quadratic interpolation with bisection fallback.
/// Same contract as bisect(), typically ~10x fewer evaluations.  If the
/// iteration budget runs out before the tolerance is met, falls back to
/// plain bisection on the (always valid) current bracket — graceful
/// degradation, not an exception.
double brent(const std::function<double(double)>& f, double lo, double hi, double tol,
             int max_iter = 200);

/// Expands [lo, hi] geometrically upward until f changes sign, then calls
/// brent.  Requires f(lo) <= 0 and f eventually positive.  The expansion is
/// capped at `max_expansions` doublings (~1e18 growth at the default); a cap
/// hit throws robust::RobustError(kRootNotBracketed) whose context reports
/// the final bracket, instead of growing without bound.
double find_root_increasing(const std::function<double(double)>& f, double lo, double hi0,
                            double tol, int max_expansions = 60);

}  // namespace speedscale::numerics
