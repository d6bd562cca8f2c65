// Generic engine: Algorithms C and NC for *arbitrary* monotone convex power
// functions, as exact event loops whose segment algebra is quadrature in
// weight.
//
// The paper proves its structural lemmas at two levels of generality:
//   * Lemmas 3 and 6 (energy equality; measure-preserving speed profiles)
//     hold for every power function;
//   * Lemma 4 and the competitive ratios need P(s) = s^alpha.
// The exact engine (c_machine.h, algorithm_nc_uniform.h) covers the
// power-law case in closed form.  Between events the defining equations
//     Algorithm C:   dW/dt = -rho * P^{-1}(W)   (W = remaining weight)
//     Algorithm NC:  dU/dt = +rho * P^{-1}(U)   (U = offset + processed)
// are autonomous and separable, so a segment sweeping the weight band
// [lo, hi] lasts T/rho and uses energy E/rho (P(s) = W), with
//     T = int_lo^hi dw / P^{-1}(w),     E = int_lo^hi w dw / P^{-1}(w).
// band_integrals() evaluates both in the speed coordinate w = P(s), where
// they are int P'(s)/s ds and int P(s) P'(s)/s ds, integrated by parts:
//     T = [w/s] + int P(s)/s^2 ds,     E = [w^2/(2s)] + int P(s)^2/(2s^2) ds,
// so the integrand calls neither P^{-1} nor P' (which a PowerFunction may
// only approximate); P^{-1} is taken only at the band's two ends.
// Experiment E11 checks the general-P lemmas with it, and the tests
// cross-validate it against the closed forms.
//
// P'(0) > 0 (leaky power laws, e^s - 1): T diverges as the band reaches
// weight 0, i.e. Algorithm C approaches the last completion of a busy
// period only asymptotically and NC cannot leave U = 0.  There, and only
// there, a job is declared complete at a relative residual volume of
// kCompletionRelEps, and NC starts from U = kBootstrapRelEps * total
// weight (the numeric analogue of the paper's "excess speed epsilon").
// Both perturb the objectives by O(epsilon).  For P'(0) = 0 (power laws)
// the bands reach 0 exactly and no epsilon applies.  The case is read from
// P alone (P(s)/s at s = 1, 1/2, 1/4, ... keeps shrinking iff P'(0) = 0),
// so a function need not override PowerFunction::derivative.
#pragma once

#include <map>
#include <vector>

#include "src/core/instance.h"
#include "src/core/power.h"

namespace speedscale {

/// Residual volume (relative to the job's) declared complete where a C band
/// would reach weight 0 under P'(0) > 0.
inline constexpr double kCompletionRelEps = 1e-9;
/// NC's starting U (relative to the instance's total weight) where its band
/// would start at weight 0 under P'(0) > 0.
inline constexpr double kBootstrapRelEps = 1e-9;

/// The two integrals of one weight band, each times rho.
struct BandIntegrals {
  double time = 0.0;          ///< int dw / P^{-1}(w): the duration times rho
  double energy = 0.0;        ///< int w dw / P^{-1}(w): the energy times rho
  double time_error = 0.0;    ///< estimated absolute error of `time`
  double energy_error = 0.0;  ///< estimated absolute error of `energy`
};

/// T and E over the weight band [lo, hi] (0 <= lo <= hi): the boundary
/// terms plus adaptive Gauss-Kronrod (G7/K15) on dyadic pieces of the speed
/// range from P^{-1}(hi) downward.  For lo = 0 the tail below the last piece is closed
/// as a geometric series once successive pieces shrink by the same ratio
/// (exact for a power law near 0).  Throws robust::RobustError with
/// kNumericNonfinite if the integrand is not finite, and kNoConvergence if
/// the tail's pieces stop shrinking (T diverges, P'(0) > 0) or a piece does
/// not meet its tolerance within the evaluation budget.
[[nodiscard]] BandIntegrals band_integrals(const PowerFunction& power, double lo, double hi);

/// One segment of a run: the weight sweeps from w_start to w_end at density
/// rho over [t0, t1] (w_end < w_start for C, > for NC).
struct WeightBand {
  double t0 = 0.0;
  double t1 = 0.0;
  double w_start = 0.0;
  double w_end = 0.0;
  double rho = 0.0;
};

/// A generic run: its band record plus accumulated objectives.  The machine
/// idles (speed 0) wherever no band covers a time.
struct SampledRun {
  std::vector<WeightBand> bands;  ///< in time order
  std::map<JobId, double> completions;
  double energy = 0.0;
  double fractional_flow = 0.0;
  double integral_flow = 0.0;
  /// Summed error estimates of the energy integrals, in energy units.
  double energy_error = 0.0;

  /// Left limit of the driving weight at time `x` (pre-event value at event
  /// epochs), by inverting the band that covers x.  For a C run this is
  /// W^C(x^-), the Algorithm NC offset.
  [[nodiscard]] double weight_left(const PowerFunction& power, double x) const;

  /// Measure of {t : speed >= x}: per band T(max(lo, P(x)), hi) / rho.
  [[nodiscard]] double time_at_or_above(const PowerFunction& power, double x) const;
};

/// Algorithm C under an arbitrary power function.  The run passes
/// robust::check_sampled_run or its first breach is thrown.
[[nodiscard]] SampledRun run_generic_c(const Instance& instance, const PowerFunction& power);

/// Algorithm NC (uniform density, FIFO + P(s) = W^C(r_j^-) + processed(j))
/// under an arbitrary power function.  Checked like run_generic_c, against
/// its own C run for Lemma 3 (and Lemma 4 when power is a PowerLaw).
[[nodiscard]] SampledRun run_generic_nc_uniform(const Instance& instance,
                                                const PowerFunction& power);

}  // namespace speedscale
