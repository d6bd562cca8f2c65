// Exact closed-form kinematics of the "power = weight" rule for P(s) = s^alpha.
//
// Both algorithms in the paper set the machine's instantaneous power equal to
// a weight-like quantity that the machine itself moves:
//
//  * Algorithm C (clairvoyant, Section 2): P(s(t)) = W(t), the total
//    *remaining* weight.  While the current job has density rho this gives
//    the autonomous ODE  dW/dt = -rho * W^{1/alpha}  (weight decays).
//
//  * Algorithm NC (non-clairvoyant, Section 3): P(s(t)) = C0 + Wbreve(t),
//    a constant offset plus the weight of the current job *processed so far*.
//    With U = C0 + Wbreve this gives  dU/dt = +rho * U^{1/alpha}  (the same
//    curve traversed in reverse; cf. Figure 1b of the paper).
//
// With b = 1 - 1/alpha both ODEs integrate in closed form:
//
//    decay:  W(t)^b = W(0)^b - rho * b * t      (until W = 0)
//    growth: U(t)^b = U(0)^b + rho * b * t
//
// and the energy of a segment, which under P = s^alpha and the P = W rule is
// exactly the integral of the weight, is
//
//    int W dt over W: W0 -> W1  =  (W0^{1+b} - W1^{1+b}) / (rho * (1+b)).
//
// Every simulator in this library advances trajectories through these
// formulas, so for power-law P the runs are exact up to floating point;
// this is what lets the tests check the paper's lemma-level *identities*
// (Lemmas 3, 4, 6, 21, 22) to ~1e-9 instead of statistically.
#pragma once

#include "src/core/types.h"

namespace speedscale {

/// Closed-form trajectory algebra for P(s) = s^alpha.
///
/// All member functions are pure.  `rho` is the density of the job the
/// machine is currently processing; weights are total weights obeying the
/// P = W (or P = U) rule.
class PowerLawKinematics {
 public:
  explicit PowerLawKinematics(double alpha);

  [[nodiscard]] double alpha() const { return alpha_; }
  /// b = 1 - 1/alpha, the exponent that linearizes the ODE.
  [[nodiscard]] double b() const { return b_; }

  /// Speed implied by the P = W rule at weight level w: s = w^{1/alpha}.
  [[nodiscard]] double speed_at_weight(double w) const;

  // --- Decaying branch (Algorithm C): dW/dt = -rho W^{1/alpha} ---

  /// Weight after running for dt from W0 (clamped at 0).
  [[nodiscard]] double decay_weight_after(double w0, double rho, double dt) const;

  /// Time for the weight to fall from w0 to w1 (requires 0 <= w1 <= w0).
  [[nodiscard]] double decay_time_to_weight(double w0, double w1, double rho) const;

  /// w^b, the coordinate in which the decay is linear.  An event loop that
  /// needs both closed forms below from one start weight w0 >= 0 takes
  /// w0^b once and passes it to the `_pow` forms, which then equal
  /// decay_weight_after and decay_time_to_weight bit for bit.
  [[nodiscard]] double pow_b(double w) const;
  /// w from w^b: (w^b)^{1/b}, and 0 for wb <= 0 without calling pow.
  [[nodiscard]] double weight_from_pow(double wb) const;
  /// W^b after decaying for dt from w0^b, clamped at 0: the decay with no pow.
  [[nodiscard]] double decay_pow_after(double w0b, double rho, double dt) const;
  [[nodiscard]] double decay_weight_after_pow(double w0b, double rho, double dt) const;
  /// Requires w1 <= w0 (not checked: w0 itself is not passed).
  [[nodiscard]] double decay_time_to_weight_pow(double w0b, double w1, double rho) const;

  /// Time for the weight to fall from w0 to 0 (Lemma 2.2 rearranged).
  [[nodiscard]] double decay_time_to_zero(double w0, double rho) const;

  /// int W dt while the weight falls from w0 to w1.  Under P = s^alpha and
  /// the P = W rule this is both the energy and (for Algorithm C) the
  /// fractional flow-time accumulated over the segment.
  [[nodiscard]] double decay_integral(double w0, double w1, double rho) const;

  /// Volume processed while weight falls from w0 to w1: (w0 - w1) / rho.
  [[nodiscard]] static double decay_volume(double w0, double w1, double rho);

  // --- Growing branch (Algorithm NC): dU/dt = +rho U^{1/alpha} ---

  /// U after running for dt from u0.
  ///
  /// Note on u0 = 0: the ODE dU/dt = U^{1/alpha} with U(0)=0 has both the
  /// trivial solution U == 0 and the growing power-curve solution.  The paper
  /// resolves the ambiguity by adding an arbitrarily small excess speed
  /// epsilon; this function implements the epsilon -> 0 limit by always
  /// selecting the growing branch.
  [[nodiscard]] double grow_weight_after(double u0, double rho, double dt) const;

  /// Time for U to grow from u0 to u1 (requires u1 >= u0 >= 0).
  [[nodiscard]] double grow_time_to_weight(double u0, double u1, double rho) const;

  /// int U dt while U grows from u0 to u1: the energy of the NC segment.
  [[nodiscard]] double grow_integral(double u0, double u1, double rho) const;

  /// Volume processed while U grows from u0 to u1: (u1 - u0) / rho.
  [[nodiscard]] static double grow_volume(double u0, double u1, double rho);

  /// The growth forms from u0^b and u1^b (u0b = pow_b(u0), u1b = pow_b(u1),
  /// or the decayed W^b a tracker already holds): the time is linear in the
  /// b-coordinate and u^{1+b} = u * u^b, so neither form calls pow.  They
  /// agree with grow_time_to_weight / grow_integral to a few ulp but not bit
  /// for bit, since u * u^b rounds differently from u^{1+b}.  Requires
  /// u1 >= u0 >= 0 (not checked).
  [[nodiscard]] double grow_time_to_weight_pow(double u0b, double u1b, double rho) const;
  [[nodiscard]] double grow_integral_pow(double u0, double u0b, double u1, double u1b,
                                         double rho) const;

 private:
  double alpha_;
  double b_;
};

}  // namespace speedscale
