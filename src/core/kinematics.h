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
//
// The kernels (CMachine, non-uniform NC's oracle, speed-bounded C's
// uncapped phase, the metrics replay, StreamEngine) work in the
// b-coordinate x = W^b itself: a trajectory moves x linearly, the energy is
// (W0 x0 - W1 x1) / (rho (1+b)), and the only pow left is x^{1/b} where a
// weight is read back (plus W^b after weight is added).  That is one or two
// pow per event, piece or job where the plain forms take four to six.  The
// first three advance C through one stretch function, c_stretch, so they
// take the same floating-point operations on the same stretch.
#pragma once

#include <algorithm>

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

  // --- The b-coordinate: both branches are linear in w^b ---
  //
  // An event loop that carries w^b next to w (the C kernel, the replay, the
  // streaming engine) advances a trajectory with no pow and takes one pow
  // only to read a weight back.  The plain forms above are these composed
  // with pow_b, bit for bit, except the integrals (see band_integral_pow).

  /// w^b, the coordinate in which both ODEs are linear.
  [[nodiscard]] double pow_b(double w) const;
  /// w from w^b: (w^b)^{1/b}, and 0 for wb <= 0 without calling pow.
  [[nodiscard]] double weight_from_pow(double wb) const;
  /// W^b after decaying for dt from w0^b, clamped at 0.  For w0 >= 0,
  /// w0^b <= 0 exactly when w0 <= 0 (w^b >= w for w <= 1, so it cannot
  /// underflow), which is decay_weight_after's early return.
  [[nodiscard]] double decay_pow_after(double w0b, double rho, double dt) const;
  /// U^b after growing for dt from u0^b (>= 0).
  [[nodiscard]] double grow_pow_after(double u0b, double rho, double dt) const;

  /// Time to sweep the weight band [lo, hi] at density rho, from its ends'
  /// b-powers: (hi^b - lo^b) / (rho b).  Growth sweeps it upwards, decay
  /// downwards, in the same time.  Requires hi >= lo >= 0 (not checked).
  [[nodiscard]] double band_time_pow(double lo_b, double hi_b, double rho) const;
  /// int W dt while the weight sweeps [lo, hi] in either direction, with
  /// w^{1+b} formed as w * w^b: (hi hi^b - lo lo^b) / (rho (1+b)).  It is
  /// decay_integral(hi, lo) and grow_integral(lo, hi) to a few ulp but not
  /// bit for bit, since w * w^b rounds differently from pow(w, 1 + b).
  /// Requires hi >= lo >= 0 (not checked).
  [[nodiscard]] double band_integral_pow(double lo, double lo_b, double hi, double hi_b,
                                         double rho) const;

 private:
  double alpha_;
  double b_;
};

/// Algorithm C's total remaining weight W and its b-power W^b, which is
/// carried from stretch to stretch and retaken only after weight is added.
struct CWeight {
  double w = 0.0;
  double wb = 0.0;
  bool wb_stale = false;
  void add(double dw) {
    w += dw;
    wb_stale = true;
  }
};

/// One stretch of Algorithm C: it ends at the running job's completion or
/// at the stop time, whichever comes first.
struct CStretch {
  bool completes = false;  ///< the running job completes at t_end <= stop
  double t_end = 0.0;      ///< its completion time, else the stop time
  double w0b = 0.0;        ///< W^b at the start
  int pow_calls = 0;       ///< pow calls made: zero to three
};

/// Advances C's weight `W` from `now` while the job of density rho and
/// remaining weight `job_weight` runs, to its completion or to `stop` (a
/// completion at `stop` counts: it precedes release handling).  The
/// completion level is timed through its b-power, clamped to W^b (a carried
/// W^b may undershoot by an ulp).  The `last` live job drains to exactly 0:
/// a ~1e-17 residue's residue^b / (rho b) tail would move the drain time
/// (~1e-5 at alpha = 1.5) off the closed form NC and NC-PAR use.
[[nodiscard]] inline CStretch c_stretch(const PowerLawKinematics& kin, CWeight& W, double now,
                                        double stop, double rho, double job_weight, bool last) {
  CStretch s;
  if (W.wb_stale) {
    W.wb = kin.pow_b(W.w);
    W.wb_stale = false;
    ++s.pow_calls;
  }
  s.w0b = W.wb;
  W.w = last ? 0.0 : std::max(W.w - job_weight, 0.0);
  W.wb = 0.0;
  if (W.w > 0.0) {
    W.wb = std::min(kin.pow_b(W.w), s.w0b);
    ++s.pow_calls;
  }
  const double t_complete = now + kin.band_time_pow(W.wb, s.w0b, rho);
  s.completes = t_complete <= stop;
  if (s.completes) {
    s.t_end = t_complete;
    return s;
  }
  s.t_end = stop;
  W.wb = kin.decay_pow_after(s.w0b, rho, stop - now);
  W.w = kin.weight_from_pow(W.wb);
  if (W.wb > 0.0) ++s.pow_calls;
  return s;
}

}  // namespace speedscale
