// Unit tests for the closed-form power-law kinematics (core/kinematics.h),
// including the Lemma 2 identities of the paper.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/core/kinematics.h"
#include "src/numerics/ode.h"

namespace speedscale {
namespace {

class KinematicsAlpha : public ::testing::TestWithParam<double> {};

TEST_P(KinematicsAlpha, DecayMatchesOde) {
  const double alpha = GetParam();
  const PowerLawKinematics kin(alpha);
  const double rho = 1.3, w0 = 5.0, dt = 0.7;
  const double closed = kin.decay_weight_after(w0, rho, dt);
  const double ode = numerics::integrate(
      [&](double, double w) { return -rho * std::pow(std::max(w, 0.0), 1.0 / alpha); }, 0.0, w0,
      dt, 1e-12);
  EXPECT_NEAR(closed, ode, 1e-7 * w0);
}

TEST_P(KinematicsAlpha, GrowMatchesOde) {
  const double alpha = GetParam();
  const PowerLawKinematics kin(alpha);
  const double rho = 0.8, u0 = 0.5, dt = 1.9;
  const double closed = kin.grow_weight_after(u0, rho, dt);
  const double ode = numerics::integrate(
      [&](double, double u) { return rho * std::pow(std::max(u, 0.0), 1.0 / alpha); }, 0.0, u0,
      dt, 1e-12);
  EXPECT_NEAR(closed, ode, 1e-6 * closed);
}

TEST_P(KinematicsAlpha, DecayTimeInvertsWeightAfter) {
  const PowerLawKinematics kin(GetParam());
  const double rho = 2.0, w0 = 7.0, w1 = 2.5;
  const double t = kin.decay_time_to_weight(w0, w1, rho);
  EXPECT_NEAR(kin.decay_weight_after(w0, rho, t), w1, 1e-9 * w0);
}

TEST_P(KinematicsAlpha, GrowTimeInvertsWeightAfter) {
  const PowerLawKinematics kin(GetParam());
  const double rho = 0.5, u0 = 1.0, u1 = 9.0;
  const double t = kin.grow_time_to_weight(u0, u1, rho);
  EXPECT_NEAR(kin.grow_weight_after(u0, rho, t), u1, 1e-9 * u1);
}

// Lemma 2.1: dW/dt = rho W^{1/alpha} for a single job under Algorithm C
// (here checked as a finite-difference of the closed form).
TEST_P(KinematicsAlpha, Lemma2Rate) {
  const double alpha = GetParam();
  const PowerLawKinematics kin(alpha);
  const double rho = 1.7, w0 = 4.0;
  const double h = 1e-7;
  const double dw = (w0 - kin.decay_weight_after(w0, rho, h)) / h;
  EXPECT_NEAR(dw, rho * std::pow(w0, 1.0 / alpha), 1e-3);
}

// Lemma 2.2: rho (1 - 1/alpha) t = W^{1 - 1/alpha} where t is the time for a
// single job of weight W to complete.
TEST_P(KinematicsAlpha, Lemma2CompletionTime) {
  const double alpha = GetParam();
  const PowerLawKinematics kin(alpha);
  const double rho = 2.2, w = 6.0;
  const double t = kin.decay_time_to_zero(w, rho);
  EXPECT_NEAR(rho * (1.0 - 1.0 / alpha) * t, std::pow(w, 1.0 - 1.0 / alpha), 1e-9);
}

// Lemma 2.3: W / t = (1 - 1/alpha) dW/dt at the start of the run.
TEST_P(KinematicsAlpha, Lemma2WeightOverTime) {
  const double alpha = GetParam();
  const PowerLawKinematics kin(alpha);
  const double rho = 1.0, w = 3.0;
  const double t = kin.decay_time_to_zero(w, rho);
  const double dw_dt = rho * std::pow(w, 1.0 / alpha);
  EXPECT_NEAR(w / t, (1.0 - 1.0 / alpha) * dw_dt, 1e-9);
}

// Growth is the exact time-reversal of decay (Figure 1b): growing from 0 to
// W takes exactly as long as decaying from W to 0, with equal integrals.
TEST_P(KinematicsAlpha, GrowIsDecayReversed) {
  const PowerLawKinematics kin(GetParam());
  const double rho = 1.4, w = 5.5;
  EXPECT_NEAR(kin.grow_time_to_weight(0.0, w, rho), kin.decay_time_to_zero(w, rho), 1e-9);
  EXPECT_NEAR(kin.grow_integral(0.0, w, rho), kin.decay_integral(w, 0.0, rho), 1e-9);
}

TEST_P(KinematicsAlpha, IntegralMatchesQuadrature) {
  const double alpha = GetParam();
  const PowerLawKinematics kin(alpha);
  const double rho = 1.1, w0 = 4.0, w1 = 1.0;
  const double t_end = kin.decay_time_to_weight(w0, w1, rho);
  // Trapezoid quadrature of int W dt.
  const int n = 20000;
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    const double a = t_end * i / n, b = t_end * (i + 1) / n;
    acc += 0.5 * (kin.decay_weight_after(w0, rho, a) + kin.decay_weight_after(w0, rho, b)) *
           (b - a);
  }
  EXPECT_NEAR(kin.decay_integral(w0, w1, rho), acc, 1e-5 * acc);
}

TEST_P(KinematicsAlpha, VolumeBookkeeping) {
  const PowerLawKinematics kin(GetParam());
  const double rho = 2.5, w0 = 8.0, w1 = 3.0;
  EXPECT_DOUBLE_EQ(PowerLawKinematics::decay_volume(w0, w1, rho), 2.0);
  EXPECT_DOUBLE_EQ(PowerLawKinematics::grow_volume(w1, w0, rho), 2.0);
}

// The plain forms are the b-coordinate forms composed with pow_b, so a
// kernel that carries w^b (CMachine, the replay) computes what the plain
// forms would from the same w^b, bit for bit, including the zero edges.
TEST_P(KinematicsAlpha, PowFormsEqualPlainFormsBitForBit) {
  const PowerLawKinematics kin(GetParam());
  for (const double w0 : {0.0, 5e-324, 1e-300, 1e-17, 0.3, 1.0, 7.5, 1e6, 1e12}) {
    const double w0b = kin.pow_b(w0);
    for (const double rho : {0.25, 1.0, 8.0}) {
      for (const double dt : {0.0, 1e-9, 0.1, 3.0, 1e3}) {
        EXPECT_EQ(kin.weight_from_pow(kin.decay_pow_after(w0b, rho, dt)),
                  kin.decay_weight_after(w0, rho, dt))
            << w0 << " " << rho << " " << dt;
        EXPECT_EQ(kin.weight_from_pow(kin.grow_pow_after(w0b, rho, dt)),
                  kin.grow_weight_after(w0, rho, dt))
            << w0 << " " << rho << " " << dt;
      }
      for (const double w1 : {0.0, 0.5 * w0, w0}) {
        EXPECT_EQ(kin.band_time_pow(kin.pow_b(w1), w0b, rho), kin.decay_time_to_weight(w0, w1, rho))
            << w0 << " " << rho << " " << w1;
        EXPECT_EQ(kin.band_time_pow(kin.pow_b(w1), w0b, rho), kin.grow_time_to_weight(w1, w0, rho))
            << w0 << " " << rho << " " << w1;
      }
    }
  }
}

// The band forms take both ends' b-powers from the caller.  The time form
// is then the plain forms' arithmetic exactly, but the integral forms
// w^{1+b} as w * w^b where grow_integral and decay_integral call
// pow(w, 1 + b): the two are NOT bit for bit equal.  Both round the exponent
// (b, or 1 + b) once, which moves u^{1+b} by up to |ln u| ulp, so the bound
// is stated in ulp of the larger term u1^{1+b} / (rho (1+b)): 4 + 2 |ln u1|.
// Decay sweeps the same band downwards: its integral is the same form.
TEST_P(KinematicsAlpha, GrowPowFormsMatchPlainFormsToUlpScale) {
  const PowerLawKinematics kin(GetParam());
  const double eps = std::numeric_limits<double>::epsilon();
  for (const double u0 : {0.0, 1e-300, 1e-17, 0.3, 1.0, 7.5, 1e6, 1e12}) {
    const double u0b = kin.pow_b(u0);
    for (const double w : {1e-9, 0.5, 1.0, 1e3, 1e9}) {
      const double u1 = u0 + w;
      const double u1b = kin.pow_b(u1);
      for (const double rho : {0.25, 1.0, 8.0}) {
        EXPECT_EQ(kin.band_time_pow(u0b, u1b, rho), kin.grow_time_to_weight(u0, u1, rho))
            << u0 << " " << w << " " << rho;
        const double scale = u1 * u1b / (rho * (1.0 + kin.b()));
        const double ulps = 4.0 + 2.0 * std::abs(std::log(u1));
        EXPECT_NEAR(kin.band_integral_pow(u0, u0b, u1, u1b, rho), kin.grow_integral(u0, u1, rho),
                    ulps * eps * scale)
            << u0 << " " << w << " " << rho;
        EXPECT_NEAR(kin.band_integral_pow(u0, u0b, u1, u1b, rho), kin.decay_integral(u1, u0, rho),
                    ulps * eps * scale)
            << u0 << " " << w << " " << rho;
      }
    }
  }
}

// The edges the streaming engine reaches: a segment from an idle virtual C
// (u0 = 0, u0^b = 0) and an empty band (u1 = u0) give exact values.
TEST_P(KinematicsAlpha, GrowPowFormsEdges) {
  const PowerLawKinematics kin(GetParam());
  const double rho = 1.5, u1 = 3.0, u1b = kin.pow_b(u1);
  EXPECT_EQ(kin.band_time_pow(0.0, u1b, rho), u1b / (rho * kin.b()));
  EXPECT_EQ(kin.band_integral_pow(0.0, 0.0, u1, u1b, rho), u1 * u1b / (rho * (1.0 + kin.b())));
  EXPECT_EQ(kin.band_time_pow(u1b, u1b, rho), 0.0);
  EXPECT_EQ(kin.band_integral_pow(u1, u1b, u1, u1b, rho), 0.0);
  EXPECT_EQ(kin.band_time_pow(0.0, 0.0, rho), 0.0);
  EXPECT_EQ(kin.band_integral_pow(0.0, 0.0, 0.0, 0.0, rho), 0.0);
  // The b-coordinate round trip the engine's tracker takes per job.
  EXPECT_EQ(kin.weight_from_pow(0.0), 0.0);
  EXPECT_EQ(kin.weight_from_pow(-1.0), 0.0);
  EXPECT_NEAR(kin.weight_from_pow(u1b), u1, 1e-13 * u1);
  EXPECT_EQ(kin.decay_pow_after(u1b, rho, 0.0), u1b);
  EXPECT_EQ(kin.decay_pow_after(u1b, rho, 1e9), 0.0);
  EXPECT_EQ(kin.decay_pow_after(0.0, rho, 1.0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AlphaGrid, KinematicsAlpha,
                         ::testing::Values(1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0));

TEST(Kinematics, RejectsAlphaAtMostOne) {
  EXPECT_THROW(PowerLawKinematics(1.0), ModelError);
  EXPECT_THROW(PowerLawKinematics(0.5), ModelError);
}

TEST(Kinematics, ZeroWeightEdgeCases) {
  const PowerLawKinematics kin(2.0);
  EXPECT_EQ(kin.speed_at_weight(0.0), 0.0);
  EXPECT_EQ(kin.decay_weight_after(0.0, 1.0, 5.0), 0.0);
  EXPECT_EQ(kin.decay_time_to_zero(0.0, 1.0), 0.0);
  // Growing branch from zero: the epsilon -> 0 limit moves.
  EXPECT_GT(kin.grow_weight_after(0.0, 1.0, 1.0), 0.0);
}

TEST(Kinematics, DecayRejectsIncreasingTarget) {
  const PowerLawKinematics kin(2.0);
  EXPECT_THROW((void)kin.decay_time_to_weight(1.0, 2.0, 1.0), ModelError);
  EXPECT_THROW((void)kin.grow_time_to_weight(2.0, 1.0, 1.0), ModelError);
}

}  // namespace
}  // namespace speedscale
