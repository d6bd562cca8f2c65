// Unit tests for power functions (core/power.h).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/core/power.h"

namespace speedscale {
namespace {

TEST(PowerLaw, BasicValues) {
  const PowerLaw p(3.0);
  EXPECT_DOUBLE_EQ(p.power(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.power(2.0), 8.0);
  EXPECT_DOUBLE_EQ(p.speed_for_power(8.0), 2.0);
  EXPECT_DOUBLE_EQ(p.speed_for_power(0.0), 0.0);
  EXPECT_NEAR(p.derivative(2.0), 12.0, 1e-12);
  EXPECT_GT(p.alpha(), 1.0);
}

TEST(PowerLaw, RejectsBadAlpha) {
  EXPECT_THROW(PowerLaw(1.0), ModelError);
  EXPECT_THROW(PowerLaw(0.0), ModelError);
}

class PowerRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(PowerRoundTrip, InverseIsExact) {
  const PowerLaw p(GetParam());
  for (double s : {0.1, 0.5, 1.0, 3.7, 42.0}) {
    EXPECT_NEAR(p.speed_for_power(p.power(s)), s, 1e-12 * s);
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaGrid, PowerRoundTrip, ::testing::Values(1.3, 2.0, 2.7, 3.0, 5.0));

TEST(LeakyPowerLaw, InverseRoundTrip) {
  const LeakyPowerLaw p(2.5, 0.75);
  for (double s : {0.01, 0.2, 1.0, 6.0, 50.0}) {
    EXPECT_NEAR(p.speed_for_power(p.power(s)), s, 1e-8 * std::max(1.0, s));
  }
  EXPECT_DOUBLE_EQ(p.speed_for_power(0.0), 0.0);
}

TEST(LeakyPowerLaw, DerivativeMatchesAnalytic) {
  const LeakyPowerLaw p(3.0, 0.5);
  EXPECT_NEAR(p.derivative(2.0), 3.0 * 4.0 + 0.5, 1e-10);
}

TEST(LeakyPowerLaw, RejectsBadParams) {
  EXPECT_THROW(LeakyPowerLaw(1.0, 0.5), ModelError);
  EXPECT_THROW(LeakyPowerLaw(2.0, -0.1), ModelError);
}

TEST(ExpPower, InverseRoundTrip) {
  const ExpPower p;
  EXPECT_DOUBLE_EQ(p.power(0.0), 0.0);
  for (double s : {0.1, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(p.speed_for_power(p.power(s)), s, 1e-12 * std::max(1.0, s));
  }
}

// P^{-1} keeps its relative digits at every scale of p, down to the
// epsilon-level band ends the generic engine inverts.
TEST(Power, InverseKeepsRelativeDigits) {
  std::vector<std::unique_ptr<PowerFunction>> fns;
  fns.push_back(std::make_unique<PowerLaw>(2.5));
  fns.push_back(std::make_unique<LeakyPowerLaw>(2.0, 0.5));
  fns.push_back(std::make_unique<LeakyPowerLaw>(3.0, 2.0));
  fns.push_back(std::make_unique<ExpPower>());
  for (const auto& fn : fns) {
    for (double p = 1e-12; p <= 1e6; p *= 10.0) {
      EXPECT_LE(std::abs(fn->power(fn->speed_for_power(p)) - p), 1e-14 * p)
          << fn->name() << " at p = " << p;
    }
  }
}

TEST(PowerFunction, DefaultDerivativeIsCentralDifference) {
  // Exercise the base-class fallback through a function that does not
  // override derivative().
  class Quadratic final : public PowerFunction {
   public:
    double power(double s) const override { return s * s; }
    double speed_for_power(double p) const override { return std::sqrt(p); }
    std::string name() const override { return "s^2 (no deriv)"; }
  };
  const Quadratic q;
  EXPECT_NEAR(q.derivative(3.0), 6.0, 1e-5);
}

TEST(PowerFunction, ConvexityOnGrid) {
  // All shipped power functions are convex: midpoint below chord.
  std::vector<std::unique_ptr<PowerFunction>> fns;
  fns.push_back(std::make_unique<PowerLaw>(2.2));
  fns.push_back(std::make_unique<LeakyPowerLaw>(3.0, 1.0));
  fns.push_back(std::make_unique<ExpPower>());
  for (const auto& f : fns) {
    for (double a = 0.0; a < 4.0; a += 0.37) {
      const double b = a + 1.1;
      EXPECT_LE(f->power(0.5 * (a + b)), 0.5 * (f->power(a) + f->power(b)) + 1e-12)
          << f->name();
    }
  }
}

}  // namespace
}  // namespace speedscale
