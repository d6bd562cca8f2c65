// Tests for the generic engine (sim/numeric_engine.h): the weight-band
// quadrature and whole runs against the closed forms on power laws, and the
// paper's general-P lemmas (3 and 6) on non-polynomial power functions.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/core/kinematics.h"
#include "src/core/power.h"
#include "src/robust/diagnostics.h"
#include "src/sim/numeric_engine.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

Instance uniform_instance(int n, std::uint64_t seed) {
  return workload::generate({.n_jobs = n, .arrival_rate = 1.2, .seed = seed});
}

double rel(double a, double b) { return std::abs(a - b) / std::max(std::abs(b), 1e-300); }

// --- The kernel against PowerLawKinematics ---------------------------------

class QuadratureAlpha : public ::testing::TestWithParam<double> {};

TEST_P(QuadratureAlpha, BandIntegralsMatchClosedForms) {
  const double alpha = GetParam();
  const PowerLaw p(alpha);
  const PowerLawKinematics kin(alpha);
  const std::pair<double, double> bands[] = {
      {0.0, 1e-6}, {0.0, 1.0}, {0.0, 1e6}, {1e-6, 1e6}, {0.3, 7.0}, {2.0, 2.5}};
  for (const auto& [lo, hi] : bands) {
    const BandIntegrals b = band_integrals(p, lo, hi);
    // rho = 1: the band's time and int W dt are T and E themselves.
    EXPECT_LE(rel(b.time, kin.decay_time_to_weight(hi, lo, 1.0)), 1e-13)
        << "T on [" << lo << ", " << hi << "]";
    EXPECT_LE(rel(b.energy, kin.decay_integral(hi, lo, 1.0)), 1e-13)
        << "E on [" << lo << ", " << hi << "]";
    EXPECT_GT(b.energy_error, 0.0);
    EXPECT_LE(b.energy_error, 1e-12 * b.energy);
  }
}

TEST_P(QuadratureAlpha, GenericRunsMatchClosedForms) {
  const double alpha = GetParam();
  const PowerLaw p(alpha);
  for (std::uint64_t seed : {11u, 19u, 23u}) {
    const Instance inst = uniform_instance(8, seed);
    const SampledRun c = run_generic_c(inst, p);
    const RunResult exact_c = run_c(inst, alpha);
    EXPECT_LE(rel(c.energy, exact_c.metrics.energy), 1e-12) << "seed " << seed;
    EXPECT_LE(rel(c.fractional_flow, exact_c.metrics.fractional_flow), 1e-12);
    EXPECT_LE(rel(c.integral_flow, exact_c.metrics.integral_flow), 1e-12);
    const SampledRun nc = run_generic_nc_uniform(inst, p);
    const RunResult exact_nc = run_nc_uniform(inst, alpha);
    EXPECT_LE(rel(nc.energy, exact_nc.metrics.energy), 1e-12) << "seed " << seed;
    EXPECT_LE(rel(nc.fractional_flow, exact_nc.metrics.fractional_flow), 1e-12);
    EXPECT_LE(rel(nc.integral_flow, exact_nc.metrics.integral_flow), 1e-12);
    for (const Job& j : inst.jobs()) {
      EXPECT_NEAR(c.completions.at(j.id), exact_c.schedule.completion(j.id),
                  1e-10 * std::max(1.0, exact_c.schedule.completion(j.id)));
      EXPECT_NEAR(nc.completions.at(j.id), exact_nc.schedule.completion(j.id),
                  1e-12 * std::max(1.0, exact_nc.schedule.completion(j.id)));
    }
  }
}

// Lemma 4 is exact at s^alpha: F_NC = E / (1 - 1/alpha).
TEST_P(QuadratureAlpha, Lemma4FlowRatioHolds) {
  const double alpha = GetParam();
  const PowerLaw p(alpha);
  const Instance inst = uniform_instance(6, 23);
  const SampledRun c = run_generic_c(inst, p);
  const SampledRun nc = run_generic_nc_uniform(inst, p);
  EXPECT_NEAR(nc.fractional_flow / c.fractional_flow, 1.0 / (1.0 - 1.0 / alpha), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AlphaGrid, QuadratureAlpha, ::testing::Values(1.1, 1.5, 2.0, 3.0, 8.0));

// P'(0) = 0 is read off P, not off PowerFunction::derivative, whose default
// finite difference is positive at 0 for every P: an s^2 that does not
// override it still runs exactly, with no completion/bootstrap epsilon.
TEST(NumericEngine, PowerWithoutDerivativeOverrideRunsExactly) {
  class Quadratic final : public PowerFunction {
   public:
    double power(double s) const override { return s * s; }
    double speed_for_power(double p) const override { return p > 0.0 ? std::sqrt(p) : 0.0; }
    std::string name() const override { return "s^2 (no derivative)"; }
  };
  const Quadratic q;
  ASSERT_GT(q.derivative(0.0), 0.0);  // the default the engine must not trust
  const Instance inst = uniform_instance(6, 23);
  const SampledRun c = run_generic_c(inst, q);
  const SampledRun nc = run_generic_nc_uniform(inst, q);
  EXPECT_LE(rel(nc.energy, c.energy), 1e-12);                       // Lemma 3
  EXPECT_NEAR(nc.fractional_flow / c.fractional_flow, 2.0, 1e-10);  // Lemma 4
}

TEST(NumericEngine, DivergentTailThrowsNoConvergence) {
  // P'(0) > 0: int dw / P^{-1}(w) diverges at w = 0.
  const LeakyPowerLaw p(2.0, 0.5);
  try {
    (void)band_integrals(p, 0.0, 1.0);
    FAIL() << "expected RobustError";
  } catch (const robust::RobustError& e) {
    EXPECT_EQ(e.code(), robust::ErrorCode::kNoConvergence);
  }
  EXPECT_GT(band_integrals(p, 1e-9, 1.0).time, 0.0);  // a floor above 0 is finite
}

// --- Whole runs --------------------------------------------------------------

TEST(NumericEngine, GenericCMatchesExactCOnPowerLaw) {
  const double alpha = 2.5;
  const Instance inst = uniform_instance(8, 11);
  const PowerLaw p(alpha);
  const SampledRun num = run_generic_c(inst, p);
  const RunResult exact = run_c(inst, alpha);
  EXPECT_NEAR(num.energy, exact.metrics.energy, 1e-12 * exact.metrics.energy);
  EXPECT_NEAR(num.fractional_flow, exact.metrics.fractional_flow,
              1e-12 * exact.metrics.fractional_flow);
  for (const Job& j : inst.jobs()) {
    EXPECT_NEAR(num.completions.at(j.id), exact.schedule.completion(j.id),
                1e-10 * std::max(1.0, exact.schedule.completion(j.id)));
  }
}

TEST(NumericEngine, GenericCWithDensitiesMatchesExact) {
  const double alpha = 3.0;
  const Instance inst = workload::generate(
      {.n_jobs = 8, .density_mode = workload::DensityMode::kClasses, .seed = 4});
  const PowerLaw p(alpha);
  const SampledRun num = run_generic_c(inst, p);
  const RunResult exact = run_c(inst, alpha);
  EXPECT_NEAR(num.energy, exact.metrics.energy, 1e-12 * exact.metrics.energy);
  EXPECT_NEAR(num.fractional_flow, exact.metrics.fractional_flow,
              1e-12 * exact.metrics.fractional_flow);
  EXPECT_NEAR(num.integral_flow, exact.metrics.integral_flow,
              1e-10 * exact.metrics.integral_flow);
  for (const Job& j : inst.jobs()) {
    EXPECT_NEAR(num.completions.at(j.id), exact.schedule.completion(j.id),
                1e-10 * std::max(1.0, exact.schedule.completion(j.id)));
  }
}

TEST(NumericEngine, TiedReleasesMatchExact) {
  // Three jobs at 0 and two at 0.4: NC's U for a tied job starts above the
  // weight of the cohort ahead of it, as C receives the cohort at once.
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 0.5, 1.0},
                       Job{kNoJob, 0.0, 2.0, 1.0}, Job{kNoJob, 0.4, 0.7, 1.0},
                       Job{kNoJob, 0.4, 0.3, 1.0}});
  const double alpha = 2.0;
  const PowerLaw p(alpha);
  const SampledRun c = run_generic_c(inst, p);
  const SampledRun nc = run_generic_nc_uniform(inst, p);
  const RunResult exact_c = run_c(inst, alpha);
  const RunResult exact_nc = run_nc_uniform(inst, alpha);
  EXPECT_LE(rel(c.energy, exact_c.metrics.energy), 1e-12);
  EXPECT_LE(rel(nc.energy, exact_nc.metrics.energy), 1e-12);
  EXPECT_LE(rel(nc.fractional_flow, exact_nc.metrics.fractional_flow), 1e-12);
  EXPECT_LE(rel(nc.energy, c.energy), 1e-12);  // Lemma 3
  for (const Job& j : inst.jobs()) {
    EXPECT_NEAR(nc.completions.at(j.id), exact_nc.schedule.completion(j.id), 1e-12);
  }
}

TEST(NumericEngine, GenericNCMatchesExactNCOnPowerLaw) {
  const double alpha = 2.0;
  const Instance inst = uniform_instance(8, 19);
  const PowerLaw p(alpha);
  const SampledRun num = run_generic_nc_uniform(inst, p);
  const RunResult exact = run_nc_uniform(inst, alpha);
  EXPECT_NEAR(num.energy, exact.metrics.energy, 1e-12 * exact.metrics.energy);
  EXPECT_NEAR(num.fractional_flow, exact.metrics.fractional_flow,
              1e-12 * exact.metrics.fractional_flow);
}

TEST(NumericEngine, WeightLeftQueriesPreEventValue) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.5, 1.0, 1.0}});
  const PowerLaw p(2.0);
  const SampledRun c = run_generic_c(inst, p);
  const PowerLawKinematics kin(2.0);
  EXPECT_NEAR(c.weight_left(p, 0.5), kin.decay_weight_after(1.0, 1.0, 0.5), 1e-15);
  EXPECT_EQ(c.weight_left(p, 0.0), 0.0);
  // Inside a band the weight is the band inverted at that time.
  const double t = 0.5 + 0.3;
  EXPECT_NEAR(c.weight_left(p, t),
              kin.decay_weight_after(kin.decay_weight_after(1.0, 1.0, 0.5) + 1.0, 1.0, 0.3),
              1e-14);
}

// --- The general-power-function lemmas (experiment E11's invariants) -----

class GeneralPowerLemmas : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] std::unique_ptr<PowerFunction> make_power() const {
    switch (GetParam()) {
      case 0:
        return std::make_unique<LeakyPowerLaw>(2.0, 0.5);
      case 1:
        return std::make_unique<LeakyPowerLaw>(3.0, 2.0);
      default:
        return std::make_unique<ExpPower>();
    }
  }
};

// Lemma 3 holds for EVERY power function: NC and C consume equal energy.
// Off s^alpha it carries the O(epsilon) completion/bootstrap residual.
TEST_P(GeneralPowerLemmas, Lemma3EnergyEquality) {
  const auto power = make_power();
  const Instance inst = uniform_instance(6, 23);
  const SampledRun c = run_generic_c(inst, *power);
  const SampledRun nc = run_generic_nc_uniform(inst, *power);
  EXPECT_NEAR(nc.energy, c.energy, 1e-9 * c.energy) << power->name();
}

// Lemma 6 holds for EVERY power function: the speed profiles are
// measure-preserving rearrangements (equal level-set measures).
TEST_P(GeneralPowerLemmas, Lemma6LevelSetsAgree) {
  const auto power = make_power();
  const Instance inst = uniform_instance(5, 29);
  const SampledRun c = run_generic_c(inst, *power);
  const SampledRun nc = run_generic_nc_uniform(inst, *power);
  double w_max = 0.0;
  for (const WeightBand& b : c.bands) w_max = std::max({w_max, b.w_start, b.w_end});
  const double s_max = power->speed_for_power(w_max);
  ASSERT_GT(s_max, 0.0);
  const double makespan = std::max(c.bands.back().t1, nc.bands.back().t1);
  for (double f : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double x = f * s_max;
    EXPECT_NEAR(nc.time_at_or_above(*power, x), c.time_at_or_above(*power, x),
                1e-6 * makespan)
        << power->name() << " at threshold " << x;
  }
}

// Lemma 4 is s^alpha-specific: off it the flow ratio is no such constant.
TEST_P(GeneralPowerLemmas, Lemma4FailsOffPowerLaws) {
  const auto power = make_power();
  const Instance inst = uniform_instance(6, 23);
  const SampledRun c = run_generic_c(inst, *power);
  const SampledRun nc = run_generic_nc_uniform(inst, *power);
  const double ratio = nc.fractional_flow / c.fractional_flow;
  for (double alpha : {2.0, 3.0}) {
    EXPECT_GT(std::abs(ratio - 1.0 / (1.0 - 1.0 / alpha)), 0.1) << power->name();
  }
}

INSTANTIATE_TEST_SUITE_P(PowerFns, GeneralPowerLemmas, ::testing::Values(0, 1, 2));

TEST(NumericEngine, RejectsNonUniformNC) {
  const Instance mixed({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 1.0, 2.0}});
  const PowerLaw p(2.0);
  EXPECT_THROW(run_generic_nc_uniform(mixed, p), ModelError);
}

}  // namespace
}  // namespace speedscale
