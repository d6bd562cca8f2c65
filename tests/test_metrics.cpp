// Unit tests for replay-based metric evaluation (core/metrics.h).
#include <gtest/gtest.h>

#include <cmath>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_nonuniform.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/core/metrics.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

// One job processed at constant speed: everything is hand-computable.
TEST(Metrics, SingleJobConstantSpeed) {
  const Instance inst({Job{kNoJob, 0.0, 2.0, 3.0}});  // V=2, rho=3, W=6
  const double alpha = 2.0;
  Schedule s(alpha);
  s.append({0.0, 4.0, 0, SpeedLaw::kConstant, 0.5, 3.0});  // speed 1/2 for 4s
  s.set_completion(0, 4.0);
  const PowerLaw p(alpha);
  const Metrics m = compute_metrics(inst, s, p);
  EXPECT_NEAR(m.energy, 0.25 * 4.0, 1e-12);           // s^2 * t
  EXPECT_NEAR(m.integral_flow, 6.0 * 4.0, 1e-12);     // W * (c - r)
  // V(t) = 2 - t/2; int_0^4 V dt = 8 - 4 = 4; flow = rho * 4 = 12.
  EXPECT_NEAR(m.fractional_flow, 12.0, 1e-12);
}

TEST(Metrics, DelayedReleaseAccruesNoFlowBeforeRelease) {
  const Instance inst({Job{kNoJob, 2.0, 1.0, 1.0}});
  Schedule s(2.0);
  s.append({2.0, 3.0, 0, SpeedLaw::kConstant, 1.0, 1.0});
  s.set_completion(0, 3.0);
  const PowerLaw p(2.0);
  const Metrics m = compute_metrics(inst, s, p);
  EXPECT_NEAR(m.integral_flow, 1.0, 1e-12);
  EXPECT_NEAR(m.fractional_flow, 0.5, 1e-12);  // int (1 - u) du over 1s
}

TEST(Metrics, WaitingJobAccruesFullWeight) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 1.0, 2.0}});
  Schedule s(2.0);
  s.append({0.0, 1.0, 1, SpeedLaw::kConstant, 1.0, 2.0});  // job 1 first
  s.append({1.0, 2.0, 0, SpeedLaw::kConstant, 1.0, 1.0});
  s.set_completion(1, 1.0);
  s.set_completion(0, 2.0);
  const PowerLaw p(2.0);
  const Metrics m = compute_metrics(inst, s, p);
  // Job1: int 2*(1-t) over [0,1] = 1.  Job0 waits [0,1]: 1*1 = 1; then
  // processes: int (1-u) du = 0.5.  Total = 2.5.
  EXPECT_NEAR(m.fractional_flow, 2.5, 1e-12);
  EXPECT_NEAR(m.integral_flow, 2.0 * 1.0 + 1.0 * 2.0, 1e-12);
  EXPECT_NEAR(m.energy, 2.0, 1e-12);
}

TEST(Metrics, PowerLawSegmentEnergyEqualsWeightIntegral) {
  // A decay segment under P = s^alpha has energy int W dt: check against a
  // quadrature of P(speed(t)).
  const double alpha = 3.0;
  const Instance inst({Job{kNoJob, 0.0, 2.0, 1.0}});
  const PowerLawKinematics kin(alpha);
  const double w0 = 2.0;
  const double t_end = kin.decay_time_to_zero(w0, 1.0);
  Schedule s(alpha);
  s.append({0.0, t_end, 0, SpeedLaw::kPowerDecay, w0, 1.0});
  s.set_completion(0, t_end);
  const PowerLaw p(alpha);
  const Metrics m = compute_metrics(inst, s, p);

  const int n = 200000;
  double quad = 0.0;
  for (int i = 0; i < n; ++i) {
    const double a = t_end * i / n;
    const double b = t_end * (i + 1) / n;
    quad += 0.5 * (std::pow(s.speed_at(a), alpha) + std::pow(s.speed_at(b), alpha)) * (b - a);
  }
  EXPECT_NEAR(m.energy, quad, 1e-4 * quad);
}

TEST(Metrics, GrowSegmentFractionalFlowMatchesQuadrature) {
  const double alpha = 2.0;
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}});
  const PowerLawKinematics kin(alpha);
  const double t_end = kin.grow_time_to_weight(0.0, 1.0, 1.0);
  Schedule s(alpha);
  s.append({0.0, t_end, 0, SpeedLaw::kPowerGrow, 0.0, 1.0});
  s.set_completion(0, t_end);
  const PowerLaw p(alpha);
  const Metrics m = compute_metrics(inst, s, p);

  // V(t) = 1 - U(t) (unit density): quadrature of int V dt.
  const int n = 200000;
  double quad = 0.0;
  for (int i = 0; i < n; ++i) {
    const double a = t_end * i / n;
    const double b = t_end * (i + 1) / n;
    const double va = 1.0 - kin.grow_weight_after(0.0, 1.0, a);
    const double vb = 1.0 - kin.grow_weight_after(0.0, 1.0, b);
    quad += 0.5 * (va + vb) * (b - a);
  }
  EXPECT_NEAR(m.fractional_flow, quad, 1e-4 * std::max(quad, 1e-9));
}

TEST(Metrics, ThrowsOnIncompleteJob) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}});
  Schedule s(2.0);
  const PowerLaw p(2.0);
  EXPECT_THROW((void)compute_metrics(inst, s, p), ModelError);
}

// A job's volume counts as processed at its completion only when the
// schedule has processed it up to rounding; a schedule that stops a job short
// must not pass as one that finished it.
TEST(Metrics, RejectsScheduleThatUnderProcessesAJob) {
  const PowerLaw p(2.0);
  const Instance two({Job{kNoJob, 0.0, 2.0, 1.0}, Job{kNoJob, 0.0, 1.0, 1.0}});
  Schedule half(2.0);
  half.append({0.0, 1.0, 0, SpeedLaw::kConstant, 1.0, 0.0});  // 1 of job 0's 2
  half.append({1.0, 2.0, 1, SpeedLaw::kConstant, 1.0, 0.0});
  half.set_completion(0, 1.0);
  half.set_completion(1, 2.0);
  EXPECT_THROW((void)compute_metrics(two, half, p), ModelError);
  EXPECT_THROW((void)compute_metrics_reference(two, half, p), ModelError);

  // A decay segment cut 1e-6 of its weight before the drain.
  const Instance one({Job{kNoJob, 0.0, 1.0, 1.0}});
  const PowerLawKinematics kin(2.0);
  const double t_short = kin.decay_time_to_weight(1.0, 1e-6, 1.0);
  Schedule cut(2.0);
  cut.append({0.0, t_short, 0, SpeedLaw::kPowerDecay, 1.0, 1.0});
  cut.set_completion(0, t_short);
  EXPECT_THROW((void)compute_metrics(one, cut, p), ModelError);
  Schedule full(2.0);
  full.append({0.0, kin.decay_time_to_zero(1.0, 1.0), 0, SpeedLaw::kPowerDecay, 1.0, 1.0});
  full.set_completion(0, kin.decay_time_to_zero(1.0, 1.0));
  EXPECT_NEAR(compute_metrics(one, full, p).energy, kin.decay_integral(1.0, 0.0, 1.0), 1e-15);
}

TEST(Metrics, RejectsMismatchedPowerFunctionForPowerLawSegments) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}});
  const PowerLawKinematics kin(2.0);
  Schedule s(2.0);
  s.append({0.0, kin.decay_time_to_zero(1.0, 1.0), 0, SpeedLaw::kPowerDecay, 1.0, 1.0});
  s.set_completion(0, kin.decay_time_to_zero(1.0, 1.0));
  const PowerLaw wrong_alpha(3.0);
  EXPECT_THROW((void)compute_metrics(inst, s, wrong_alpha), ModelError);
  const LeakyPowerLaw not_power_law(2.0, 0.5);
  EXPECT_THROW((void)compute_metrics(inst, s, not_power_law), ModelError);
}

// The incremental (Kahan-compensated) replay must agree with the reference
// per-piece re-summation on every schedule family.
class MetricsFastVsReference : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(MetricsFastVsReference, AgreeOnAlgorithmC) {
  const auto [alpha, seed] = GetParam();
  const Instance inst = workload::generate({.n_jobs = 40,
                                            .arrival_rate = 2.0,
                                            .density_mode = workload::DensityMode::kClasses,
                                            .seed = static_cast<std::uint64_t>(seed)});
  const Schedule s = run_algorithm_c(inst, alpha);
  const PowerLaw p(alpha);
  const Metrics fast = compute_metrics(inst, s, p);
  const Metrics ref = compute_metrics_reference(inst, s, p);
  EXPECT_NEAR(fast.fractional_flow, ref.fractional_flow, 1e-9 * std::max(1.0, ref.fractional_flow));
  EXPECT_NEAR(fast.energy, ref.energy, 1e-12 * std::max(1.0, ref.energy));
  EXPECT_DOUBLE_EQ(fast.integral_flow, ref.integral_flow);
}

TEST_P(MetricsFastVsReference, AgreeOnAlgorithmNC) {
  const auto [alpha, seed] = GetParam();
  const Instance inst =
      workload::generate({.n_jobs = 40, .arrival_rate = 2.0,
                          .seed = static_cast<std::uint64_t>(seed)});
  const Schedule s = run_nc_uniform(inst, alpha).schedule;
  const PowerLaw p(alpha);
  const Metrics fast = compute_metrics(inst, s, p);
  const Metrics ref = compute_metrics_reference(inst, s, p);
  EXPECT_NEAR(fast.fractional_flow, ref.fractional_flow,
              1e-9 * std::max(1.0, ref.fractional_flow));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MetricsFastVsReference,
                         ::testing::Combine(::testing::Values(1.5, 2.0, 3.0),
                                            ::testing::Values(1, 2, 3)));

TEST(MetricsFastVsReference, AgreeOnSteppedNonUniformSchedule) {
  // Many thousands of constant segments: the drift stress test.
  const Instance inst = workload::generate({.n_jobs = 8,
                                            .arrival_rate = 1.0,
                                            .density_mode = workload::DensityMode::kClasses,
                                            .density_spread = 20.0,
                                            .seed = 5});
  const NCNonUniformRun run = run_nc_nonuniform(inst, 2.0);
  const PowerLaw p(2.0);
  const Metrics fast = compute_metrics(inst, run.result.schedule, p);
  const Metrics ref = compute_metrics_reference(inst, run.result.schedule, p);
  EXPECT_NEAR(fast.fractional_flow, ref.fractional_flow,
              1e-9 * std::max(1.0, ref.fractional_flow));
  EXPECT_NEAR(fast.energy, ref.energy, 1e-12 * std::max(1.0, ref.energy));
}

TEST(Metrics, CombineAdds) {
  Metrics a{1.0, 2.0, 3.0};
  Metrics b{0.5, 0.25, 0.125};
  const Metrics c = combine(a, b);
  EXPECT_DOUBLE_EQ(c.energy, 1.5);
  EXPECT_DOUBLE_EQ(c.fractional_flow, 2.25);
  EXPECT_DOUBLE_EQ(c.integral_flow, 3.125);
  EXPECT_DOUBLE_EQ(c.fractional_objective(), 3.75);
  EXPECT_DOUBLE_EQ(c.integral_objective(), 4.625);
}

}  // namespace
}  // namespace speedscale
