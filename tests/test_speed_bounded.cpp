// Tests for the bounded-maximum-speed extension (algo/speed_bounded.h).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/speed_bounded.h"
#include "src/sim/c_machine.h"
#include "src/sim/speed_profile.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

Instance uniform_instance(int n, std::uint64_t seed) {
  return workload::generate({.n_jobs = n, .arrival_rate = 2.0, .seed = seed});
}

TEST(BoundedC, SingleJobHandComputable) {
  // alpha = 2, W = 4, s_max = 1 (cap power 1): capped 3 time units at speed
  // 1, then the usual decay from weight 1 (2 more time units).
  const Instance one({Job{kNoJob, 0.0, 4.0, 1.0}});
  const BoundedRun run = run_c_bounded(one, 2.0, 1.0);
  EXPECT_NEAR(run.result.schedule.completion(0), 5.0, 1e-12);
  // Energy: 1 * 3 (capped) + int W dt over decay 1 -> 0 = 1/1.5.
  EXPECT_NEAR(run.result.metrics.energy, 3.0 + 2.0 / 3.0, 1e-12);
  run.result.schedule.validate(one);
}

TEST(BoundedC, LooseCapMatchesUnboundedBitForBit) {
  // A cap that never binds leaves Algorithm C: the uncapped phase is
  // CMachine's own stretch, exact-zero drain of the last job included.
  for (const std::uint64_t seed : {5, 11, 4242}) {
    const Instance inst = workload::generate({.n_jobs = 200,
                                              .arrival_rate = 1.0,
                                              .density_mode = workload::DensityMode::kClasses,
                                              .density_classes = 3,
                                              .density_spread = 30.0,
                                              .seed = seed});
    for (const double alpha : {1.5, 2.0, 3.0}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " alpha " + std::to_string(alpha));
      const BoundedRun b = run_c_bounded(inst, alpha, 1e6);
      const Schedule c = run_algorithm_c(inst, alpha);
      const auto& bs = b.result.schedule.segments();
      const auto& cs = c.segments();
      ASSERT_EQ(bs.size(), cs.size());
      for (std::size_t i = 0; i < bs.size(); ++i) {
        EXPECT_EQ(bs[i].t0, cs[i].t0) << "segment " << i;
        EXPECT_EQ(bs[i].t1, cs[i].t1) << "segment " << i;
        EXPECT_EQ(bs[i].job, cs[i].job) << "segment " << i;
        EXPECT_EQ(bs[i].law, cs[i].law) << "segment " << i;
        EXPECT_EQ(bs[i].param, cs[i].param) << "segment " << i;
        EXPECT_EQ(bs[i].rho, cs[i].rho) << "segment " << i;
      }
      for (const Job& j : inst.jobs()) {
        EXPECT_EQ(b.result.schedule.completion(j.id), c.completion(j.id)) << "job " << j.id;
      }
      const Metrics u = run_c(inst, alpha).metrics;
      EXPECT_EQ(b.result.metrics.energy, u.energy);
      EXPECT_EQ(b.result.metrics.fractional_flow, u.fractional_flow);
      EXPECT_EQ(b.result.metrics.integral_flow, u.integral_flow);
    }
  }
}

TEST(BoundedNC, LooseCapMatchesUnbounded) {
  const Instance inst = uniform_instance(10, 5);
  const BoundedRun b = run_nc_bounded(inst, 2.0, 1e6);
  const RunResult u = run_nc_uniform(inst, 2.0);
  EXPECT_NEAR(b.result.metrics.fractional_objective(), u.metrics.fractional_objective(),
              1e-9 * u.metrics.fractional_objective());
}

TEST(BoundedC, SpeedNeverExceedsCap) {
  const Instance inst = uniform_instance(12, 7);
  const double s_max = 0.8;
  const BoundedRun run = run_c_bounded(inst, 2.0, s_max);
  const double T = run.result.schedule.makespan();
  for (int i = 0; i <= 4000; ++i) {
    EXPECT_LE(run.result.schedule.speed_at(T * i / 4000.0), s_max + 1e-9);
  }
  run.result.schedule.validate(inst);
}

TEST(BoundedC, RemainingWeightLeftConsistent) {
  const Instance inst({Job{kNoJob, 0.0, 4.0, 1.0}, Job{kNoJob, 1.0, 1.0, 1.0}});
  const BoundedRun run = run_c_bounded(inst, 2.0, 1.0);
  // At t = 1^- the machine has run capped at speed 1 for 1 unit: W = 4 - 1.
  EXPECT_NEAR(bounded_remaining_weight_left(run, 1.0), 3.0, 1e-12);
  EXPECT_NEAR(bounded_remaining_weight_left(run, 0.5), 3.5, 1e-12);
}

class BoundedIdentity : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

// The general-power-function lemmas transfer to the capped model:
// equal energy (Lemma 3) ...
TEST_P(BoundedIdentity, EnergyEquality) {
  const auto [alpha, s_max, seed] = GetParam();
  const Instance inst = uniform_instance(18, static_cast<std::uint64_t>(seed));
  const BoundedRun c = run_c_bounded(inst, alpha, s_max);
  const BoundedRun nc = run_nc_bounded(inst, alpha, s_max);
  EXPECT_NEAR(nc.result.metrics.energy, c.result.metrics.energy,
              1e-9 * std::max(1.0, c.result.metrics.energy));
}

// ... and measure-preserving speed profiles (Lemma 6).
TEST_P(BoundedIdentity, MeasurePreservingProfiles) {
  const auto [alpha, s_max, seed] = GetParam();
  const Instance inst = uniform_instance(14, static_cast<std::uint64_t>(seed));
  const BoundedRun c = run_c_bounded(inst, alpha, s_max);
  const BoundedRun nc = run_nc_bounded(inst, alpha, s_max);
  const double scale = std::max(1.0, c.result.schedule.makespan());
  EXPECT_LE(rearrangement_distance(nc.result.schedule, c.result.schedule), 1e-8 * scale);
}

INSTANTIATE_TEST_SUITE_P(Grid, BoundedIdentity,
                         ::testing::Combine(::testing::Values(1.5, 2.0, 3.0),
                                            ::testing::Values(0.5, 0.9, 2.0),
                                            ::testing::Values(1, 2)));

TEST(Bounded, FlowRatioDriftsWhenCapBinds) {
  // Lemma 4's 1/(1-1/alpha) is power-law-specific: a binding cap breaks it.
  const double alpha = 2.0;
  const Instance inst = uniform_instance(12, 3);
  const BoundedRun c = run_c_bounded(inst, alpha, 0.4);  // tight cap
  const BoundedRun nc = run_nc_bounded(inst, alpha, 0.4);
  const double ratio = nc.result.metrics.fractional_flow / c.result.metrics.fractional_flow;
  EXPECT_GT(std::abs(ratio - 2.0), 0.01);
}

TEST(Bounded, CostMonotoneInCap) {
  const Instance one({Job{kNoJob, 0.0, 4.0, 1.0}});
  double prev = kInf;
  for (double s_max : {0.25, 0.5, 1.0, 2.0, 8.0}) {
    const double cost = run_c_bounded(one, 2.0, s_max).result.metrics.fractional_objective();
    EXPECT_LE(cost, prev + 1e-12);
    prev = cost;
  }
}

TEST(Bounded, RejectsBadInputs) {
  const Instance one({Job{kNoJob, 0.0, 1.0, 1.0}});
  EXPECT_THROW(run_c_bounded(one, 2.0, 0.0), ModelError);
  EXPECT_THROW(run_nc_bounded(one, 2.0, -1.0), ModelError);
  const Instance mixed({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 1.0, 2.0}});
  EXPECT_THROW(run_nc_bounded(mixed, 2.0, 1.0), ModelError);
}

TEST(Bounded, TiedReleasesKeepEnergyIdentity) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 2.0, 1.0},
                       Job{kNoJob, 0.5, 0.5, 1.0}});
  const BoundedRun c = run_c_bounded(inst, 2.0, 0.9);
  const BoundedRun nc = run_nc_bounded(inst, 2.0, 0.9);
  EXPECT_NEAR(nc.result.metrics.energy, c.result.metrics.energy, 1e-9);
}

}  // namespace
}  // namespace speedscale
