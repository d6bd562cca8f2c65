// Tests for Algorithm NC, uniform density (paper Section 3).
//
// These verify the paper's *exact* lemma-level identities to ~1e-9 —
// possible because the simulator is closed-form exact — plus the theorem
// bounds against the numerical offline optimum.
#include <gtest/gtest.h>

#include <cmath>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/baselines.h"
#include "src/algo/bounds.h"
#include "src/opt/convex_opt.h"
#include "src/sim/speed_profile.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

Instance uniform_instance(int n, std::uint64_t seed, double rate = 1.0) {
  return workload::generate({.n_jobs = n,
                             .arrival_rate = rate,
                             .volume_dist = workload::VolumeDist::kExponential,
                             .seed = seed});
}

TEST(NCUniform, RejectsNonUniformDensities) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 1.0, 1.0, 2.0}});
  EXPECT_THROW(run_nc_uniform(inst, 2.0), ModelError);
}

TEST(NCUniform, SingleJobClosedForm) {
  // The Section 1.2 story: V = 1, rho = 1, alpha = 2.
  const double alpha = 2.0;
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}});
  const RunResult nc = run_nc_uniform(inst, alpha);
  const RunResult c = run_c(inst, alpha);
  // Both take time 2 and spend energy 2/3.
  EXPECT_NEAR(nc.schedule.completion(0), 2.0, 1e-12);
  EXPECT_NEAR(c.schedule.completion(0), 2.0, 1e-12);
  EXPECT_NEAR(nc.metrics.energy, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.metrics.energy, 2.0 / 3.0, 1e-12);
  // C: flow = energy.  NC: flow = energy / (1 - 1/alpha) = 4/3.
  EXPECT_NEAR(c.metrics.fractional_flow, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(nc.metrics.fractional_flow, 4.0 / 3.0, 1e-12);
  // Lemma 8 is tight for a single job: Fint = (2 - 1/alpha) * Ffrac = 2.
  EXPECT_NEAR(nc.metrics.integral_flow, 2.0, 1e-12);
}

TEST(NCUniform, FifoProcessingOrder) {
  const Instance inst = uniform_instance(12, 9);
  const NCUniformRun run = run_nc_uniform_detailed(inst, 2.0);
  double prev_release = -1.0;
  for (const Segment& seg : run.result.schedule.segments()) {
    const double r = inst.job(seg.job).release;
    EXPECT_GE(r, prev_release - 1e-12);
    prev_release = r;
  }
  run.result.schedule.validate(inst);
}

TEST(NCUniform, OffsetsMatchVirtualCRuns) {
  // The offset must equal the clairvoyant remaining weight just before the
  // job's release, plus, for a tied release, the weights of the tied jobs
  // ahead of it in FIFO order (ties are the limit of infinitesimally
  // separated releases).
  const Instance distinct = uniform_instance(10, 4);
  const Instance tied({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 2.0, 1.0},
                       Job{kNoJob, 0.0, 0.5, 1.0}, Job{kNoJob, 1.0, 1.0, 1.0},
                       Job{kNoJob, 1.0, 0.25, 1.0}});
  for (const Instance* inst : {&distinct, &tied}) {
    const double alpha = 2.5;
    const NCUniformRun run = run_nc_uniform_detailed(*inst, alpha);
    const Schedule c = run_algorithm_c(*inst, alpha);
    for (const Job& j : inst->jobs()) {
      double w = c_remaining_weight_left(c, j.release);
      for (const Job& k : inst->jobs()) {
        if (k.release == j.release && k.id < j.id) w += k.weight();
      }
      EXPECT_NEAR(run.offsets[static_cast<std::size_t>(j.id)], w, 1e-9) << "job " << j.id;
    }
  }
}

TEST(NCUniform, EmptyInstanceRunsNothing) {
  const Instance empty(std::vector<Job>{});
  const NCUniformRun run = run_nc_uniform_detailed(empty, 2.0);
  EXPECT_TRUE(run.result.schedule.segments().empty());
  EXPECT_EQ(run.result.metrics.energy, 0.0);
  EXPECT_EQ(run.result.metrics.fractional_flow, 0.0);
  EXPECT_EQ(run.result.metrics.integral_flow, 0.0);
  ASSERT_TRUE(run.result.online.has_value());
  EXPECT_EQ(run.result.online->energy, 0.0);
  EXPECT_EQ(run.result.online->fractional_flow, 0.0);
  EXPECT_EQ(run.result.online->integral_flow, 0.0);
  EXPECT_TRUE(run.offsets.empty());
  EXPECT_TRUE(run.starts.empty());
}

// --- The paper's exact identities, swept over alpha x seeds -------------

class NCUniformIdentity : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(NCUniformIdentity, Lemma3EnergyEquality) {
  const auto [alpha, seed] = GetParam();
  const Instance inst = uniform_instance(24, static_cast<std::uint64_t>(seed));
  const RunResult nc = run_nc_uniform(inst, alpha);
  const RunResult c = run_c(inst, alpha);
  EXPECT_NEAR(nc.metrics.energy, c.metrics.energy, 1e-9 * std::max(1.0, c.metrics.energy));
}

TEST_P(NCUniformIdentity, Lemma4FlowRatioExact) {
  const auto [alpha, seed] = GetParam();
  const Instance inst = uniform_instance(24, static_cast<std::uint64_t>(seed));
  const RunResult nc = run_nc_uniform(inst, alpha);
  const RunResult c = run_c(inst, alpha);
  const double expect = c.metrics.fractional_flow * bounds::nc_over_c_flow(alpha);
  EXPECT_NEAR(nc.metrics.fractional_flow, expect, 1e-9 * std::max(1.0, expect));
}

TEST_P(NCUniformIdentity, Lemma6MeasurePreservingSpeedProfiles) {
  const auto [alpha, seed] = GetParam();
  const Instance inst = uniform_instance(16, static_cast<std::uint64_t>(seed));
  const RunResult nc = run_nc_uniform(inst, alpha);
  const RunResult c = run_c(inst, alpha);
  const double scale = std::max(1.0, c.schedule.makespan());
  EXPECT_LE(rearrangement_distance(nc.schedule, c.schedule), 1e-8 * scale);
}

TEST_P(NCUniformIdentity, Lemma8IntegralVsFractionalFlow) {
  const auto [alpha, seed] = GetParam();
  const Instance inst = uniform_instance(24, static_cast<std::uint64_t>(seed));
  const RunResult nc = run_nc_uniform(inst, alpha);
  EXPECT_LE(nc.metrics.integral_flow, bounds::nc_integral_over_fractional_flow(alpha) *
                                              nc.metrics.fractional_flow * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Sweep, NCUniformIdentity,
                         ::testing::Combine(::testing::Values(1.3, 1.5, 2.0, 2.5, 3.0, 5.0),
                                            ::testing::Values(1, 2, 3, 4)));

// The identities must hold on every workload shape: sweep volume
// distributions and burstiness too.
class NCUniformShapes
    : public ::testing::TestWithParam<std::tuple<workload::VolumeDist, double, int>> {};

TEST_P(NCUniformShapes, IdentitiesAcrossWorkloadShapes) {
  const auto [dist, rate, seed] = GetParam();
  const double alpha = 2.5;
  const Instance inst = workload::generate({.n_jobs = 20,
                                            .arrival_rate = rate,
                                            .volume_dist = dist,
                                            .volume_param = 1.7,
                                            .seed = static_cast<std::uint64_t>(seed)});
  const RunResult nc = run_nc_uniform(inst, alpha);
  const RunResult c = run_c(inst, alpha);
  EXPECT_NEAR(nc.metrics.energy, c.metrics.energy, 1e-9 * std::max(1.0, c.metrics.energy));
  EXPECT_NEAR(nc.metrics.fractional_flow,
              c.metrics.fractional_flow * bounds::nc_over_c_flow(alpha),
              1e-9 * std::max(1.0, nc.metrics.fractional_flow));
  nc.schedule.validate(inst);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NCUniformShapes,
    ::testing::Combine(::testing::Values(workload::VolumeDist::kUniform,
                                         workload::VolumeDist::kPareto,
                                         workload::VolumeDist::kLognormal,
                                         workload::VolumeDist::kFixed),
                       ::testing::Values(0.4, 2.0, 8.0), ::testing::Values(1, 2)));

TEST(NCUniform, IdentitiesOnDiurnalTraces) {
  const double alpha = 2.0;
  const Instance inst =
      workload::diurnal_trace({.n_jobs = 60, .base_rate = 2.0, .amplitude = 0.8, .seed = 6});
  const RunResult nc = run_nc_uniform(inst, alpha);
  const RunResult c = run_c(inst, alpha);
  EXPECT_NEAR(nc.metrics.energy, c.metrics.energy, 1e-9 * std::max(1.0, c.metrics.energy));
  EXPECT_NEAR(nc.metrics.fractional_flow, 2.0 * c.metrics.fractional_flow,
              1e-9 * std::max(1.0, nc.metrics.fractional_flow));
}

// Ties in release times resolve as the limit of distinct releases, so the
// identities must still hold exactly.
TEST(NCUniform, IdentitiesHoldWithTiedReleases) {
  const double alpha = 2.0;
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 2.0, 1.0},
                       Job{kNoJob, 0.0, 0.5, 1.0}, Job{kNoJob, 1.0, 1.0, 1.0},
                       Job{kNoJob, 1.0, 0.25, 1.0}});
  const RunResult nc = run_nc_uniform(inst, alpha);
  const RunResult c = run_c(inst, alpha);
  EXPECT_NEAR(nc.metrics.energy, c.metrics.energy, 1e-9);
  EXPECT_NEAR(nc.metrics.fractional_flow, c.metrics.fractional_flow * 2.0, 1e-9);
}

// --- Theorem-level bounds against the numerical offline optimum ---------

class NCUniformBound : public ::testing::TestWithParam<double> {};

TEST_P(NCUniformBound, Theorem5FractionalCompetitiveness) {
  const double alpha = GetParam();
  const Instance inst = uniform_instance(12, 17, 2.0);
  const RunResult nc = run_nc_uniform(inst, alpha);
  const ConvexOptResult opt = solve_fractional_opt(inst, alpha, {.slots = 700});
  ASSERT_GT(opt.objective, 0.0);
  const double ratio = nc.metrics.fractional_objective() / opt.objective;
  // 5% slack for the discretized OPT.
  EXPECT_LE(ratio, bounds::nc_uniform_fractional(alpha) * 1.05);
  EXPECT_GE(ratio, 1.0 - 0.05);  // OPT really is (near) a lower bound
}

TEST_P(NCUniformBound, Theorem9IntegralCompetitiveness) {
  const double alpha = GetParam();
  const Instance inst = uniform_instance(12, 23, 2.0);
  const RunResult nc = run_nc_uniform(inst, alpha);
  const ConvexOptResult opt = solve_fractional_opt(inst, alpha, {.slots = 700});
  ASSERT_GT(opt.objective, 0.0);
  // fractional OPT <= integral OPT, so this ratio upper-bounds the true one.
  const double ratio = nc.metrics.integral_objective() / opt.objective;
  EXPECT_LE(ratio, bounds::nc_uniform_integral(alpha) * 1.05);
}

INSTANTIATE_TEST_SUITE_P(AlphaGrid, NCUniformBound, ::testing::Values(1.5, 2.0, 3.0));

// Ablation sanity: the naive speed rule (no clairvoyant offset) must NOT
// satisfy the Lemma 3 energy identity on instances with waiting.
TEST(NCUniform, NaiveRuleBreaksEnergyIdentity) {
  // Sparse arrivals: the naive rule keeps growing from the total completed
  // weight, so later jobs run absurdly fast and waste energy.
  const Instance inst = uniform_instance(16, 31, 0.3);
  const double alpha = 2.0;
  const RunResult naive = run_naive_nc(inst, alpha);
  const RunResult c = run_c(inst, alpha);
  EXPECT_GT(std::abs(naive.metrics.energy - c.metrics.energy),
            1e-6 * std::max(1.0, c.metrics.energy));
}

}  // namespace
}  // namespace speedscale
