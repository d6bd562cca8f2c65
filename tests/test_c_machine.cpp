// Tests for the exact incremental Algorithm C simulator (sim/c_machine.h).
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/metrics.h"
#include "src/core/power.h"
#include "src/sim/c_machine.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

TEST(CMachine, SingleJobMatchesLemma2) {
  const double alpha = 3.0, rho = 2.0, volume = 1.5;
  const Instance inst({Job{kNoJob, 0.0, volume, rho}});
  const Schedule s = run_algorithm_c(inst, alpha);
  const PowerLawKinematics kin(alpha);
  const double w = rho * volume;
  // Lemma 2.2: completion at t with rho (1-1/alpha) t = W^{1-1/alpha}.
  const double t_expect = std::pow(w, 1.0 - 1.0 / alpha) / (rho * (1.0 - 1.0 / alpha));
  EXPECT_NEAR(s.completion(0), t_expect, 1e-12);
  EXPECT_NEAR(s.makespan(), t_expect, 1e-12);
  EXPECT_NEAR(kin.decay_time_to_zero(w, rho), t_expect, 1e-12);
}

TEST(CMachine, HdfOrderWithPreemption) {
  // Low-density job first; a high-density job arrives and must preempt.
  const Instance inst({Job{kNoJob, 0.0, 4.0, 1.0}, Job{kNoJob, 0.1, 0.5, 10.0}});
  const Schedule s = run_algorithm_c(inst, 2.0);
  // Find who runs just after t = 0.1.
  bool preempted = false;
  for (const Segment& seg : s.segments()) {
    if (seg.t0 >= 0.1 - 1e-12 && seg.t0 < 0.1 + 1e-9) {
      EXPECT_EQ(seg.job, 1);
      preempted = true;
    }
  }
  EXPECT_TRUE(preempted);
  // Job 1 completes before job 0.
  EXPECT_LT(s.completion(1), s.completion(0));
  s.validate(inst);
}

TEST(CMachine, FifoWithinDensityLevel) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 2.0}, Job{kNoJob, 0.5, 1.0, 2.0}});
  const Schedule s = run_algorithm_c(inst, 2.0);
  EXPECT_LT(s.completion(0), s.completion(1));
  // Job 0 is never interrupted by job 1.
  for (const Segment& seg : s.segments()) {
    if (seg.job == 1) {
      EXPECT_GE(seg.t0, s.completion(0) - 1e-12);
    }
  }
}

TEST(CMachine, WorkConservingAndIdle) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 10.0, 1.0, 1.0}});
  const Schedule s = run_algorithm_c(inst, 2.0);
  // Gap between first completion and t=10.
  EXPECT_LT(s.completion(0), 10.0);
  EXPECT_GT(s.completion(1), 10.0);
  EXPECT_DOUBLE_EQ(s.speed_at(0.5 * (s.completion(0) + 10.0)), 0.0);
}

TEST(CMachine, DrainedMachineHoldsExactlyZeroWeight) {
  // The closed-form decay leaves a rounding residue (~1e-15) in the weight
  // level at each completion.  A machine with no active job must report
  // exactly 0, or C-PAR's least-weight dispatch would rank an idle machine
  // behind an exactly-empty one and diverge from NC-PAR (Lemma 20).
  for (const double alpha : {1.5, 2.0, 3.0}) {
    const Instance inst = workload::generate({.n_jobs = 200, .arrival_rate = 0.5, .seed = 7});
    CMachine m(alpha);
    std::size_t drains = 0;
    for (JobId jid : inst.fifo_order()) {
      m.advance_to(inst.job(jid).release);
      if (m.active_count() == 0) {
        ++drains;
        EXPECT_EQ(m.remaining_weight(), 0.0) << "alpha " << alpha << " at t=" << m.now();
      }
      m.add_job(inst.job(jid));
    }
    m.run_to_completion();
    EXPECT_GT(drains, 1u);
    EXPECT_EQ(m.remaining_weight(), 0.0) << "alpha " << alpha;
  }
}

TEST(CMachine, RemainingWeightLeftIsLeftLimit) {
  const double alpha = 2.0;
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.5, 1.0, 1.0}});
  CMachine m(alpha);
  for (const Job& j : inst.jobs()) m.add_job(j);
  m.run_to_completion();
  const PowerLawKinematics kin(alpha);
  // Just before the second release: W decayed from 1 for 0.5 time units.
  const double expect = kin.decay_weight_after(1.0, 1.0, 0.5);
  EXPECT_NEAR(m.remaining_weight_left(0.5), expect, 1e-12);
  // Just after: the jump is visible in remaining_weight at a later query
  // point, not in the left limit.
  EXPECT_NEAR(m.remaining_weight_left(0.5 + 1e-9), expect + 1.0, 1e-6);
}

TEST(CMachine, IncrementalAdditionMatchesBatch) {
  const double alpha = 2.5;
  const Instance inst = workload::generate({.n_jobs = 20, .seed = 42});
  // Batch: all jobs up front.
  const Schedule batch = run_algorithm_c(inst, alpha);
  // Incremental: feed each job right at its release.
  CMachine m(alpha);
  for (JobId jid : inst.fifo_order()) {
    m.advance_to(inst.job(jid).release);
    m.add_job(inst.job(jid));
  }
  m.run_to_completion();
  for (const Job& j : inst.jobs()) {
    EXPECT_NEAR(m.schedule().completion(j.id), batch.completion(j.id), 1e-9);
  }
}

TEST(CMachine, CompletionTimeOfAllIsNonMutating) {
  CMachine m(2.0);
  m.add_job(Job{0, 0.0, 1.0, 1.0});
  const double t_all = m.completion_time_of_all();
  EXPECT_DOUBLE_EQ(m.now(), 0.0);  // frontier unchanged
  m.run_to_completion();
  EXPECT_NEAR(m.now(), t_all, 1e-12);
}

TEST(CMachine, RejectsMisuse) {
  CMachine m(2.0);
  m.add_job(Job{0, 1.0, 1.0, 1.0});
  EXPECT_THROW(m.add_job(Job{0, 2.0, 1.0, 1.0}), ModelError);   // duplicate id
  EXPECT_THROW(m.add_job(Job{kNoJob, 2.0, 1.0, 1.0}), ModelError);
  m.advance_to(5.0);
  EXPECT_THROW(m.add_job(Job{1, 2.0, 1.0, 1.0}), ModelError);   // past release
  EXPECT_THROW(m.advance_to(1.0), ModelError);                  // backwards
  EXPECT_THROW((void)m.remaining_weight_left(99.0), ModelError);      // beyond frontier
  EXPECT_THROW((void)m.remaining_volume(77), ModelError);             // unknown id
}

TEST(CMachine, VolumeConservation) {
  const Instance inst = workload::generate(
      {.n_jobs = 30, .density_mode = workload::DensityMode::kLogUniform, .seed = 3});
  const Schedule s = run_algorithm_c(inst, 3.0);
  s.validate(inst);
  const auto v = s.processed_volumes(inst.size());
  for (const Job& j : inst.jobs()) {
    EXPECT_NEAR(v[static_cast<std::size_t>(j.id)], j.volume, 1e-8 * std::max(1.0, j.volume));
  }
}

TEST(CMachine, PartialAdvanceRemainingVolumes) {
  const double alpha = 2.0;
  CMachine m(alpha);
  m.add_job(Job{0, 0.0, 1.0, 1.0});
  m.advance_to(0.3);
  const PowerLawKinematics kin(alpha);
  const double w = kin.decay_weight_after(1.0, 1.0, 0.3);
  EXPECT_NEAR(m.remaining_weight(), w, 1e-12);
  EXPECT_NEAR(m.remaining_volume(0), w, 1e-12);  // unit density
  EXPECT_NEAR(m.remaining_weight_of(0), w, 1e-12);
  EXPECT_EQ(m.active_count(), 1u);
  EXPECT_FALSE(m.drained());
}

// Property sweep: for every alpha and seed, the Algorithm C invariant
// "energy == fractional flow" holds exactly (both equal int W dt).
class CMachineProperty : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(CMachineProperty, EnergyEqualsFractionalFlow) {
  const auto [alpha, seed] = GetParam();
  const Instance inst = workload::generate({.n_jobs = 25,
                                            .arrival_rate = 1.5,
                                            .density_mode = workload::DensityMode::kClasses,
                                            .seed = static_cast<std::uint64_t>(seed)});
  const Schedule s = run_algorithm_c(inst, alpha);
  const PowerLaw p(alpha);
  const Metrics m = compute_metrics(inst, s, p);
  EXPECT_NEAR(m.energy, m.fractional_flow, 1e-9 * std::max(1.0, m.energy));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CMachineProperty,
                         ::testing::Combine(::testing::Values(1.5, 2.0, 3.0),
                                            ::testing::Values(1, 2, 3, 4, 5)));

}  // namespace
}  // namespace speedscale
