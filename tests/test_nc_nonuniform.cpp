// Tests for the non-uniform-density Algorithm NC (paper Section 4) and its
// instrumentation (current instances, preemption structure, Lemma 11-13
// style properties).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_nonuniform.h"
#include "src/algo/preemption.h"
#include "src/sim/c_machine.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

Instance mixed_instance(int n, std::uint64_t seed) {
  return workload::generate({.n_jobs = n,
                             .arrival_rate = 1.0,
                             .density_mode = workload::DensityMode::kClasses,
                             .density_classes = 3,
                             .density_spread = 30.0,
                             .seed = seed});
}

TEST(MakeCurrentInstance, FiltersAndReweights) {
  const Instance rounded({Job{kNoJob, 0.0, 5.0, 1.0}, Job{kNoJob, 2.0, 3.0, 4.0},
                          Job{kNoJob, 9.0, 1.0, 1.0}});
  std::vector<double> processed{1.5, 0.0, 0.5};
  std::vector<JobId> kept;
  const Instance cur = make_current_instance(rounded, processed, 3.0, &kept);
  // Job 1 has zero processed weight; job 2 is not yet released.
  ASSERT_EQ(cur.size(), 1u);
  EXPECT_EQ(kept[0], 0);
  EXPECT_DOUBLE_EQ(cur.jobs()[0].volume, 1.5);
  EXPECT_DOUBLE_EQ(cur.jobs()[0].density, 1.0);
}

TEST(CSpeedOnCurrentInstance, MatchesDirectSimulation) {
  const Instance rounded({Job{kNoJob, 0.0, 2.0, 1.0}});
  std::vector<double> processed{1.0};
  const double t = 0.4;
  const double s = c_speed_on_current_instance(rounded, processed, t, 2.0);
  // Direct: C on one job of volume 1, at time 0.4.
  const PowerLawKinematics kin(2.0);
  const double w = kin.decay_weight_after(1.0, 1.0, t);
  EXPECT_NEAR(s, kin.speed_at_weight(w), 1e-12);
}

TEST(CurrentInstanceOracle, MatchesReferenceEvaluator) {
  // The oracle steps through the reference's C events with CMachine's own
  // stretch (c_stretch), so the two agree bit for bit, near-drained
  // instants included: 2000 random queries per alpha.
  for (const double alpha : {1.01, 1.5, 2.0, 2.3, 3.0, 8.0}) {
    for (std::uint64_t seed = 21; seed < 31; ++seed) {
      const Instance rounded = mixed_instance(32, seed).rounded_densities(4.5);
      CurrentInstanceOracle oracle(rounded, alpha);
      std::mt19937_64 rng(seed);
      std::uniform_real_distribution<double> u(0.0, 1.0);
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> processed(rounded.size());
        for (std::size_t i = 0; i < processed.size(); ++i) {
          // Random partial progress, with some jobs untouched.
          const double f = u(rng);
          processed[i] = f < 0.3 ? 0.0 : f * rounded.jobs()[i].volume;
        }
        const double t = u(rng) * (rounded.max_release() + 4.0);
        ASSERT_EQ(oracle.c_speed(processed, t),
                  c_speed_on_current_instance(rounded, processed, t, alpha))
            << "alpha " << alpha << " seed " << seed << " trial " << trial << " t=" << t;
      }
    }
  }
}

// Drives `anchored` the way run_nc_nonuniform does while job `anchor` runs:
// `steps` steps of length dt from t, its processed volume growing by `grow`
// per step (from zero when it has just started), with two probes per step:
// at t on the current weights and at t + dt/2 with only the anchor's volume
// overridden.  Each must equal a full replay of the same weights, bit for bit.
void drive(CurrentInstanceOracle& anchored, CurrentInstanceOracle& full,
           std::vector<double>& processed, JobId anchor, double& t, double dt, int steps,
           double grow) {
  const auto idx = static_cast<std::size_t>(anchor);
  for (int k = 0; k < steps; ++k) {
    const double s = anchored.c_speed(processed, t, anchor, processed[idx]);
    ASSERT_EQ(s, full.c_speed(processed, t)) << "anchor " << anchor << " t=" << t;
    std::vector<double> probe = processed;
    probe[idx] += 0.5 * grow;
    const double s_mid = anchored.c_speed(processed, t + 0.5 * dt, anchor, probe[idx]);
    ASSERT_EQ(s_mid, full.c_speed(probe, t + 0.5 * dt))
        << "anchor " << anchor << " t=" << t + 0.5 * dt;
    processed[idx] += grow;
    t += dt;
  }
}

TEST(CurrentInstanceOracle, AnchoredMatchesFullReplayBitForBit) {
  const double alpha = 2.3;
  {
    SCOPED_TRACE("hand-built");
    // Job 0 is released at 0; jobs 2 and 3 share release 1; job 4 comes at 2.5.
    const Instance rounded({Job{kNoJob, 0.0, 3.0, 1.0}, Job{kNoJob, 0.4, 0.5, 4.5},
                            Job{kNoJob, 1.0, 1.0, 1.0}, Job{kNoJob, 1.0, 0.8, 4.5},
                            Job{kNoJob, 2.5, 0.6, 20.25}});
    CurrentInstanceOracle anchored(rounded, alpha);
    CurrentInstanceOracle full(rounded, alpha);
    std::vector<double> processed{0.0, 0.2, 0.0, 0.3, 0.1};
    double t = 0.0;
    // Released at 0, starting from zero weight (the fallback), t crossing
    // releases 0.4 and 1.
    drive(anchored, full, processed, 0, t, 0.05, 30, 0.02);
    // Another job shares the anchor's release, on either side of the tie.
    drive(anchored, full, processed, 2, t, 0.02, 10, 0.03);
    drive(anchored, full, processed, 3, t, 0.02, 10, 0.01);
    // Re-anchoring A -> B -> A: job 2's checkpoint predates job 3's progress.
    drive(anchored, full, processed, 2, t, 0.02, 10, 0.03);
    // An anchor released after t replays in full, before it has a
    // checkpoint and after.
    const auto probe_before_release = [&](double t_probe) {
      ASSERT_LT(t_probe, 2.5);
      const long before = anchored.events();
      const long before_full = full.events();
      std::vector<double> probe = processed;
      probe[4] = processed[4] + 0.3;
      ASSERT_EQ(anchored.c_speed(processed, t_probe, 4, probe[4]), full.c_speed(probe, t_probe));
      EXPECT_EQ(anchored.events() - before, full.events() - before_full);
    };
    probe_before_release(t);
    drive(anchored, full, processed, 0, t, 0.1, 10, 0.02);
    drive(anchored, full, processed, 4, t, 0.1, 10, 0.02);
    probe_before_release(2.0);
    drive(anchored, full, processed, 4, t, 0.1, 10, 0.02);
    EXPECT_LT(anchored.events(), full.events());
  }
  {
    SCOPED_TRACE("n = 130");
    // Three words of ranks; the anchors include the last rank, in word 2.
    const Instance rounded = mixed_instance(130, 9).rounded_densities(4.5);
    ASSERT_EQ(rounded.size(), 130u);
    const auto ranks_before = [](const Job& a, const Job& b) {
      if (a.density != b.density) return a.density > b.density;
      if (a.release != b.release) return a.release < b.release;
      return a.id < b.id;
    };
    const JobId last_rank =
        std::max_element(rounded.jobs().begin(), rounded.jobs().end(), ranks_before)->id;
    CurrentInstanceOracle anchored(rounded, alpha);
    CurrentInstanceOracle full(rounded, alpha);
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<double> processed(rounded.size());
    for (std::size_t i = 0; i < processed.size(); ++i) {
      const double f = u(rng);
      processed[i] = f < 0.3 ? 0.0 : 0.5 * f * rounded.jobs()[i].volume;
    }
    const double horizon = rounded.max_release() + 4.0;
    for (const JobId a : {last_rank, JobId{0}, JobId{64}, last_rank, JobId{129}}) {
      double t = rounded.job(a).release;
      drive(anchored, full, processed, a, t, horizon / 200.0, 40, 0.01);
    }
    EXPECT_LT(anchored.events(), full.events());
  }
}

TEST(NCNonUniform, CompletesEveryJobAndValidates) {
  const Instance inst = mixed_instance(10, 5);
  const NCNonUniformRun run = run_nc_nonuniform(inst, 2.0);
  run.result.schedule.validate(inst);
  for (const Job& j : inst.jobs()) {
    EXPECT_TRUE(run.result.schedule.completed(j.id));
  }
  EXPECT_GT(run.steps, 0);
  EXPECT_GT(run.c_evaluations, 0);
}

TEST(NCNonUniform, HdfOrderOnRoundedDensities) {
  // Two density classes far apart: the high class must always preempt.
  const Instance inst({Job{kNoJob, 0.0, 2.0, 1.0}, Job{kNoJob, 0.5, 0.3, 100.0}});
  const NCNonUniformRun run = run_nc_nonuniform(inst, 2.0);
  EXPECT_LT(run.result.schedule.completion(1), run.result.schedule.completion(0));
}

TEST(NCNonUniform, StepRefinementConverges) {
  const Instance inst = mixed_instance(6, 13);
  NCNonUniformParams coarse;
  coarse.step_growth = 0.2;
  NCNonUniformParams fine;
  fine.step_growth = 0.02;
  NCNonUniformParams finer;
  finer.step_growth = 0.005;
  const double g_coarse =
      run_nc_nonuniform(inst, 2.0, coarse).result.metrics.fractional_objective();
  const double g_fine =
      run_nc_nonuniform(inst, 2.0, fine).result.metrics.fractional_objective();
  const double g_finer =
      run_nc_nonuniform(inst, 2.0, finer).result.metrics.fractional_objective();
  // Successive refinements move less and less (Cauchy-style convergence).
  EXPECT_LE(std::abs(g_finer - g_fine), std::abs(g_fine - g_coarse) + 1e-9 * g_fine);
}

class NCNonUniformBound : public ::testing::TestWithParam<std::tuple<double, int>> {};

// Section 4's qualitative claim: constant-competitive (constant depends on
// alpha, eta, beta).  We check against the clairvoyant run with a generous
// constant; the bench (E10) maps the constant as a function of eta/beta.
TEST_P(NCNonUniformBound, BoundedRatioVsClairvoyant) {
  const auto [alpha, seed] = GetParam();
  const Instance inst = mixed_instance(8, static_cast<std::uint64_t>(seed));
  const NCNonUniformRun nc = run_nc_nonuniform(inst, alpha);
  const RunResult c = run_c(inst, alpha);
  const double ratio =
      nc.result.metrics.fractional_objective() / c.metrics.fractional_objective();
  // The dominating term is the eta^alpha energy inflation of running eta
  // times faster than the current-instance clairvoyant speed (the paper's
  // constant is 2^O(alpha)); sanity-bound with a generous multiple of it.
  const double eta = 1.5 * nc_eta_min(alpha);
  EXPECT_LT(ratio, 10.0 * std::pow(eta, alpha));
  EXPECT_GT(ratio, 0.9);  // it cannot beat the clairvoyant by much
}

INSTANTIATE_TEST_SUITE_P(Grid, NCNonUniformBound,
                         ::testing::Combine(::testing::Values(2.0, 3.0),
                                            ::testing::Values(1, 2)));

TEST(NCNonUniform, ObserverSeesMonotoneEvents) {
  const Instance inst = mixed_instance(6, 7);
  double last_t = -1.0;
  std::vector<double> last_p;
  int calls = 0;
  (void)run_nc_nonuniform(inst, 2.0, {}, [&](double t, const std::vector<double>& p) {
    EXPECT_GE(t, last_t);
    if (!last_p.empty()) {
      for (std::size_t i = 0; i < p.size(); ++i) EXPECT_GE(p[i], last_p[i] - 1e-12);
    }
    last_t = t;
    last_p = p;
    ++calls;
  });
  EXPECT_GE(calls, static_cast<int>(inst.size()));  // at least each completion
}

TEST(NCNonUniform, RoundingAblationRuns) {
  const Instance inst = mixed_instance(6, 3);
  NCNonUniformParams no_round;
  no_round.round_densities = false;
  const NCNonUniformRun a = run_nc_nonuniform(inst, 2.0, no_round);
  const NCNonUniformRun b = run_nc_nonuniform(inst, 2.0);
  EXPECT_GT(a.result.metrics.fractional_objective(), 0.0);
  EXPECT_GT(b.result.metrics.fractional_objective(), 0.0);
  // Without rounding, ordering follows true densities.
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounded.jobs()[i].density, inst.jobs()[i].density);
  }
}

// Empirical Lemma 13: for snapshots I(t) during the run, active jobs' C
// completion times exceed t by a constant fraction of their age t - r[j].
TEST(NCNonUniform, Lemma13CompletionGapPositive) {
  const Instance inst = mixed_instance(8, 17);
  const double alpha = 2.0;
  double min_psi = kInf;
  const NCNonUniformRun run = run_nc_nonuniform(
      inst, alpha, {}, [&](double t, const std::vector<double>& processed) {
        // Build I(t) and run C to completion.
        const Instance rounded = inst.rounded_densities(4.5);
        std::vector<JobId> kept;
        const Instance cur = make_current_instance(rounded, processed, t, &kept);
        if (cur.empty()) return;
        const Schedule cs = run_algorithm_c(cur, alpha);
        for (std::size_t i = 0; i < cur.size(); ++i) {
          const JobId orig = kept[i];
          const Job& oj = inst.job(orig);
          // Only *active* jobs (not yet completed by NC).
          if (processed[static_cast<std::size_t>(orig)] >= oj.volume - 1e-12) continue;
          const double age = t - oj.release;
          if (age <= 1e-9) continue;
          const double gap = cs.completion(static_cast<JobId>(i)) - t;
          min_psi = std::min(min_psi, gap / age);
        }
      });
  (void)run;
  if (min_psi < kInf) {
    EXPECT_GT(min_psi, 0.0);
  }
}

TEST(Preemption, StructureOnHandBuiltInstance) {
  // Job 0: low density, released 0.  Jobs 1,2: high density, released later:
  // two separate preemption intervals for job 0.
  const Instance inst({Job{kNoJob, 0.0, 4.0, 1.0}, Job{kNoJob, 0.3, 0.2, 50.0},
                       Job{kNoJob, 1.5, 0.2, 50.0}});
  const Schedule c = run_algorithm_c(inst, 2.0);
  const PreemptionStructure ps = preemption_structure(c, inst, 0);
  ASSERT_EQ(ps.intervals.size(), 2u);
  EXPECT_NEAR(ps.intervals[0].start, 0.3, 1e-9);
  EXPECT_NEAR(ps.intervals[1].start, 1.5, 1e-9);
  EXPECT_NEAR(ps.intervals[0].preempting_volume, 0.2, 1e-9);
  EXPECT_NEAR(ps.intervals[1].preempting_volume, 0.2, 1e-9);
  EXPECT_GT(ps.intervals[0].weight_at_start, 0.0);
  EXPECT_EQ(ps.last_index(), 1);
  EXPECT_GT(ps.completion, ps.intervals[1].end);
}

TEST(Preemption, NoPreemptionForHighestDensityJob) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 10.0}, Job{kNoJob, 0.2, 1.0, 1.0}});
  const Schedule c = run_algorithm_c(inst, 2.0);
  const PreemptionStructure ps = preemption_structure(c, inst, 0);
  EXPECT_TRUE(ps.intervals.empty());
  EXPECT_EQ(ps.last_index(), -1);
}

}  // namespace
}  // namespace speedscale
