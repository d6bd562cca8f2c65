// Tests for the custom-policy engine (sim/custom_policy.h): user-defined
// non-clairvoyant speed rules cross-validated against the exact simulators.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/algo/algorithm_nc_nonuniform.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/baselines.h"
#include "src/engine/online_metrics.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/sim/c_machine.h"
#include "src/sim/custom_policy.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

// FIFO job picker over observable state.
JobId fifo_pick(const ObservableState& st) {
  for (const auto& j : st.jobs) {
    if (!j.completed) return j.id;
  }
  return kNoJob;
}

// Algorithm NC's speed rule uses only observable data: the clairvoyant
// prefix run needs the volumes of jobs released before r_j, all of which
// FIFO has completed (and thereby revealed) by the time j runs.
SpeedPolicy nc_over_observables(double alpha) {
  return [alpha, kin = PowerLawKinematics(alpha)](const ObservableState& st) -> PolicyDecision {
    const JobId cur = fifo_pick(st);
    if (cur == kNoJob) return {};
    // Rebuild the revealed prefix: completed jobs' volumes are known.
    double cur_release = 0.0, cur_density = 1.0, cur_processed = 0.0;
    for (const auto& j : st.jobs) {
      if (j.id == cur) {
        cur_release = j.release;
        cur_density = j.density;
        cur_processed = j.processed;
      }
    }
    std::vector<Job> prefix;
    for (const auto& j : st.jobs) {
      if (j.id != cur && j.completed && j.release < cur_release + 1e-15) {
        prefix.push_back(Job{kNoJob, j.release, j.processed, j.density});
      }
    }
    double offset = 0.0;
    if (!prefix.empty()) {
      const Schedule c = run_algorithm_c(Instance(std::move(prefix)), alpha);
      offset = c_remaining_weight_left(c, cur_release);
    }
    const double u = offset + cur_density * cur_processed;
    // Bootstrap the growing branch when u is exactly 0 (cf. kinematics.h).
    return {cur, std::max(kin.speed_at_weight(u), 1e-4)};
  };
}

TEST(CustomPolicy, FixedSpeedFifoMatchesBuiltin) {
  const Instance inst = workload::generate({.n_jobs = 10, .arrival_rate = 1.0, .seed = 2});
  const double alpha = 2.0, speed = 1.3;
  const RunResult builtin = run_fixed_speed(inst, alpha, speed);
  const RunResult custom = run_custom_policy(inst, alpha, [&](const ObservableState& st) {
    return PolicyDecision{fifo_pick(st), speed};
  });
  EXPECT_NEAR(custom.metrics.fractional_objective(), builtin.metrics.fractional_objective(),
              1e-6 * builtin.metrics.fractional_objective());
  for (const Job& j : inst.jobs()) {
    EXPECT_NEAR(custom.schedule.completion(j.id), builtin.schedule.completion(j.id), 1e-6);
  }
}

TEST(CustomPolicy, AlgorithmNCExpressedOverObservables) {
  const Instance inst = workload::generate({.n_jobs = 10, .arrival_rate = 1.2, .seed = 7});
  const double alpha = 2.0;
  const SpeedPolicy nc_policy = nc_over_observables(alpha);

  CustomPolicyParams params;
  params.step_growth = 0.01;
  params.min_step = 1e-7;
  const RunResult custom = run_custom_policy(inst, alpha, nc_policy, params);
  const RunResult exact = run_nc_uniform(inst, alpha);
  EXPECT_NEAR(custom.metrics.fractional_objective(), exact.metrics.fractional_objective(),
              2e-2 * exact.metrics.fractional_objective());
  EXPECT_NEAR(custom.metrics.energy, exact.metrics.energy, 2e-2 * exact.metrics.energy);
}

TEST(CustomPolicy, ObservableStateHidesVolumes) {
  // Structural check: the observable state simply has no volume field; the
  // policy only learns a volume when processed == volume at completion.
  const Instance inst({Job{kNoJob, 0.0, 2.5, 1.0}});
  double revealed_at_completion = 0.0;
  (void)run_custom_policy(inst, 2.0, [&](const ObservableState& st) -> PolicyDecision {
    const auto& j = st.jobs.at(0);
    if (j.completed) revealed_at_completion = j.processed;
    return {j.completed ? kNoJob : j.id, 1.0};
  });
  EXPECT_DOUBLE_EQ(revealed_at_completion, 0.0);  // engine stops at completion
  // Run again, observing after completion via a second job.
  const Instance two({Job{kNoJob, 0.0, 2.5, 1.0}, Job{kNoJob, 10.0, 1.0, 1.0}});
  (void)run_custom_policy(two, 2.0, [&](const ObservableState& st) -> PolicyDecision {
    if (st.jobs.at(0).completed) revealed_at_completion = st.jobs.at(0).processed;
    return {fifo_pick(st), 1.0};
  });
  EXPECT_DOUBLE_EQ(revealed_at_completion, 2.5);
}

TEST(CustomPolicy, RejectsIllegalDecisions) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 5.0, 1.0, 1.0}});
  // Picking a job before its release.
  EXPECT_THROW(
      (void)run_custom_policy(inst, 2.0,
                              [](const ObservableState&) {
                                return PolicyDecision{1, 1.0};
                              }),
      ModelError);
  // Idling forever with work remaining.
  const Instance one({Job{kNoJob, 0.0, 1.0, 1.0}});
  EXPECT_THROW((void)run_custom_policy(one, 2.0,
                                       [](const ObservableState&) {
                                         return PolicyDecision{};
                                       }),
               ModelError);
}

TEST(CustomPolicy, ActiveCountHelper) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 2.0, 1.0}});
  std::size_t seen = 0;
  (void)run_custom_policy(inst, 2.0, [&](const ObservableState& st) {
    seen = std::max(seen, st.active_count());
    return PolicyDecision{fifo_pick(st), 2.0};
  });
  EXPECT_EQ(seen, 2u);
}

TEST(CustomPolicy, RejectsNonFiniteSpeed) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.5, 2.0, 1.0}});
  CustomPolicyParams params;
  params.max_steps = 100'000;
  for (const double bad : {kInf, -kInf, std::nan("")}) {
    // At the first decision: the engine throws on the first call.
    int calls = 0;
    EXPECT_THROW((void)run_custom_policy(inst, 2.0,
                                         [&](const ObservableState& st) {
                                           ++calls;
                                           return PolicyDecision{fifo_pick(st), bad};
                                         },
                                         params),
                 ModelError)
        << bad;
    EXPECT_EQ(calls, 1) << bad;
    // At the midpoint probe: the second call returns it.
    calls = 0;
    EXPECT_THROW((void)run_custom_policy(inst, 2.0,
                                         [&](const ObservableState& st) {
                                           return PolicyDecision{fifo_pick(st),
                                                                 ++calls == 2 ? bad : 1.0};
                                         },
                                         params),
                 ModelError)
        << bad;
    EXPECT_EQ(calls, 2) << bad;
  }
}

TEST(CustomPolicy, StepCapThrowsFromBothEntryPoints) {
  const Instance inst = workload::generate({.n_jobs = 6, .arrival_rate = 1.0, .seed = 3});
  const auto cap_message = [](const auto& run) {
    try {
      run();
    } catch (const ModelError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  CustomPolicyParams custom;
  custom.max_steps = 5;
  const std::string from_custom = cap_message([&] {
    (void)run_custom_policy(inst, 2.0, [](const ObservableState& st) {
      return PolicyDecision{fifo_pick(st), 1.0};
    }, custom);
  });
  NCNonUniformParams nc;
  nc.max_steps = 5;
  const std::string from_nc = cap_message([&] { (void)run_nc_nonuniform(inst, 2.0, nc); });
  EXPECT_NE(from_custom.find("max_steps"), std::string::npos) << from_custom;
  EXPECT_EQ(from_custom, from_nc);
  // The same runs finish under the default cap.
  EXPECT_NO_THROW((void)run_nc_nonuniform(inst, 2.0));
}

TEST(CustomPolicy, OnlineMatchesReplay) {
  const Instance inst = workload::generate({.n_jobs = 10, .arrival_rate = 1.2, .seed = 7});
  const double alpha = 2.0;
  const SpeedPolicy fixed_fifo = [](const ObservableState& st) {
    return PolicyDecision{fifo_pick(st), 1.3};
  };
  for (const SpeedPolicy& policy : {fixed_fifo, nc_over_observables(alpha)}) {
    const RunResult r = run_custom_policy(inst, alpha, policy);
    ASSERT_TRUE(r.online.has_value());
    std::string why;
    EXPECT_TRUE(engine::metrics_within_tolerance(*r.online, r.metrics,
                                                 engine::kOnlineVsReplayRelTol, &why))
        << why;
    EXPECT_GT(r.online->energy, 0.0);
    EXPECT_GT(r.online->integral_flow, 0.0);
  }
}

TEST(CustomPolicy, CountsStepsWithoutATraceSink) {
  obs::Tracer::instance().set_enabled(false);
  obs::registry().reset_all();
  obs::set_metrics_enabled(true);
  const Instance inst = workload::generate({.n_jobs = 8, .arrival_rate = 1.0, .seed = 4});
  const RunResult r = run_custom_policy(inst, 2.0, [](const ObservableState& st) {
    return PolicyDecision{fifo_pick(st), 1.0};
  });
  obs::Counter& steps = obs::registry().counter("sim.custom_policy.steps");
  // One segment per integrator step.
  EXPECT_EQ(steps.value(), static_cast<std::int64_t>(r.schedule.segments().size()));
  // Non-uniform NC runs on the same engine but counts only its own steps.
  const std::int64_t before = steps.value();
  const NCNonUniformRun nc = run_nc_nonuniform(inst, 2.0);
  EXPECT_EQ(steps.value(), before);
  EXPECT_EQ(obs::registry().counter("algo.nc_nonuniform.steps").value(), nc.steps);
  obs::registry().reset_all();
  obs::set_metrics_enabled(false);
}

}  // namespace
}  // namespace speedscale
