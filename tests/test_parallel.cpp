// Tests for identical parallel machines (paper Section 6: C-PAR, NC-PAR).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/bounds.h"
#include "src/algo/parallel.h"
#include "src/core/power.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

Instance uniform_instance(int n, std::uint64_t seed, double rate = 2.0) {
  return workload::generate({.n_jobs = n, .arrival_rate = rate, .seed = seed});
}

TEST(CPar, SingleMachineReducesToAlgorithmC) {
  const Instance inst = uniform_instance(14, 3);
  const double alpha = 2.0;
  const ParallelRun par = run_c_par(inst, alpha, 1);
  const RunResult c = run_c(inst, alpha);
  EXPECT_NEAR(par.metrics.fractional_objective(), c.metrics.fractional_objective(), 1e-9);
  for (const Job& j : inst.jobs()) {
    EXPECT_EQ(par.assignment[static_cast<std::size_t>(j.id)], 0);
  }
}

TEST(NCPar, SingleMachineReducesToAlgorithmNC) {
  const Instance inst = uniform_instance(14, 3);
  const double alpha = 2.0;
  const ParallelRun par = run_nc_par(inst, alpha, 1);
  const RunResult nc = run_nc_uniform(inst, alpha);
  EXPECT_NEAR(par.metrics.energy, nc.metrics.energy, 1e-9);
  EXPECT_NEAR(par.metrics.fractional_flow, nc.metrics.fractional_flow, 1e-9);
}

TEST(CPar, GreedyPicksLeastLoadedMachine) {
  // Two heavy jobs then a light one: the light job must go to a fresh machine.
  const Instance inst({Job{kNoJob, 0.0, 10.0, 1.0}, Job{kNoJob, 0.01, 10.0, 1.0},
                       Job{kNoJob, 0.02, 0.1, 1.0}});
  const ParallelRun par = run_c_par(inst, 2.0, 3);
  EXPECT_NE(par.assignment[0], par.assignment[1]);
  EXPECT_NE(par.assignment[2], par.assignment[0]);
  EXPECT_NE(par.assignment[2], par.assignment[1]);
}

class ParallelSweep : public ::testing::TestWithParam<std::tuple<double, int, int>> {};

// Lemma 20: the NC-PAR assignment equals the C-PAR assignment.
TEST_P(ParallelSweep, Lemma20AssignmentsCoincide) {
  const auto [alpha, k, seed] = GetParam();
  const Instance inst = uniform_instance(26, static_cast<std::uint64_t>(seed));
  const ParallelRun c = run_c_par(inst, alpha, k);
  const ParallelRun nc = run_nc_par(inst, alpha, k);
  for (const Job& j : inst.jobs()) {
    EXPECT_EQ(c.assignment[static_cast<std::size_t>(j.id)],
              nc.assignment[static_cast<std::size_t>(j.id)])
        << "job " << j.id;
  }
}

// Lemma 21: equal energy.  Lemma 22: flow ratio exactly 1/(1 - 1/alpha).
TEST_P(ParallelSweep, Lemma21And22ExactIdentities) {
  const auto [alpha, k, seed] = GetParam();
  const Instance inst = uniform_instance(26, static_cast<std::uint64_t>(seed));
  const ParallelRun c = run_c_par(inst, alpha, k);
  const ParallelRun nc = run_nc_par(inst, alpha, k);
  EXPECT_NEAR(nc.metrics.energy, c.metrics.energy, 1e-9 * std::max(1.0, c.metrics.energy));
  const double expect = c.metrics.fractional_flow * bounds::nc_over_c_flow(alpha);
  EXPECT_NEAR(nc.metrics.fractional_flow, expect, 1e-9 * std::max(1.0, expect));
}

INSTANTIATE_TEST_SUITE_P(Grid, ParallelSweep,
                         ::testing::Combine(::testing::Values(1.5, 2.0, 3.0),
                                            ::testing::Values(2, 3, 5),
                                            ::testing::Values(1, 2, 3)));

TEST(Parallel, MoreMachinesNeverHurt) {
  const Instance inst = uniform_instance(20, 9, 4.0);
  const double alpha = 2.0;
  double prev = kInf;
  for (int k : {1, 2, 4, 8}) {
    const double cost = run_nc_par(inst, alpha, k).metrics.fractional_objective();
    EXPECT_LE(cost, prev * (1.0 + 1e-9)) << "k=" << k;
    prev = cost;
  }
}

TEST(Parallel, SchedulesAreDisjointPerJob) {
  const Instance inst = uniform_instance(18, 21);
  const ParallelRun par = run_nc_par(inst, 2.0, 3);
  // No migration: each job appears on exactly its assigned machine.
  for (std::size_t mi = 0; mi < par.schedules.size(); ++mi) {
    for (const Segment& seg : par.schedules[mi].segments()) {
      ASSERT_NE(seg.job, kNoJob);
      EXPECT_EQ(par.assignment[static_cast<std::size_t>(seg.job)],
                static_cast<MachineId>(mi));
    }
  }
  // Every job completes exactly once across machines.
  std::size_t completed = 0;
  for (const Schedule& s : par.schedules) completed += s.completed_count();
  EXPECT_EQ(completed, inst.size());
}

TEST(Parallel, StartTimesRespectReleaseAndQueue) {
  const Instance inst = uniform_instance(18, 33, 6.0);  // bursty
  const ParallelRun par = run_nc_par(inst, 2.0, 2);
  for (const Job& j : inst.jobs()) {
    EXPECT_GE(par.start_times[static_cast<std::size_t>(j.id)], j.release - 1e-12);
  }
}

TEST(Parallel, TiedReleasesKeepLemma20AndIdentities) {
  // Several jobs released at identical instants: the tie conventions of
  // C-PAR (index order) and NC-PAR (cohort offsets) must stay aligned.
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 2.0, 1.0},
                       Job{kNoJob, 0.0, 0.5, 1.0}, Job{kNoJob, 1.0, 1.0, 1.0},
                       Job{kNoJob, 1.0, 0.7, 1.0}, Job{kNoJob, 2.5, 0.4, 1.0}});
  const double alpha = 2.0;
  const ParallelRun c = run_c_par(inst, alpha, 2);
  const ParallelRun nc = run_nc_par(inst, alpha, 2);
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(c.assignment[i], nc.assignment[i]) << "job " << i;
  }
  EXPECT_NEAR(nc.metrics.energy, c.metrics.energy, 1e-9 * std::max(1.0, c.metrics.energy));
  EXPECT_NEAR(nc.metrics.fractional_flow, 2.0 * c.metrics.fractional_flow,
              1e-9 * std::max(1.0, nc.metrics.fractional_flow));
}

TEST(Parallel, ZeroLengthJobKeepsItsMachineBusyAtItsRelease) {
  // At t = 1 a 1e-300 volume takes ~1e-150 of time, below ulp(1): NC-PAR
  // finishes job 0 at its own start.  Its machine still holds job 0's weight
  // in C-PAR's view, so job 1 goes to the idle machine 1; job 2 then finds
  // machine 0 free at t = 1 and machine 1 busy.
  const Instance inst({Job{kNoJob, 1.0, 1e-300, 1.0}, Job{kNoJob, 1.0, 1.0, 1.0},
                       Job{kNoJob, 1.0, 1.0, 1.0}});
  const ParallelRun c = run_c_par(inst, 2.0, 2);
  const ParallelRun nc = run_nc_par(inst, 2.0, 2);
  EXPECT_EQ(nc.assignment, (std::vector<MachineId>{0, 1, 0}));
  EXPECT_EQ(c.assignment, nc.assignment);
  EXPECT_EQ(nc.start_times, (std::vector<double>{1.0, 1.0, 1.0}));
}

// Lemma 20 at scale on completion/release near-ties: 4096-job instances
// (seed * 1000003 + index, as perfbench's batch workload draws them) at
// alpha = 1.5, where a machine holding ~1e-16 of weight must not count as
// tied with an idle one, and a drain time off by ~1e-6 flips an assignment.
TEST(Parallel, Lemma20HoldsOnBatchNearTies) {
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {1, 33}, {2, 21}, {2, 123}, {3, 15}, {4, 57}, {4, 87}, {4, 102},
      {6, 15}, {6, 42}, {7, 108}, {10, 66}, {10, 123}, {4242, 93}};
  const double alpha = 1.5;
  const int k = 4;
  for (const auto& [seed, index] : cases) {
    const Instance inst = workload::generate({.n_jobs = 4096, .seed = seed * 1000003ULL + index});
    const ParallelRun c = run_c_par(inst, alpha, k);
    const ParallelRun nc = run_nc_par(inst, alpha, k);
    std::size_t differing = 0;
    for (std::size_t j = 0; j < inst.size(); ++j) {
      differing += c.assignment[j] != nc.assignment[j] ? 1 : 0;
    }
    EXPECT_EQ(differing, 0u) << "seed " << seed << " instance " << index;
  }
}

TEST(Parallel, MoreMachinesThanJobs) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.2, 1.0, 1.0}});
  const ParallelRun nc = run_nc_par(inst, 2.0, 5);
  // Each job gets its own machine; no queueing.
  EXPECT_NE(nc.assignment[0], nc.assignment[1]);
  EXPECT_NEAR(nc.start_times[0], 0.0, 1e-12);
  EXPECT_NEAR(nc.start_times[1], 0.2, 1e-12);
}

TEST(Parallel, RejectsBadInputs) {
  const Instance uni = uniform_instance(4, 1);
  EXPECT_THROW(run_c_par(uni, 2.0, 0), ModelError);
  EXPECT_THROW(run_nc_par(uni, 2.0, 0), ModelError);
  const Instance mixed({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 1.0, 3.0}});
  EXPECT_THROW(run_nc_par(mixed, 2.0, 2), ModelError);
}

TEST(Parallel, CParHandlesNonUniformDensities) {
  // C-PAR is clairvoyant and supports arbitrary densities.
  const Instance mixed = workload::generate(
      {.n_jobs = 16, .density_mode = workload::DensityMode::kClasses, .seed = 6});
  const ParallelRun par = run_c_par(mixed, 2.5, 3);
  EXPECT_GT(par.metrics.fractional_objective(), 0.0);
  std::size_t completed = 0;
  for (const Schedule& s : par.schedules) completed += s.completed_count();
  EXPECT_EQ(completed, mixed.size());
}

/// The per-machine replay as parallel_metrics used to build it: a local
/// Instance per machine (ids renumbered in global id order) and a copied,
/// renumbered Schedule, each replayed by compute_metrics.  Kept as the oracle
/// for the in-place replay.
Metrics rebuilt_parallel_metrics(const Instance& instance, const std::vector<Schedule>& schedules,
                                 const std::vector<MachineId>& assignment, double alpha) {
  const PowerLaw power(alpha);
  Metrics total;
  for (std::size_t mi = 0; mi < schedules.size(); ++mi) {
    std::vector<Job> local_jobs;
    std::map<JobId, JobId> to_local;
    for (const Job& j : instance.jobs()) {
      if (assignment[static_cast<std::size_t>(j.id)] == static_cast<MachineId>(mi)) {
        to_local[j.id] = static_cast<JobId>(local_jobs.size());
        local_jobs.push_back(j);
      }
    }
    if (local_jobs.empty()) continue;
    const Instance local(std::move(local_jobs));
    Schedule local_sched(alpha);
    for (Segment seg : schedules[mi].segments()) {
      if (seg.job != kNoJob) seg.job = to_local.at(seg.job);
      local_sched.append(seg);
    }
    for (const auto& [gid, lid] : to_local) {
      local_sched.set_completion(lid, schedules[mi].completion(gid));
    }
    total = combine(total, compute_metrics(local, local_sched, power));
  }
  return total;
}

void expect_identical(const Metrics& got, const Metrics& want) {
  EXPECT_EQ(got.energy, want.energy);
  EXPECT_EQ(got.fractional_flow, want.fractional_flow);
  EXPECT_EQ(got.integral_flow, want.integral_flow);
}

void expect_matches_rebuilt(const Instance& inst, const ParallelRun& run, double alpha) {
  expect_identical(run.metrics,
                   rebuilt_parallel_metrics(inst, run.schedules, run.assignment, alpha));
}

// The in-place per-machine replay is bit for bit the rebuilt one: same
// release tie-breaks, same Kahan add order, same integral-flow sum order.
TEST(ParallelMetrics, InPlaceReplayEqualsRebuiltInstances) {
  // The reversed instance numbers jobs against release order, so FIFO order
  // and id order differ.
  std::vector<Job> reversed = uniform_instance(300, 4, 1.5).jobs();
  std::reverse(reversed.begin(), reversed.end());
  const std::vector<Instance> uniform = {
      uniform_instance(400, 2, 1.5), uniform_instance(400, 9, 1.5), Instance(std::move(reversed)),
      workload::batch_at_zero(40, workload::VolumeDist::kExponential, 1.0, 0.0, 5)};
  const Instance mixed = workload::generate(
      {.n_jobs = 300, .density_mode = workload::DensityMode::kClasses, .seed = 8});
  for (const double alpha : {1.5, 2.0, 3.0}) {
    for (const int k : {1, 3, 4}) {
      for (const Instance& inst : uniform) {
        expect_matches_rebuilt(inst, run_c_par(inst, alpha, k), alpha);
        expect_matches_rebuilt(inst, run_nc_par(inst, alpha, k), alpha);
      }
      expect_matches_rebuilt(mixed, run_c_par(mixed, alpha, k), alpha);
    }
  }
}

TEST(ParallelMetrics, EmptyMachineContributesNothing) {
  // Five machines, two jobs: three machines stay empty.
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.2, 2.0, 1.0}});
  for (const ParallelRun& run : {run_c_par(inst, 2.0, 5), run_nc_par(inst, 2.0, 5)}) {
    expect_matches_rebuilt(inst, run, 2.0);
  }
  // An explicit assignment that leaves machine 0 empty.
  const Instance two({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.5, 1.0, 1.0}});
  std::vector<Schedule> schedules(2, Schedule(2.0));
  schedules[1].append({0.0, 1.0, 0, SpeedLaw::kConstant, 1.0, 1.0});
  schedules[1].append({1.0, 2.0, 1, SpeedLaw::kConstant, 1.0, 1.0});
  schedules[1].set_completion(0, 1.0);
  schedules[1].set_completion(1, 2.0);
  const std::vector<MachineId> assignment{1, 1};
  expect_identical(parallel_metrics(two, schedules, assignment, 2.0),
                   rebuilt_parallel_metrics(two, schedules, assignment, 2.0));
}

TEST(ParallelMetrics, SegmentOfUnassignedJobThrows) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 1.0, 1.0}});
  std::vector<Schedule> schedules(2, Schedule(2.0));
  // Machine 0 is assigned job 0 but its schedule processes job 1.
  schedules[0].append({0.0, 1.0, 0, SpeedLaw::kConstant, 1.0, 1.0});
  schedules[0].append({1.0, 2.0, 1, SpeedLaw::kConstant, 1.0, 1.0});
  schedules[0].set_completion(0, 1.0);
  schedules[1].append({0.0, 1.0, 1, SpeedLaw::kConstant, 1.0, 1.0});
  schedules[1].set_completion(1, 1.0);
  EXPECT_THROW((void)parallel_metrics(inst, schedules, {0, 1}, 2.0), ModelError);
  // A segment naming a job outside the instance is not assigned here either.
  std::vector<Schedule> stray(1, Schedule(2.0));
  stray[0].append({0.0, 1.0, 7, SpeedLaw::kConstant, 1.0, 1.0});
  EXPECT_THROW((void)parallel_metrics(inst, stray, {0, 0}, 2.0), ModelError);
}

}  // namespace
}  // namespace speedscale
