// Streaming engine (src/engine/): SoA arena recycling, pull-based job
// sources (trace / synthetic / instance), the O(1) virtual-C offset tracker
// against an oracle built on a materialised C run (ties included),
// bounded-memory recording (ring, ring+spill round-trip), the
// online-vs-replayed metrics contract (engine::kOnlineVsReplayRelTol) across
// the exact simulators, and the engine and the batch run_nc_uniform_detailed
// built on it against a long double reference on an edge grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_nonuniform.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/parallel.h"
#include "src/core/kinematics.h"
#include "src/core/power.h"
#include "src/engine/job_arena.h"
#include "src/engine/job_source.h"
#include "src/engine/online_metrics.h"
#include "src/engine/segment_recorder.h"
#include "src/engine/stream_engine.h"
#include "src/sim/c_machine.h"
#include "src/workload/generators.h"
#include "src/workload/trace_io.h"
#include "tests/nc_reference_long_double.h"

namespace speedscale {
namespace {

using engine::InstanceJobSource;
using engine::JobArena;
using engine::RecordMode;
using engine::SegmentRecorder;
using engine::StreamEngine;
using engine::StreamOptions;
using engine::StreamResult;
using engine::SyntheticJobSource;
using engine::TraceJobSource;

Instance uniform_instance(int n, std::uint64_t seed, double rate = 1.2) {
  return workload::generate({.n_jobs = n, .arrival_rate = rate, .seed = seed});
}

// --- JobArena ---------------------------------------------------------------

TEST(JobArena, RecyclesRetiredSlotsAndTracksHighWater) {
  JobArena arena;
  const JobArena::Slot a = arena.admit(0, 0.0, 1.0, 1.0);
  const JobArena::Slot b = arena.admit(1, 0.5, 2.0, 1.0);
  EXPECT_EQ(arena.live(), 2u);
  EXPECT_EQ(arena.high_water(), 2u);
  EXPECT_DOUBLE_EQ(arena.weight(b), 2.0);

  arena.retire(a);
  EXPECT_EQ(arena.live(), 1u);
  const JobArena::Slot c = arena.admit(2, 1.0, 3.0, 1.0);
  EXPECT_EQ(c, a) << "freed slot must be reused before the arrays grow";
  EXPECT_EQ(arena.capacity(), 2u);
  EXPECT_EQ(arena.high_water(), 2u);
  EXPECT_EQ(arena.id(c), 2);
  EXPECT_DOUBLE_EQ(arena.release(c), 1.0);
  EXPECT_EQ(arena.admitted(), 3u);
  EXPECT_EQ(arena.retired(), 1u);
}

TEST(JobArena, DeadSlotAccessThrows) {
  JobArena arena;
  const JobArena::Slot a = arena.admit(0, 0.0, 1.0, 1.0);
  arena.retire(a);
  EXPECT_THROW(arena.retire(a), ModelError);
  EXPECT_THROW((void)arena.volume(a), ModelError);
  EXPECT_THROW((void)arena.remaining(JobArena::Slot{99}), ModelError);
}

TEST(JobArena, RemainingIsMutable) {
  JobArena arena;
  const JobArena::Slot a = arena.admit(7, 0.0, 4.0, 0.5);
  EXPECT_DOUBLE_EQ(arena.remaining(a), 4.0);
  arena.set_remaining(a, 1.5);
  EXPECT_DOUBLE_EQ(arena.remaining(a), 1.5);
  EXPECT_DOUBLE_EQ(arena.volume(a), 4.0) << "volume is the original size";
}

// --- SyntheticJobSource -----------------------------------------------------

TEST(SyntheticJobSource, DeterministicSeededStream) {
  const SyntheticJobSource::Params params{
      .n_jobs = 500, .arrival_rate = 2.0, .volume_mean = 1.0, .density = 1.0, .seed = 42};
  SyntheticJobSource s1(params);
  SyntheticJobSource s2(params);
  Job a, b;
  double last_release = -1.0;
  std::uint64_t n = 0;
  while (s1.next(&a)) {
    ASSERT_TRUE(s2.next(&b));
    EXPECT_EQ(a.id, b.id);
    EXPECT_DOUBLE_EQ(a.release, b.release);
    EXPECT_DOUBLE_EQ(a.volume, b.volume);
    EXPECT_GE(a.release, last_release);
    EXPECT_GT(a.volume, 0.0);
    EXPECT_DOUBLE_EQ(a.density, 1.0);
    last_release = a.release;
    ++n;
  }
  EXPECT_FALSE(s2.next(&b));
  EXPECT_EQ(n, params.n_jobs);
}

TEST(SyntheticJobSource, RejectsNonPositiveParams) {
  EXPECT_THROW(SyntheticJobSource({.n_jobs = 1, .arrival_rate = 0.0}), ModelError);
  EXPECT_THROW(SyntheticJobSource({.n_jobs = 1, .volume_mean = -1.0}), ModelError);
  EXPECT_THROW(SyntheticJobSource({.n_jobs = 1, .density = 0.0}), ModelError);
}

// --- Streaming engine vs a virtual-C-schedule oracle ------------------------

/// Algorithm NC as the paper states it, sharing none of the engine's
/// arithmetic: offsets are left limits of a materialised Algorithm C run,
/// plus the weights of the tied jobs ahead in FIFO order (ties are the limit
/// of infinitesimally separated releases, so the left limit excludes the
/// whole cohort), and segments come from the plain closed forms.
struct OracleRun {
  Schedule schedule;
  Metrics metrics;
};

OracleRun nc_uniform_via_c_schedule(const Instance& inst, double alpha) {
  const Schedule c = run_algorithm_c(inst, alpha);
  const PowerLawKinematics kin(alpha);
  OracleRun out{Schedule(alpha), Metrics{}};
  const std::vector<JobId> fifo = inst.fifo_order();
  double t = 0.0;
  for (std::size_t pos = 0; pos < fifo.size(); ++pos) {
    const Job& job = inst.job(fifo[pos]);
    double u0 = c_remaining_weight_left(c, job.release);
    for (std::size_t q = pos; q-- > 0 && inst.job(fifo[q]).release == job.release;) {
      u0 += inst.job(fifo[q]).weight();
    }
    const double u1 = u0 + job.weight();
    const double start = std::max(t, job.release);
    const double dt = kin.grow_time_to_weight(u0, u1, job.density);
    const double e_j = kin.grow_integral(u0, u1, job.density);
    t = start + dt;
    out.schedule.append({start, t, job.id, SpeedLaw::kPowerGrow, u0, job.density});
    out.schedule.set_completion(job.id, t);
    out.metrics.energy += e_j;
    out.metrics.fractional_flow += job.weight() * (start - job.release) + u1 * dt - e_j;
    out.metrics.integral_flow += job.weight() * (t - job.release);
  }
  return out;
}

// The engine's W^b tracker and the oracle's materialised C run reach the
// same offsets by different arithmetic, so the equivalence holds to a
// tolerance, checked from alpha near 1 (b = 1 - 1/alpha near 0, where the
// round trip through W^b loses the most) to alpha = 8.
constexpr double kEquivalenceAlphas[] = {1.01, 1.5, 2.0, 2.5, 3.0, 8.0};

TEST(StreamEngine, MatchesVirtualCScheduleOracle) {
  const Instance inst = uniform_instance(120, 3);
  for (const double alpha : kEquivalenceAlphas) {
    SCOPED_TRACE("alpha " + std::to_string(alpha));
    const OracleRun exact = nc_uniform_via_c_schedule(inst, alpha);

    StreamOptions options;
    options.alpha = alpha;
    options.recorder.mode = RecordMode::kRing;
    options.recorder.ring_capacity = 1 << 10;  // whole run fits: no drops
    StreamEngine eng(options);
    InstanceJobSource source(inst);
    const StreamResult res = eng.run(source);

    ASSERT_EQ(res.jobs, inst.size());
    EXPECT_EQ(res.segments_dropped, 0u);
    const Schedule streamed = eng.recorder().to_schedule();
    ASSERT_EQ(streamed.segments().size(), exact.schedule.segments().size());
    for (std::size_t i = 0; i < streamed.segments().size(); ++i) {
      const Segment& s = streamed.segments()[i];
      const Segment& e = exact.schedule.segments()[i];
      EXPECT_EQ(s.job, e.job);
      EXPECT_NEAR(s.t0, e.t0, 1e-9 * std::max(1.0, std::abs(e.t0)));
      EXPECT_NEAR(s.t1, e.t1, 1e-9 * std::max(1.0, std::abs(e.t1)));
      EXPECT_NEAR(s.param, e.param, 1e-9 * std::max(1.0, std::abs(e.param)));
    }
    for (const Job& j : inst.jobs()) {
      EXPECT_NEAR(streamed.completion(j.id), exact.schedule.completion(j.id),
                  1e-9 * std::max(1.0, exact.schedule.completion(j.id)));
    }
    EXPECT_NEAR(res.online.energy, exact.metrics.energy, 1e-9 * exact.metrics.energy);
    EXPECT_NEAR(res.online.fractional_flow, exact.metrics.fractional_flow,
                1e-9 * exact.metrics.fractional_flow);
    EXPECT_NEAR(res.online.integral_flow, exact.metrics.integral_flow,
                1e-9 * exact.metrics.integral_flow);
  }
}

TEST(StreamEngine, TiedReleasesMatchAddBackCohortRule) {
  // Three jobs released together, then two more together: the sequential
  // virtual-C tracker must reproduce the oracle's add-back-cohort left
  // limits.
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 0.5, 1.0},
                       Job{kNoJob, 0.0, 2.0, 1.0}, Job{kNoJob, 1.5, 1.0, 1.0},
                       Job{kNoJob, 1.5, 0.25, 1.0}});
  for (const double alpha : kEquivalenceAlphas) {
    SCOPED_TRACE("alpha " + std::to_string(alpha));
    const OracleRun exact = nc_uniform_via_c_schedule(inst, alpha);

    StreamOptions options;
    options.alpha = alpha;
    StreamEngine eng(options);
    InstanceJobSource source(inst);
    const StreamResult res = eng.run(source);
    const Schedule streamed = eng.recorder().to_schedule();
    for (const Job& j : inst.jobs()) {
      EXPECT_NEAR(streamed.completion(j.id), exact.schedule.completion(j.id),
                  1e-9 * std::max(1.0, exact.schedule.completion(j.id)))
          << "job " << j.id;
    }
    EXPECT_NEAR(res.online.energy, exact.metrics.energy, 1e-9 * exact.metrics.energy);
  }
}

// --- Streaming engine vs the long double reference -------------------------

/// Edge instances for the extended-precision check, all of density 1.
Instance edge_instance(const std::string& kind) {
  std::mt19937_64 rng(7);
  std::exponential_distribution<double> gap(1.0);
  std::vector<Job> jobs;
  double t = 0.0;
  if (kind == "ties") {  // cohorts of 1..5 tied releases
    std::uniform_int_distribution<int> cohort(1, 5);
    while (jobs.size() < 3000) {
      t += gap(rng);
      for (int c = cohort(rng); c > 0; --c) jobs.push_back({kNoJob, t, gap(rng), 1.0});
    }
  } else if (kind == "volumes") {  // log-uniform over 1e-9..1e9
    std::uniform_real_distribution<double> exponent(-9.0, 9.0);
    for (int i = 0; i < 3000; ++i) {
      t += gap(rng);
      jobs.push_back({kNoJob, t, std::pow(10.0, exponent(rng)), 1.0});
    }
  } else {  // "horizon": 100k releases reaching t ~ 1e7
    for (int i = 0; i < 100'000; ++i) {
      t += 100.0 * gap(rng);
      jobs.push_back({kNoJob, t, 1000.0 * gap(rng), 1.0});
    }
  }
  return Instance(std::move(jobs));
}

double rel_error(double got, long double want) {
  return static_cast<double>(std::fabs((static_cast<long double>(got) - want) / want));
}

TEST(StreamEngine, MatchesLongDoubleReferenceOnEdgeGrid) {
  // One relative bound on the online metrics, the makespan and the Lemma 3/4
  // residual.  The largest error is alpha = 8 on the long horizon (about
  // 3e-11): the tracker's offsets drift against the reference over the deep
  // backlog.  The alpha = 1.01 horizon is the case a tracker holding W
  // instead of W^b fails (flows off by ~4e-7): near a drained C its
  // u0 = (W^b)^{101} underflows and u0^b is lost.
  constexpr double kRelBound = 1e-10;
  for (const std::string kind : {"ties", "volumes", "horizon"}) {
    const Instance inst = edge_instance(kind);
    for (const double alpha : {1.01, 1.5, 3.0, 8.0}) {
      SCOPED_TRACE(kind + " alpha " + std::to_string(alpha));
      StreamOptions options;
      options.alpha = alpha;
      options.recorder.ring_capacity = 1 << 17;  // every segment of the run
      StreamEngine eng(options);
      InstanceJobSource source(inst);
      const StreamResult res = eng.run(source);
      const testing_ref::LongDoubleNcRun ref =
          testing_ref::nc_uniform_long_double(inst, alpha);
      ASSERT_EQ(res.jobs, inst.size());
      ASSERT_EQ(res.segments_dropped, 0u);
      // A job far below the backlog's rounding (volumes) must still get a
      // segment that does not end before it starts.
      std::size_t backwards = 0;
      for (const engine::RecordedSegment& r : eng.recorder().ring_snapshot()) {
        backwards += r.seg.t1 < r.seg.t0 ? 1 : 0;
      }
      EXPECT_EQ(backwards, 0u);
      const double e = rel_error(res.online.energy, ref.energy);
      const double ff = rel_error(res.online.fractional_flow, ref.fractional_flow);
      const double fi = rel_error(res.online.integral_flow, ref.integral_flow);
      const double mk = rel_error(res.makespan, ref.makespan);
      // Lemmas 3/4: E_NC = (1 - 1/alpha) F_NC, an identity of the run itself.
      const double lemma = std::abs(res.online.energy -
                                    (1.0 - 1.0 / alpha) * res.online.fractional_flow) /
                           res.online.energy;
      EXPECT_LE(e, kRelBound);
      EXPECT_LE(ff, kRelBound);
      EXPECT_LE(fi, kRelBound);
      EXPECT_LE(mk, kRelBound);
      EXPECT_LE(lemma, kRelBound);
      std::printf("  long double ref %-7s alpha=%-4g energy %.2e  frac_flow %.2e  "
                  "int_flow %.2e  makespan %.2e  lemma3_4 %.2e\n",
                  kind.c_str(), alpha, e, ff, fi, mk, lemma);
    }
  }
}

TEST(NCUniformBatch, MatchesLongDoubleReferenceOnEdgeGrid) {
  // The batch path is the engine plus a ring of n segments, so it meets the
  // engine's bound on its online metrics, makespan and starts, and on every
  // offset relative to the top of the job's weight band (u0 + w_j): an
  // offset that underflows near a drained C is off by ~1 relative to itself
  // but not to the band the job sweeps.  The replay of its schedule meets
  // the same bound on energy and integral flow.  Its fractional flow drifted
  // on the long horizon (2.9e-6 at alpha = 1.01, 1.1e-6 at 1.5) while the
  // replay let finished jobs' rounding leftovers charge flow; it is held
  // to kReplayHorizonBound; a segment whose u0 lost u0^b (grown from 0 over
  // the exact u0^b's time) leaves weight unprocessed, which the replay
  // rejects with ModelError (its fractional flow read 0.31 at alpha = 1.01
  // before it checked).
  constexpr double kRelBound = 1e-10;
  constexpr double kReplayHorizonBound = 1e-10;
  for (const std::string kind : {"ties", "volumes", "horizon"}) {
    const Instance inst = edge_instance(kind);
    for (const double alpha : {1.01, 1.5, 3.0, 8.0}) {
      SCOPED_TRACE(kind + " alpha " + std::to_string(alpha));
      const NCUniformRun run = run_nc_uniform_detailed(inst, alpha);
      const testing_ref::LongDoubleNcRun ref =
          testing_ref::nc_uniform_long_double(inst, alpha);
      ASSERT_TRUE(run.result.online.has_value());
      const Metrics& on = *run.result.online;
      const Metrics& rep = run.result.metrics;
      const double e = rel_error(on.energy, ref.energy);
      const double ff = rel_error(on.fractional_flow, ref.fractional_flow);
      const double fi = rel_error(on.integral_flow, ref.integral_flow);
      const double mk = rel_error(run.result.schedule.makespan(), ref.makespan);
      const double re = rel_error(rep.energy, ref.energy);
      const double rff = rel_error(rep.fractional_flow, ref.fractional_flow);
      const double rfi = rel_error(rep.integral_flow, ref.integral_flow);
      double off = 0.0;
      double st = 0.0;
      for (const Job& j : inst.jobs()) {
        const auto i = static_cast<std::size_t>(j.id);
        const long double u0 = ref.offsets[i];
        off = std::max(off, static_cast<double>(std::fabs(run.offsets[i] - u0) /
                                                (u0 + j.weight())));
        st = std::max(st, rel_error(run.starts[i], ref.starts[i]));
      }
      EXPECT_LE(e, kRelBound);
      EXPECT_LE(ff, kRelBound);
      EXPECT_LE(fi, kRelBound);
      EXPECT_LE(mk, kRelBound);
      EXPECT_LE(off, kRelBound);
      EXPECT_LE(st, kRelBound);
      EXPECT_LE(re, kRelBound);
      EXPECT_LE(rfi, kRelBound);
      EXPECT_LE(rff, kind == "horizon" ? kReplayHorizonBound : kRelBound);
      std::printf("  long double ref (batch) %-7s alpha=%-4g energy %.2e  frac_flow %.2e  "
                  "int_flow %.2e  makespan %.2e  offsets %.2e  starts %.2e  | replay "
                  "energy %.2e  frac_flow %.2e  int_flow %.2e\n",
                  kind.c_str(), alpha, e, ff, fi, mk, off, st, re, rff, rfi);
    }
  }
}

TEST(NCPar, MatchesLongDoubleReferenceOnEdgeGrid) {
  // NC-PAR runs Algorithm NC on each machine over the jobs the queue sends
  // there, so the reference run on each part of the run's own assignment is
  // its reference.  It is held to the NC batch path's bound on the online
  // metrics, the replayed metrics, the makespan, the starts and the offsets
  // (read off each job's segment, relative to u0 + w_j; a job whose segment
  // took no time has none in the Schedule and is skipped).
  constexpr double kRelBound = 1e-10;
  for (const std::string kind : {"ties", "volumes", "horizon"}) {
    const Instance inst = edge_instance(kind);
    for (const int k : {2, 4}) {
      for (const double alpha : {1.01, 1.5, 3.0, 8.0}) {
        SCOPED_TRACE(kind + " k " + std::to_string(k) + " alpha " + std::to_string(alpha));
        const ParallelRun run = run_nc_par(inst, alpha, k);
        std::vector<std::vector<Job>> parts(static_cast<std::size_t>(k));
        std::vector<std::vector<JobId>> global_ids(static_cast<std::size_t>(k));
        for (const JobId id : inst.fifo_order()) {
          const auto m = static_cast<std::size_t>(run.assignment[static_cast<std::size_t>(id)]);
          parts[m].push_back(inst.job(id));
          global_ids[m].push_back(id);
        }
        long double energy = 0.0L, frac = 0.0L, integral = 0.0L, makespan = 0.0L;
        std::vector<long double> offsets(inst.size()), starts(inst.size());
        for (std::size_t m = 0; m < parts.size(); ++m) {
          if (parts[m].empty()) continue;
          const testing_ref::LongDoubleNcRun ref =
              testing_ref::nc_uniform_long_double(Instance(parts[m]), alpha);
          energy += ref.energy;
          frac += ref.fractional_flow;
          integral += ref.integral_flow;
          makespan = std::max(makespan, ref.makespan);
          for (std::size_t i = 0; i < global_ids[m].size(); ++i) {
            offsets[static_cast<std::size_t>(global_ids[m][i])] = ref.offsets[i];
            starts[static_cast<std::size_t>(global_ids[m][i])] = ref.starts[i];
          }
        }
        ASSERT_TRUE(run.online.has_value());
        double run_makespan = 0.0;
        double off = 0.0;
        for (const Schedule& sched : run.schedules) {
          run_makespan = std::max(run_makespan, sched.makespan());
          for (const Segment& seg : sched.segments()) {
            const auto j = static_cast<std::size_t>(seg.job);
            off = std::max(off, static_cast<double>(std::fabs(seg.param - offsets[j]) /
                                                    (offsets[j] + inst.job(seg.job).weight())));
          }
        }
        double st = 0.0;
        for (std::size_t j = 0; j < inst.size(); ++j) {
          st = std::max(st, rel_error(run.start_times[j], starts[j]));
        }
        const double e = rel_error(run.online->energy, energy);
        const double ff = rel_error(run.online->fractional_flow, frac);
        const double fi = rel_error(run.online->integral_flow, integral);
        const double mk = rel_error(run_makespan, makespan);
        const double re = rel_error(run.metrics.energy, energy);
        const double rff = rel_error(run.metrics.fractional_flow, frac);
        const double rfi = rel_error(run.metrics.integral_flow, integral);
        EXPECT_LE(e, kRelBound);
        EXPECT_LE(ff, kRelBound);
        EXPECT_LE(fi, kRelBound);
        EXPECT_LE(mk, kRelBound);
        EXPECT_LE(off, kRelBound);
        EXPECT_LE(st, kRelBound);
        EXPECT_LE(re, kRelBound);
        EXPECT_LE(rff, kRelBound);
        EXPECT_LE(rfi, kRelBound);
        std::printf("  long double ref (ncpar) %-7s k=%d alpha=%-4g energy %.2e  frac_flow %.2e  "
                    "int_flow %.2e  makespan %.2e  offsets %.2e  starts %.2e  | replay "
                    "energy %.2e  frac_flow %.2e  int_flow %.2e\n",
                    kind.c_str(), k, alpha, e, ff, fi, mk, off, st, re, rff, rfi);
      }
    }
  }
}

TEST(AlgorithmC, MatchesLongDoubleReferenceOnEdgeGrid) {
  // The lemmas make the NC reference an oracle for C as well: C and NC
  // spend the same energy (Lemma 3), and C's fractional flow, which is its
  // energy under P = W, is (1 - 1/alpha) times NC's (Lemma 4).  Both the
  // replay of C's schedule and CMachine's online accumulators are held to
  // it, so this gates the C kernel's W^b arithmetic.  Before the replay
  // zeroed finished jobs, its fractional flow on the horizon at
  // alpha = 1.01 was 6e-5 off.
  constexpr double kRelBound = 1e-10;
  for (const std::string kind : {"ties", "volumes", "horizon"}) {
    const Instance inst = edge_instance(kind);
    for (const double alpha : {1.01, 1.5, 3.0, 8.0}) {
      SCOPED_TRACE(kind + " alpha " + std::to_string(alpha));
      const RunResult run = run_c(inst, alpha);
      const testing_ref::LongDoubleNcRun ref =
          testing_ref::nc_uniform_long_double(inst, alpha);
      ASSERT_TRUE(run.online.has_value());
      const long double c_flow = (1.0L - 1.0L / static_cast<long double>(alpha)) *
                                 ref.fractional_flow;
      const double re = rel_error(run.metrics.energy, ref.energy);
      const double rff = rel_error(run.metrics.fractional_flow, c_flow);
      const double oe = rel_error(run.online->energy, ref.energy);
      const double off = rel_error(run.online->fractional_flow, c_flow);
      EXPECT_LE(re, kRelBound);
      EXPECT_LE(rff, kRelBound);
      EXPECT_LE(oe, kRelBound);
      EXPECT_LE(off, kRelBound);
      std::printf("  long double ref (C) %-7s alpha=%-4g replay energy %.2e  frac_flow %.2e  "
                  "| online energy %.2e  frac_flow %.2e\n",
                  kind.c_str(), alpha, re, rff, oe, off);
    }
  }
}

TEST(StreamEngine, OnlineMatchesReplayedRingSchedule) {
  const double alpha = 2.0;
  const Instance inst = uniform_instance(200, 17);
  StreamOptions options;
  options.alpha = alpha;
  options.recorder.ring_capacity = 1 << 10;
  StreamEngine eng(options);
  InstanceJobSource source(inst);
  const StreamResult res = eng.run(source);

  const Metrics replayed =
      compute_metrics(inst, eng.recorder().to_schedule(), PowerLaw(alpha));
  std::string why;
  EXPECT_TRUE(engine::metrics_within_tolerance(res.online, replayed,
                                               engine::kOnlineVsReplayRelTol, &why))
      << why;
}

TEST(StreamEngine, RoundRobinMachinesMatchPerPartitionRuns) {
  // k machines, round-robin or least-count dispatch: each machine runs an
  // independent NC instance, so the engine must equal the sum of
  // per-partition exact runs.
  const double alpha = 2.0;
  const int k = 3;
  const Instance inst = uniform_instance(90, 23);

  std::vector<std::vector<Job>> parts(static_cast<std::size_t>(k));
  const std::vector<JobId> fifo = inst.fifo_order();
  for (std::size_t i = 0; i < fifo.size(); ++i) {
    Job j = inst.job(fifo[i]);
    j.id = kNoJob;  // per-partition instances renumber
    parts[i % static_cast<std::size_t>(k)].push_back(j);
  }
  Metrics want;
  double want_makespan = 0.0;
  for (auto& part : parts) {
    const Instance pinst(std::move(part));
    const RunResult r = run_nc_uniform(pinst, alpha);
    want.energy += r.metrics.energy;
    want.fractional_flow += r.metrics.fractional_flow;
    want.integral_flow += r.metrics.integral_flow;
    for (const Job& j : pinst.jobs()) {
      want_makespan = std::max(want_makespan, r.schedule.completion(j.id));
    }
  }

  // On a stream least count sends job i to machine i mod k as well, so the
  // two rules give the same run, bit for bit.
  std::vector<StreamResult> results;
  for (const DispatchPolicy policy : {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastCount}) {
    StreamOptions options;
    options.alpha = alpha;
    options.machines = k;
    options.dispatch = policy;
    StreamEngine eng(options);
    InstanceJobSource source(inst);
    const StreamResult res = eng.run(source);
    EXPECT_EQ(res.jobs, inst.size());
    EXPECT_NEAR(res.online.energy, want.energy, 1e-9 * want.energy);
    EXPECT_NEAR(res.online.fractional_flow, want.fractional_flow,
                1e-9 * want.fractional_flow);
    EXPECT_NEAR(res.online.integral_flow, want.integral_flow, 1e-9 * want.integral_flow);
    EXPECT_NEAR(res.makespan, want_makespan, 1e-9 * std::max(1.0, want_makespan));
    results.push_back(res);
  }
  const StreamResult& rr = results[0];
  const StreamResult& lc = results[1];
  EXPECT_EQ(lc.online.energy, rr.online.energy);
  EXPECT_EQ(lc.online.fractional_flow, rr.online.fractional_flow);
  EXPECT_EQ(lc.online.integral_flow, rr.online.integral_flow);
  EXPECT_EQ(lc.jobs, rr.jobs);
  EXPECT_EQ(lc.makespan, rr.makespan);
  EXPECT_EQ(lc.arena_high_water, rr.arena_high_water);
  EXPECT_EQ(lc.arena_capacity, rr.arena_capacity);
  EXPECT_EQ(lc.segments_recorded, rr.segments_recorded);
  EXPECT_EQ(lc.segments_dropped, rr.segments_dropped);
  EXPECT_EQ(lc.spill_lines, rr.spill_lines);
  EXPECT_EQ(lc.pow_calls, rr.pow_calls);
}

TEST(StreamEngine, RejectsBadConfigurationsAndInputs) {
  {
    StreamOptions bad;
    bad.alpha = 1.0;
    EXPECT_THROW(StreamEngine{bad}, ModelError);
  }
  {
    StreamOptions bad;
    bad.machines = 0;
    EXPECT_THROW(StreamEngine{bad}, ModelError);
  }
  {
    StreamOptions bad;
    bad.machines = 2;
    bad.dispatch = DispatchPolicy::kFirstFit;
    EXPECT_THROW(StreamEngine{bad}, ModelError);
  }

  {  // non-uniform density stream
    const Instance mixed({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 1.0, 1.0, 2.0}});
    StreamEngine eng(StreamOptions{});
    InstanceJobSource source(mixed);
    EXPECT_THROW(eng.run(source), ModelError);
  }
  {  // one run per engine; recorder only after a run
    StreamEngine eng(StreamOptions{});
    EXPECT_THROW((void)eng.recorder(), ModelError);
    const Instance inst = uniform_instance(4, 1);
    InstanceJobSource source(inst);
    (void)eng.run(source);
    InstanceJobSource again(inst);
    EXPECT_THROW(eng.run(again), ModelError);
  }
}

TEST(StreamEngine, ArenaStaysAtBacklogScaleNotJobCount) {
  // 50k jobs stream through; the arena must plateau at the backlog (NC's
  // speed grows with the backlog, so the queue stays small) instead of
  // scaling with the total job count.
  SyntheticJobSource source({.n_jobs = 50'000, .arrival_rate = 2.0, .seed = 9});
  StreamOptions options;
  options.recorder.mode = RecordMode::kOff;
  StreamEngine eng(options);
  const StreamResult res = eng.run(source);
  EXPECT_EQ(res.jobs, 50'000u);
  EXPECT_EQ(res.segments_recorded, 0u);
  EXPECT_LT(res.arena_capacity, 2'000u)
      << "arena grew with the stream, not the backlog";
  EXPECT_EQ(res.arena_high_water, res.arena_capacity)
      << "slots are allocated only when the free list is empty";
  EXPECT_TRUE(std::isfinite(res.online.energy));
  EXPECT_GT(res.online.energy, 0.0);
}

// --- SegmentRecorder --------------------------------------------------------

Segment make_segment(int i) {
  const double t = static_cast<double>(i);
  return Segment{t, t + 1.0, static_cast<JobId>(i), SpeedLaw::kPowerGrow, 0.0, 1.0};
}

TEST(SegmentRecorder, RingKeepsNewestAndCountsDropped) {
  engine::RecorderOptions opts;
  opts.mode = RecordMode::kRing;
  opts.ring_capacity = 4;
  SegmentRecorder rec(2.0, opts);
  for (int i = 0; i < 10; ++i) rec.push(make_segment(i), 0, true);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const std::vector<engine::RecordedSegment> ring = rec.ring_snapshot();
  ASSERT_EQ(ring.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ring[static_cast<std::size_t>(i)].seg.job, 6 + i) << "oldest-first";
  }
  EXPECT_THROW((void)rec.to_schedule(), ModelError)
      << "a ring with drops is not the whole run";
}

TEST(SegmentRecorder, OffModeRecordsNothing) {
  engine::RecorderOptions opts;
  opts.mode = RecordMode::kOff;
  SegmentRecorder rec(2.0, opts);
  for (int i = 0; i < 5; ++i) rec.push(make_segment(i), 0, true);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_TRUE(rec.ring_snapshot().empty());
}

TEST(SegmentRecorder, SpillRoundTripRebuildsTheSchedule) {
  const double alpha = 2.0;
  const Instance inst = uniform_instance(150, 29);
  const std::string path = ::testing::TempDir() + "engine_stream_spill.jsonl";

  StreamOptions options;
  options.alpha = alpha;
  options.recorder.mode = RecordMode::kRingSpill;
  options.recorder.ring_capacity = 16;  // force drops: the spill is the record
  options.recorder.spill_path = path;
  StreamEngine eng(options);
  InstanceJobSource source(inst);
  const StreamResult res = eng.run(source);
  EXPECT_GT(res.segments_dropped, 0u);
  EXPECT_EQ(res.spill_lines, res.segments_recorded + 1) << "header + one per segment";

  const Schedule spilled = engine::read_spilled_schedule(path);
  ASSERT_EQ(spilled.segments().size(), inst.size());
  const Metrics replayed = compute_metrics(inst, spilled, PowerLaw(alpha));
  std::string why;
  EXPECT_TRUE(engine::metrics_within_tolerance(res.online, replayed,
                                               engine::kOnlineVsReplayRelTol, &why))
      << why;
  std::remove(path.c_str());
}

TEST(SegmentRecorder, SpilledScheduleRejectsTornTailAndBadSchema) {
  const std::string path = ::testing::TempDir() + "engine_stream_bad_spill.jsonl";
  {
    std::ofstream f(path);
    f << "{\"schema\":\"speedscale.segments/1\",\"alpha\":2}\n";
    f << engine::segment_json_line({make_segment(0), 0, true}) << '\n';
    f << "{\"t0\":1,\"t1\":2,";  // torn mid-object, no newline
  }
  EXPECT_THROW((void)engine::read_spilled_schedule(path), ModelError);
  {
    std::ofstream f(path);
    f << "{\"schema\":\"speedscale.wrong/9\",\"alpha\":2}\n";
  }
  EXPECT_THROW((void)engine::read_spilled_schedule(path), ModelError);
  std::remove(path.c_str());
}

// --- Online-vs-replayed contract across the exact simulators ----------------

TEST(OnlineContract, NcUniformOnlineWithinTolerance) {
  const Instance inst = uniform_instance(64, 5);
  const RunResult r = run_nc_uniform(inst, 2.0);
  ASSERT_TRUE(r.online.has_value());
  std::string why;
  EXPECT_TRUE(engine::metrics_within_tolerance(*r.online, r.metrics,
                                               engine::kOnlineVsReplayRelTol, &why))
      << why;
}

TEST(OnlineContract, AlgorithmCOnlineWithinTolerance) {
  const Instance inst = uniform_instance(64, 8);
  const RunResult r = run_c(inst, 2.5);
  ASSERT_TRUE(r.online.has_value());
  std::string why;
  EXPECT_TRUE(engine::metrics_within_tolerance(*r.online, r.metrics,
                                               engine::kOnlineVsReplayRelTol, &why))
      << why;
  // P = W: cumulative energy and fractional flow are the same integral.
  EXPECT_NEAR(r.online->energy, r.online->fractional_flow, 1e-9 * r.online->energy);
}

TEST(OnlineContract, NcNonUniformOnlineTracksReplay) {
  const Instance inst = workload::generate(
      {.n_jobs = 12, .density_mode = workload::DensityMode::kClasses, .seed = 13});
  const NCNonUniformRun run = run_nc_nonuniform(inst, 2.0);
  ASSERT_TRUE(run.result.online.has_value());
  // The integrator's schedule and its per-step accumulators share the same
  // discretization, so they agree far tighter than the integration error —
  // but not to the closed-form engines' 1e-7: the completion clamp replays
  // slightly differently than it accumulates.
  std::string why;
  EXPECT_TRUE(engine::metrics_within_tolerance(*run.result.online, run.result.metrics,
                                               1e-4, &why))
      << why;
}

TEST(OnlineContract, EmptyInstanceYieldsZeroOnline) {
  const Instance empty(std::vector<Job>{});
  const RunResult r = run_nc_uniform(empty, 2.0);
  ASSERT_TRUE(r.online.has_value());
  EXPECT_DOUBLE_EQ(r.online->energy, 0.0);
  EXPECT_DOUBLE_EQ(r.online->integral_flow, 0.0);
}

// --- Trace streaming ingest -------------------------------------------------

TEST(TraceJobSource, MatchesReadTraceOnRoundTrip) {
  const Instance inst = uniform_instance(300, 31);
  std::ostringstream text;
  workload::write_trace(text, inst);

  std::istringstream for_read(text.str());
  const Instance loaded = workload::read_trace(for_read);

  std::istringstream for_stream(text.str());
  TraceJobSource source(for_stream);
  Job j;
  std::size_t n = 0;
  while (source.next(&j)) {
    ASSERT_LT(n, loaded.size());
    const Job& want = loaded.job(static_cast<JobId>(n));
    EXPECT_EQ(j.id, want.id);
    EXPECT_DOUBLE_EQ(j.release, want.release);
    EXPECT_DOUBLE_EQ(j.volume, want.volume);
    EXPECT_DOUBLE_EQ(j.density, want.density);
    ++n;
  }
  EXPECT_EQ(n, loaded.size());
  EXPECT_EQ(source.stats().lines_read, inst.size());
  EXPECT_EQ(source.stats().lines_skipped, 0u);
}

/// Builds a >1M-line trace in memory: release-ordered, unit volume/density.
/// `corrupt_every` > 0 replaces every Nth data line with garbage.
std::string million_line_trace(std::size_t lines, std::size_t corrupt_every) {
  std::string text = "id,release,volume,density\n";
  text.reserve(lines * 24 + 32);
  char buf[64];
  for (std::size_t i = 0; i < lines; ++i) {
    if (corrupt_every > 0 && i % corrupt_every == corrupt_every - 1) {
      text += "not,a,job\n";
      continue;
    }
    const int n = std::snprintf(buf, sizeof(buf), "%zu,%.6f,1,1\n", i,
                                static_cast<double>(i) * 1e-3);
    text.append(buf, static_cast<std::size_t>(n));
  }
  return text;
}

TEST(TraceJobSource, StreamsOverAMillionLinesStrict) {
  constexpr std::size_t kLines = 1'050'000;
  const std::string text = million_line_trace(kLines, 0);
  std::istringstream is(text);
  TraceJobSource source(is);
  Job j;
  std::size_t n = 0;
  double last = -1.0;
  while (source.next(&j)) {
    if ((n & 0xFFF) == 0) {  // spot-check: full per-job asserts would dominate
      EXPECT_GE(j.release, last);
      EXPECT_DOUBLE_EQ(j.volume, 1.0);
    }
    last = j.release;
    ++n;
  }
  EXPECT_EQ(n, kLines);
  EXPECT_EQ(source.stats().lines_read, kLines);
}

TEST(TraceJobSource, LenientSkipsCorruptLinesInAMillionLineStream) {
  constexpr std::size_t kLines = 1'000'000;
  constexpr std::size_t kCorruptEvery = 100'000;
  const std::string text = million_line_trace(kLines, kCorruptEvery);
  std::istringstream is(text);
  TraceJobSource source(is, workload::TraceReadMode::kLenient);
  Job j;
  std::size_t n = 0;
  while (source.next(&j)) ++n;
  const std::size_t corrupted = kLines / kCorruptEvery;
  EXPECT_EQ(n, kLines - corrupted);
  EXPECT_EQ(source.stats().lines_skipped, corrupted);
  EXPECT_EQ(source.stats().lines_read, kLines - corrupted);
}

TEST(TraceJobSource, StrictRejectsWhatReadTraceRejects) {
  const char* bad[] = {
      "id,release,volume,density\n1,0.0,1.0\n",            // field count
      "id,release,volume,density\n1,zero,1.0,1.0\n",       // unparseable
      "id,release,volume,density\n1,0.0,inf,1.0\n",        // non-finite
      "id,release,volume,density\n1,0.0,0.0,1.0\n",        // non-positive volume
      "id,release,volume,density\n1,1.0,1.0,1.0\n2,0.5,1.0,1.0\n",  // decreasing
      "id,release,volume,density\n1,0.0,1.0,1.0",          // torn tail
      "release,volume\n",                                  // bad header
  };
  for (const char* text : bad) {
    std::istringstream is(text);
    TraceJobSource source(is);
    Job j;
    EXPECT_THROW(
        {
          while (source.next(&j)) {
          }
        },
        workload::TraceIoError)
        << text;
  }
}

TEST(TraceJobSource, OutOfOrderReleaseIsTheOnlyRuleAddedToReadTrace) {
  // read_trace keeps unsorted input (an Instance need not be sorted); the
  // stream rejects the decreasing release on its line, and lenient mode
  // counts it as skipped rather than read.
  const char* text = "id,release,volume,density\n0,2,1,1\n1,1,1,1\n2,3,1,1\n";
  std::istringstream for_read(text);
  EXPECT_EQ(workload::read_trace(for_read).size(), 3u);

  std::istringstream strict_is(text);
  TraceJobSource strict(strict_is);
  Job j;
  ASSERT_TRUE(strict.next(&j));
  try {
    (void)strict.next(&j);
    FAIL() << "strict stream accepted a decreasing release";
  } catch (const workload::TraceIoError& e) {
    EXPECT_EQ(e.diagnostic().context, "line 3");
  }

  std::istringstream lenient_is(text);
  TraceJobSource lenient(lenient_is, workload::TraceReadMode::kLenient);
  std::vector<Job> got;
  while (lenient.next(&j)) got.push_back(j);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].id, 1);
  EXPECT_EQ(got[1].release, 3.0);
  EXPECT_EQ(lenient.stats().lines_read, 2u);
  EXPECT_EQ(lenient.stats().lines_skipped, 1u);
}

TEST(TraceJobSource, TruncatedMidJobFuzzNeverYieldsGarbage) {
  // Cut a valid trace at every byte offset in a stride: strict mode must
  // yield a clean prefix of the full stream and then either end (cut on a
  // line boundary) or throw — never emit a job the full trace didn't contain.
  const Instance inst = uniform_instance(40, 37);
  std::ostringstream text_os;
  workload::write_trace(text_os, inst);
  const std::string text = text_os.str();

  std::vector<Job> full;
  {
    std::istringstream is(text);
    TraceJobSource source(is);
    Job j;
    while (source.next(&j)) full.push_back(j);
  }
  ASSERT_EQ(full.size(), inst.size());

  for (std::size_t cut = 0; cut < text.size(); cut += 7) {
    std::istringstream is(text.substr(0, cut));
    TraceJobSource source(is);
    std::vector<Job> got;
    Job j;
    try {
      while (source.next(&j)) got.push_back(j);
    } catch (const workload::TraceIoError&) {
      // expected for torn cuts
    }
    ASSERT_LE(got.size(), full.size()) << "cut=" << cut;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, full[i].id) << "cut=" << cut;
      EXPECT_DOUBLE_EQ(got[i].release, full[i].release) << "cut=" << cut;
      EXPECT_DOUBLE_EQ(got[i].volume, full[i].volume) << "cut=" << cut;
    }
    // Lenient mode only throws when the *header itself* is missing or torn
    // (a headerless stream is a different format, not a bad line).
    std::istringstream is2(text.substr(0, cut));
    TraceJobSource lenient(is2, workload::TraceReadMode::kLenient);
    std::size_t n = 0;
    try {
      while (lenient.next(&j)) ++n;
    } catch (const workload::TraceIoError&) {
      EXPECT_LT(cut, text.find('\n') + 1) << "lenient threw past the header";
    }
    EXPECT_LE(n, full.size());
  }
}

TEST(StreamEngine, RunsFromATraceStream) {
  // End-to-end: instance -> trace text -> streaming ingest -> engine, equal
  // to the exact simulator on the same instance.
  const double alpha = 2.0;
  const Instance inst = uniform_instance(80, 41);
  std::ostringstream text;
  workload::write_trace(text, inst);
  std::istringstream is(text.str());

  TraceJobSource source(is);
  StreamOptions options;
  options.alpha = alpha;
  options.recorder.mode = RecordMode::kOff;
  StreamEngine eng(options);
  const StreamResult res = eng.run(source);
  const RunResult exact = run_nc_uniform(inst, alpha);
  EXPECT_EQ(res.jobs, inst.size());
  EXPECT_NEAR(res.online.energy, exact.metrics.energy, 1e-9 * exact.metrics.energy);
  EXPECT_NEAR(res.online.integral_flow, exact.metrics.integral_flow,
              1e-9 * exact.metrics.integral_flow);
}

// --- OnlineMetrics / KahanSum ----------------------------------------------

TEST(OnlineMetrics, KahanSurvivesIllConditionedSums) {
  engine::KahanSum s;
  s.add(1.0);
  for (int i = 0; i < 10'000'000; ++i) s.add(1e-16);
  // Plain double summation loses every 1e-16 against 1.0 (error ~1e-9);
  // compensation keeps all of them.
  EXPECT_NEAR(s.value(), 1.0 + 1e-9, 1e-12);
}

TEST(OnlineMetrics, ToleranceGateNamesTheFailingComponent) {
  Metrics a{1.0, 2.0, 3.0};
  Metrics b{1.0, 2.0, 3.0};
  std::string why;
  EXPECT_TRUE(engine::metrics_within_tolerance(a, b, 1e-9, &why)) << why;
  b.fractional_flow = 2.1;
  EXPECT_FALSE(engine::metrics_within_tolerance(a, b, 1e-9, &why));
  EXPECT_NE(why.find("fractional_flow"), std::string::npos) << why;
  b.fractional_flow = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(engine::metrics_within_tolerance(a, b, 1e-9, &why));
}

}  // namespace
}  // namespace speedscale
