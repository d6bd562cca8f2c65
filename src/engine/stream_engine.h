// Streaming Algorithm NC (uniform density): millions of jobs, O(active) RSS.
//
// The exact simulators materialize whole instances and full RunResults; to
// run millions of jobs the engine must instead be as online as the
// algorithm it simulates.  This engine pulls release-ordered jobs from a
// JobSource and keeps only:
//
//   * the active jobs, in a JobArena (SoA, free-list recycled slots);
//   * one O(1) virtual-clairvoyant tracker per machine: with uniform density
//     the C run's total remaining weight W^C(t) evolves by the closed-form
//     decay *independently of which job C picks*, so the NC offset
//     W^C(r_j^-) is: decay W between releases, take the value at r_j (the
//     left limit — W^C is continuous, jumping only *up* at releases), then
//     add w_j.  The tracker holds W^b (b = 1 - 1/alpha), in which the decay
//     is linear: the left limit u0 = (W^b)^{1/b} is one pow (none when C has
//     drained), and (u0 + w_j)^b is the other and the new state.  The job's
//     segment time and energy follow from u0^b and u1^b with no further
//     pow, so a job costs at most two (the engine.stream.pow_calls counter).
//     Tied releases fall out sequentially: the second job of a cohort sees
//     left-limit + w_1, the limit of infinitesimally separated releases (the
//     paper assumes distinct ones);
//   * OnlineMetrics accumulators (Kahan) — no post-hoc replay;
//   * a SegmentRecorder (ring / ring+spill / off) instead of a Schedule.
//
// Each job is one closed-form kPowerGrow segment (FIFO, work-conserving; a
// segment whose u0 is below the smallest normal double starts where U does,
// since before that its speed is zero in double), so
// per job the engine does O(1) work and the only unbounded state is the
// backlog itself.  On one machine with a ring of n segments it is also the
// batch run_nc_uniform_detailed.  `engine.stream/10M` (BENCH.json) pins the
// 10M-job run with the RSS plateau asserted by bench/bench_engine_stream.cpp.
//
// On k machines each machine runs its own NC, virtual-C tracker included,
// and `dispatch` picks the machine at admission.  kNcPar is the paper's
// NC-PAR (Theorem 17): a global FIFO queue from which a drained machine takes
// the head.  The queue is never stored.  Every admitted job's start and end
// are fixed at admission, so the machine the head would reach is known then:
// the one with the least max(frontier, r_j), lowest index first (FIFO list
// scheduling).  Each machine still sees its jobs in release order, so its
// tracker works as on one machine, and run_nc_par (algo/parallel.h) is this
// engine with a ring of n segments.  kRoundRobin and kLeastCount are the
// immediate rules of algo/dispatch.h that Section 6 proves
// Omega(k^{1-1/alpha}); on a stream both send job i to machine i mod k.
// First-fit needs the job count up front, which a stream does not have.
#pragma once

#include <cstdint>
#include <memory>

#include "src/algo/dispatch.h"
#include "src/core/metrics.h"
#include "src/engine/job_source.h"
#include "src/engine/segment_recorder.h"

namespace speedscale::engine {

struct StreamOptions {
  double alpha = 2.0;
  int machines = 1;
  DispatchPolicy dispatch = DispatchPolicy::kRoundRobin;
  RecorderOptions recorder;     ///< RecordMode::kOff for metrics-online-only runs
};

struct StreamResult {
  Metrics online;               ///< Kahan-accumulated, no replay
  std::uint64_t jobs = 0;
  double makespan = 0.0;        ///< latest completion across machines
  std::size_t arena_high_water = 0;
  std::size_t arena_capacity = 0;  ///< allocated slots (the RSS witness)
  std::uint64_t segments_recorded = 0;
  std::uint64_t segments_dropped = 0;
  std::uint64_t spill_lines = 0;
  std::uint64_t pow_calls = 0;  ///< kinematics std::pow calls: at most 2 per job
};

class StreamEngine {
 public:
  explicit StreamEngine(const StreamOptions& options);

  /// Consumes `source` to exhaustion.  Throws ModelError on non-uniform
  /// densities or a decreasing release.
  /// One run per engine instance.
  StreamResult run(JobSource& source);

  /// The recorder of the completed run (ring snapshot, spill tallies).
  [[nodiscard]] const SegmentRecorder& recorder() const;

 private:
  StreamOptions options_;
  std::unique_ptr<SegmentRecorder> recorder_;
  bool ran_ = false;
};

}  // namespace speedscale::engine
