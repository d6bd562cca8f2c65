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
// Multi-machine mode dispatches arrivals across k machines with the
// observable-information policies of algo/dispatch.h (round robin / least
// count; first-fit needs the job count up front, which a stream does not
// have) and runs one independent NC machine — virtual-C tracker included —
// per real machine, the NCPar shape of algo/parallel.h.
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
  std::uint64_t gauge_every = 0;  ///< publish engine.stream.* gauges every N
                                  ///< completions (0 = off; gauges only, so the
                                  ///< deterministic counter half is untouched)
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
  /// densities, a decreasing release, or an unsupported dispatch policy.
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
