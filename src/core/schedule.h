// Recorded schedules: what job ran when, under which speed law.
//
// A Schedule is a time-ordered sequence of Segments.  Each segment records a
// *speed law*, not a sampled speed, so that metrics can later be integrated
// in closed form (see metrics.h).  Three laws cover every exact simulator in
// this library; numerically-stepped algorithms (the non-uniform Algorithm NC)
// emit Constant segments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/instance.h"
#include "src/core/kinematics.h"
#include "src/core/types.h"

namespace speedscale {

/// How the speed evolves inside a segment.
enum class SpeedLaw {
  kIdle,        ///< speed 0 (no active job, or a deliberately idle machine)
  kConstant,    ///< speed = param (rho unused)
  kPowerDecay,  ///< speed(t) = W(t)^{1/alpha}, W(t0) = param, dW = -rho s dt
  kPowerGrow,   ///< speed(t) = U(t)^{1/alpha}, U(t0) = param, dU = +rho s dt
};

/// One maximal run of a single speed law applied to a single job.
struct Segment {
  double t0 = 0.0;  ///< segment start
  double t1 = 0.0;  ///< segment end (t1 >= t0)
  JobId job = kNoJob;
  SpeedLaw law = SpeedLaw::kIdle;
  double param = 0.0;  ///< constant speed, or W(t0)/U(t0) for the power laws
  double rho = 1.0;    ///< density driving the power-law dynamics

  [[nodiscard]] double duration() const { return t1 - t0; }
};

/// A complete single-machine schedule together with per-job completion times.
class Schedule {
 public:
  /// `alpha` is the power-law exponent the kPowerDecay/kPowerGrow laws refer
  /// to.  Schedules made only of kIdle/kConstant segments may pass any
  /// alpha > 1 (it is unused).
  explicit Schedule(double alpha);

  /// Appends a segment; segments must be appended in time order and must not
  /// overlap (t0 >= previous t1 within tolerance; gaps become implicit idle).
  void append(Segment seg);

  /// Pre-sizes the segment tape (optional; saves the regrowth of long tapes).
  void reserve(std::size_t n_segments) { segments_.reserve(n_segments); }

  /// Marks job `id` complete at time `t` (a later call for the same id
  /// overwrites).  Completions are stored densely from the smallest id seen,
  /// so a window of a long stream holds one slot per id in the window.
  void set_completion(JobId id, double t);

  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }
  /// Number of distinct jobs marked complete.
  [[nodiscard]] std::size_t completed_count() const { return completed_count_; }
  /// Completion time of job `id`; throws ModelError if it never completed.
  [[nodiscard]] double completion(JobId id) const;
  [[nodiscard]] bool completed(JobId id) const;
  [[nodiscard]] double alpha() const { return alpha_; }

  /// End of the last segment (0 for an empty schedule).
  [[nodiscard]] double makespan() const;

  /// Speed at time t (0 if t is outside all segments).  Boundaries resolve
  /// to the segment starting at t.
  [[nodiscard]] double speed_at(double t) const;

  /// Speed law evaluation within a segment: speed at absolute time t given
  /// that t lies in `seg`.
  [[nodiscard]] double segment_speed_at(const Segment& seg, double t) const;

  /// Volume processed within `seg` between absolute times a and b
  /// (seg.t0 <= a <= b <= seg.t1).
  [[nodiscard]] double segment_volume(const Segment& seg, double a, double b) const;

  /// Total volume processed for each job, by replaying all segments.
  [[nodiscard]] std::vector<double> processed_volumes(std::size_t n_jobs) const;

  /// Structural validation against an instance: time ordering, no processing
  /// before release, processed volume == job volume for completed jobs,
  /// completion times consistent with segments.  Throws ModelError.
  void validate(const Instance& instance, double tol = 1e-6) const;

 private:
  double alpha_;
  PowerLawKinematics kin_;
  std::vector<Segment> segments_;
  // Completion of job id_base_ + i is completion_at_[i] when done_[i] is set.
  std::int64_t id_base_ = 0;
  std::vector<double> completion_at_;
  std::vector<bool> done_;
  std::size_t completed_count_ = 0;
};

}  // namespace speedscale
