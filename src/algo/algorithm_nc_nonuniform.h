// Algorithm NC for non-uniform densities (paper, Section 4).
//
// The algorithm:
//   1. Round every density *down* to an integer power of beta (beta > 4 in
//      the paper's analysis; exposed as a parameter for the E10 ablation).
//   2. Among active jobs, process the one of highest rounded density,
//      breaking ties FIFO (jobs inside one density bracket are therefore
//      processed FIFO — the information-gathering order).
//   3. Speed: s(t) = eta * s^C_{I(t)}(t) + epsilon, where s^C_{I(t)}(t) is
//      the speed that Algorithm C would have at time t if run on the
//      *current instance* I(t): the rounded instance whose job weights are
//      the weights Algorithm NC itself has processed so far.  The excess
//      epsilon bootstraps the all-weights-zero start (Section 4 discussion).
//
// The current-instance speed has no closed form (adding weight to a job
// reshapes the whole downstream clairvoyant run, cf. Figure 2b), but it reads
// only releases, densities and processed volumes: it is a policy over
// ObservableState, run on the custom-policy engine (sim/custom_policy.h),
// whose adaptive midpoint (RK2) steps take *exact* event-driven
// C-simulations of I(t) as their speed evaluations.  The recorded schedule
// is piecewise-constant in speed; metrics are evaluated exactly on that
// recording, so discretization only perturbs the policy, not the accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/algo/run_result.h"
#include "src/core/instance.h"
#include "src/sim/custom_policy.h"

namespace speedscale {

/// The critical speed multiplier below which the self-referential speed rule
/// never "takes off": for a single job, seeking a growing solution
/// p(t) = c * t^{1/b} of  dp/dt = eta * s^C_{I(t)}(t)  (b = 1 - 1/alpha)
/// requires eta >= eta_min = (alpha/(alpha-1)) * alpha^{1/(alpha-1)}.
/// Below it, the current-instance clairvoyant run always finishes before t,
/// the speed collapses to the epsilon floor, and the algorithm crawls
/// (cost ratio -> 1/epsilon).  The paper defers the concrete eta to its full
/// version; this threshold reproduces the phenomenon quantitatively and the
/// E10 bench maps the ratio as a function of eta around it.
/// (eta_min(2) = 4, eta_min(3) ~ 2.598, eta_min(1.5) = 6.75.)
[[nodiscard]] double nc_eta_min(double alpha);

/// Tuning of the non-uniform algorithm and its integrator.
struct NCNonUniformParams {
  double beta = 4.5;           ///< density rounding base (paper wants > 4)
  double eta = 0.0;            ///< speed multiplier; 0 = auto (1.5 * nc_eta_min)
  double epsilon_speed = 1e-4; ///< excess speed, relative to a reference speed
  double step_growth = 0.05;   ///< dt grows by this fraction of time-since-event
  double min_step = 1e-6;      ///< smallest relative step after an event
  long max_steps = 20'000'000; ///< hard safety cap on integrator steps
  bool round_densities = true; ///< E10 ablation: disable rounding entirely
};

/// Observer invoked at every *event* (release or completion): receives the
/// current time and the per-job processed volumes.  Used by the Figure 3
/// bench to snapshot the evolving instance I(t).
using NCObserver = std::function<void(double t, const std::vector<double>& processed)>;

/// Run summary with instrumentation counters.
struct NCNonUniformRun {
  RunResult result;
  Instance rounded;        ///< the instance the algorithm actually ordered by
  long steps = 0;          ///< integrator steps taken
  long c_evaluations = 0;  ///< inner Algorithm C simulations performed
  long oracle_events = 0;  ///< C events those simulations stepped through

  explicit NCNonUniformRun(double alpha) : result(alpha) {}
};

/// Runs non-uniform Algorithm NC with P(s) = s^alpha.  Throws ModelError at
/// once for a non-positive or non-finite `min_step` or `step_growth` or a
/// `max_steps` below 1, and when the run exceeds `max_steps`.
[[nodiscard]] NCNonUniformRun run_nc_nonuniform(const Instance& instance, double alpha,
                                                const NCNonUniformParams& params = {},
                                                const NCObserver& observer = {});

/// Builds the current instance I(t): jobs of `rounded` released at or before
/// t, with volume equal to the volume NC has processed so far (zero-volume
/// jobs are dropped; they carry no weight).  `kept` (optional) receives the
/// original JobIds of the kept jobs, in order.
[[nodiscard]] Instance make_current_instance(const Instance& rounded,
                                             const std::vector<double>& processed, double t,
                                             std::vector<JobId>* kept = nullptr);

/// The clairvoyant speed on the current instance: the speed of Algorithm C
/// at time t when run on I(t).  (Without the eta multiplier or epsilon.)
/// Reference implementation (builds an Instance + CMachine per call).
[[nodiscard]] double c_speed_on_current_instance(const Instance& rounded,
                                                 const std::vector<double>& processed, double t,
                                                 double alpha);

/// Allocation-free evaluator for the same quantity.  The integrator calls
/// this twice per step, so the reference path's per-call Instance/CMachine
/// construction dominates the whole algorithm; this oracle pre-sorts the
/// rounded jobs once and replays Algorithm C over reused scratch buffers.
/// It replays the same C events as the reference with its own arithmetic,
/// so tests compare the two within 1e-6 + 1e-9 * max(1, speed) (a
/// near-drained instant leaves an O(1e-7) weight residue in one and exact
/// zero in the other).
///
/// Anchor contract.  While NC runs one job j, only processed[j] changes, so
/// C's replay of I(t) up to r_j sees the same jobs with the same volumes at
/// every evaluation.  While processed[j] > 0 and r_j <= t, j is in I(t), and
/// since no C event steps past a release of I(t), the replay lands on r_j
/// exactly.  An anchored call checkpoints the replay state there the first
/// time; later anchored calls restore it and replay only the suffix, with
/// the same floating-point operations, so the result is bit-identical to the
/// un-anchored call on the same weights.  The caller must not change
/// any processed volume other than the anchor's between two calls with the
/// same anchor; a call with another anchor drops the checkpoint.  Calls with
/// a zero anchor weight or with r_j > t replay in full and keep it.
class CurrentInstanceOracle {
 public:
  CurrentInstanceOracle(const Instance& rounded, double alpha);

  /// Speed of Algorithm C on I(t) at time t, weights from `processed`
  /// (indexed by the rounded instance's JobIds).  Always a full replay; it
  /// neither uses nor drops the anchor checkpoint.
  [[nodiscard]] double c_speed(const std::vector<double>& processed, double t);

  /// The same speed with processed[anchor] read as `anchor_processed`,
  /// replaying from the anchor checkpoint when the contract above allows.
  [[nodiscard]] double c_speed(const std::vector<double>& processed, double t, JobId anchor,
                               double anchor_processed);

  /// The same speed at st.time, weights from the state's processed volumes,
  /// anchored at the running job st.jobs[running].  st.jobs must be the
  /// jobs released by st.time in the rounded instance's fifo_order(), which
  /// is the order the replay walks, so no volume is looked up by id.
  [[nodiscard]] double c_speed(const ObservableState& st, std::size_t running);

  /// Replay-loop iterations over all calls so far (a deterministic work
  /// counter: one per C event the replays step through).
  [[nodiscard]] long events() const { return events_; }

 private:
  /// The replay; volume_at(p) is the processed volume of by_release_[p]
  /// with the anchor's already read as `anchor_processed`.
  template <typename VolumeAt>
  double replay(double t, JobId anchor, double anchor_processed, const VolumeAt& volume_at);

  const Instance& rounded_;
  PowerLawKinematics kin_;
  std::vector<JobId> by_release_;   ///< release asc, id asc
  std::vector<JobId> by_rank_;      ///< (density desc, release asc, id) order
  std::vector<int> rank_;           ///< per job: its index in by_rank_
  std::vector<double> rem_;         ///< scratch: remaining volume in the replay
  std::vector<std::uint64_t> live_; ///< scratch: ranks released with rem_ > 0
  long events_ = 0;

  /// Replay state the first time tcur reaches the anchor's release, before
  /// the jobs released there are added.
  JobId ckpt_anchor_ = kNoJob;
  bool ckpt_valid_ = false;
  double ckpt_W_ = 0.0;
  double ckpt_t_ = 0.0;
  std::size_t ckpt_ptr_ = 0;
  std::vector<double> ckpt_rem_;
  std::vector<std::uint64_t> ckpt_live_;
};

}  // namespace speedscale
