// CMachine: an exact, incremental simulator of Algorithm C on one machine.
//
// Algorithm C (paper, Section 2) is the 2-competitive clairvoyant algorithm
// of Bansal, Chan, and Pruhs: process the active job of highest density
// (ties broken FIFO, as the paper's analysis assumes), at the speed s with
// P(s) = W(t), the total remaining weight.  For P(s) = s^alpha every
// inter-event stretch follows the closed-form decay of
// core/kinematics.h, so the simulation is event-driven and exact.
//
// CMachine is *incremental*: jobs may be appended while the simulation
// frontier advances, as long as each job's release time is at or after the
// frontier.  Users: run_c, C-PAR (Section 6), C on fixed assignments and
// Section 7's comparator, and c_speed_on_current_instance, the reference for
// non-uniform NC's speed.  Each stretch is c_stretch (core/kinematics.h),
// which that speed's oracle and speed-bounded C's uncapped phase call too.
// Uniform NC and NC-PAR run no CMachine: they need only C's total remaining
// weight, which engine::StreamEngine tracks in O(1) per machine.
// c_remaining_weight_left reads the same left limit W^C(t^-) off a recorded
// C schedule.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/instance.h"
#include "src/core/kinematics.h"
#include "src/core/metrics.h"
#include "src/core/schedule.h"
#include "src/engine/online_metrics.h"

namespace speedscale {

class CMachine {
 public:
  explicit CMachine(double alpha);

  /// Adds a job. `job.release` must be >= the current frontier time.
  /// Jobs may be added in any release order as long as this holds.
  void add_job(const Job& job);

  /// Pre-sizes the job state and the schedule for `n_jobs` more jobs
  /// (optional; it saves the regrowth of a large batch).
  void reserve(std::size_t n_jobs);

  /// Advances the simulation frontier to time t (>= current frontier),
  /// processing all releases/completions in between.
  void advance_to(double t);

  /// Advances until every added job has completed.
  void run_to_completion();

  /// Current simulation frontier.
  [[nodiscard]] double now() const { return now_; }

  /// Total remaining weight W(frontier) — the value driving the speed.
  [[nodiscard]] double remaining_weight() const { return weight_.w; }

  /// Remaining volume of a job (by the id it carried in add_job).
  [[nodiscard]] double remaining_volume(JobId id) const;

  /// Remaining *weight* (density * remaining volume) of a single job.
  [[nodiscard]] double remaining_weight_of(JobId id) const;

  /// True when no active or pending work remains.
  [[nodiscard]] bool drained() const;

  /// The recorded schedule (valid up to the frontier).
  [[nodiscard]] const Schedule& schedule() const { return schedule_; }

  /// Moves the recorded schedule out of a finished machine, which is left
  /// with an empty schedule and must not be advanced again.
  [[nodiscard]] Schedule take_schedule() && { return std::move(schedule_); }

  /// Number of active (released, unfinished) jobs at the frontier.
  [[nodiscard]] std::size_t active_count() const { return active_.size(); }

  [[nodiscard]] double alpha() const { return kin_.alpha(); }

  /// Machine id stamped onto this simulator's trace events (multi-machine
  /// runs label each CMachine; single-machine runs leave kNoMachine).
  void set_obs_machine(MachineId m) { obs_machine_ = m; }

  /// Opt-in online objective accumulation (off by default: the hot path
  /// must not pay the closed-form integral per segment).  Enable before the
  /// first advance: every stretch adds its int W dt — which under P = W is
  /// both energy and fractional flow — and every completion lands the job's
  /// integral weighted flow.  Kahan-compensated; see docs/performance.md.
  void set_online_metrics(bool on) { online_on_ = on; }

  /// The objective accumulated so far (zeros unless enabled).
  [[nodiscard]] Metrics online_metrics() const { return om_.metrics(); }

 private:
  // Jobs live in dense slots (insertion order).  Both queues hold keys that
  // carry the slot, so the event loop never looks up an id.
  struct PendingKey {
    double release;  ///< max(release, frontier at add_job)
    JobId id;
    std::uint32_t slot;
    bool operator<(const PendingKey& o) const {
      if (release != o.release) return release < o.release;
      return id < o.id;
    }
  };
  struct ActiveKey {
    double density;
    double release;
    JobId id;
    std::uint32_t slot;
    /// HDF first; FIFO within a density level; ids break exact ties.
    bool operator<(const ActiveKey& o) const {
      if (density != o.density) return density > o.density;
      if (release != o.release) return release < o.release;
      return id < o.id;
    }
  };
  // std heaps keep the comparator's maximum on top; this puts the least
  // ActiveKey there.  Keys are unique (ids are), so the top is what an
  // ordered set's begin() would be.
  static bool active_after(const ActiveKey& a, const ActiveKey& b) { return b < a; }

  struct JobState {
    Job job;
    double remaining = 0.0;
    bool done = false;
  };

  [[nodiscard]] const JobState& state(JobId id) const;
  void release_due_jobs();

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  PowerLawKinematics kin_;
  double now_ = 0.0;
  CWeight weight_;                  // total remaining weight, with its b-power
  double energy_acc_ = 0.0;         // cumulative int W dt (tracing only)
  bool online_on_ = false;
  engine::OnlineMetrics om_;        // online objective (opt-in only)
  std::uint32_t running_ = kNoSlot; // slot of the last appended segment's job
  MachineId obs_machine_ = kNoMachine;
  Schedule schedule_;
  std::vector<JobState> jobs_;              // indexed by slot
  std::vector<std::uint32_t> slot_of_id_;   // JobId -> slot, for the id queries
  // Not yet released, sorted by (release, id) from pending_head_ on; cleared
  // whenever the head reaches the end.  Callers add jobs in release order, so
  // an add appends and a release advances the head.
  std::vector<PendingKey> pending_;
  std::size_t pending_head_ = 0;
  std::vector<ActiveKey> active_;           // heap: released, unfinished
};

/// Runs Algorithm C start-to-finish on an instance and returns its schedule.
[[nodiscard]] Schedule run_algorithm_c(const Instance& instance, double alpha);

/// Remaining-weight left limit W^C(t^-) recovered from a completed Algorithm
/// C schedule (the decay-law parameters *are* the weight trajectory).
[[nodiscard]] double c_remaining_weight_left(const Schedule& schedule, double t);

}  // namespace speedscale
