// Objective evaluation: energy, fractional and integral weighted flow-time.
//
// Definitions (paper, Section 2):
//   energy          E        = int P(s(t)) dt
//   integral flow   Fint[j]  = W[j] * (c[j] - r[j])
//   fractional flow F[j]     = rho[j] * int_{r[j]}^{inf} V[j](t) dt
// The objectives are G_int = E + sum Fint[j] and G_frac = E + sum F[j].
//
// Metrics are computed by *replaying* a recorded Schedule, cutting time at
// segment boundaries and at release epochs, and integrating each piece in
// closed form.  For power-law segments the energy integral uses the P = W
// identity, so replayed metrics are exact; simulators also accumulate the
// same quantities online, and tests assert the two agree.
#pragma once

#include <vector>

#include "src/core/instance.h"
#include "src/core/power.h"
#include "src/core/schedule.h"

namespace speedscale {

/// Evaluated objective components of one schedule on one instance.
struct Metrics {
  double energy = 0.0;
  double fractional_flow = 0.0;
  double integral_flow = 0.0;

  [[nodiscard]] double fractional_objective() const { return energy + fractional_flow; }
  [[nodiscard]] double integral_objective() const { return energy + integral_flow; }
};

/// Exact replay-based evaluation.
///
/// Requirements: every job of `instance` is completed by `schedule` (so the
/// flow integrals are finite); for kPowerDecay/kPowerGrow segments, `power`
/// must be PowerLaw(schedule.alpha()) — those laws encode the P = W rule and
/// their closed-form energy is only valid for that power function.
/// kConstant/kIdle segments work with any power function.  A job's volume
/// counts as processed at its completion time; throws ModelError if the
/// schedule has processed less than that by more than rounding.
[[nodiscard]] Metrics compute_metrics(const Instance& instance, const Schedule& schedule,
                                      const PowerFunction& power);

/// Reference implementation that re-sums the active set per replay piece
/// (O(pieces x jobs)).  compute_metrics maintains the active weighted-volume
/// sum incrementally with Kahan compensation (O(pieces + n log n)); tests
/// assert the two agree to ~1e-9 on every schedule family.
[[nodiscard]] Metrics compute_metrics_reference(const Instance& instance,
                                                const Schedule& schedule,
                                                const PowerFunction& power);

/// compute_metrics for one machine of a multi-machine run: the jobs of
/// `instance` that `assignment` (indexed by job id) puts on `machine`,
/// replayed against that machine's `schedule`, which refers to them by their
/// global ids.  `fifo` is instance.fifo_order().  Bit for bit the replay of
/// the sub-instance of those jobs renumbered in global id order, without
/// building it.  Throws ModelError if a segment processes a job that is
/// not on `machine`.
[[nodiscard]] Metrics compute_machine_metrics(const Instance& instance,
                                              const std::vector<JobId>& fifo,
                                              const std::vector<MachineId>& assignment,
                                              MachineId machine, const Schedule& schedule,
                                              const PowerFunction& power);

/// Sum of per-machine metrics for multi-machine schedules.
[[nodiscard]] Metrics combine(const Metrics& a, const Metrics& b);

}  // namespace speedscale
