#include "src/core/metrics.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace speedscale {

namespace {

/// Energy and current-job flow contribution of one replay piece [a, b] that
/// lies inside segment `seg`.
struct PieceIntegrals {
  double energy = 0.0;         ///< int_a^b P(s(t)) dt
  double delta_volume = 0.0;   ///< volume of seg.job processed in [a, b]
  double processed_time = 0.0; ///< int_a^b DeltaV(t) dt with DeltaV(a) = 0
};

PieceIntegrals integrate_piece(const Schedule& sched, const PowerLawKinematics& kin,
                               const PowerFunction& power, const Segment& seg, double a,
                               double b) {
  PieceIntegrals out;
  const double len = b - a;
  switch (seg.law) {
    case SpeedLaw::kIdle:
      break;
    case SpeedLaw::kConstant: {
      const double s = seg.param;
      out.energy = power.power(s) * len;
      out.delta_volume = s * len;
      out.processed_time = 0.5 * s * len * len;
      break;
    }
    case SpeedLaw::kPowerDecay: {
      const double wa = kin.decay_weight_after(seg.param, seg.rho, a - seg.t0);
      const double wb = kin.decay_weight_after(seg.param, seg.rho, b - seg.t0);
      const double int_w = kin.decay_integral(wa, wb, seg.rho);
      out.energy = int_w;  // P(s) = W under the P = W rule
      out.delta_volume = PowerLawKinematics::decay_volume(wa, wb, seg.rho);
      out.processed_time = (wa * len - int_w) / seg.rho;
      break;
    }
    case SpeedLaw::kPowerGrow: {
      const double ua = kin.grow_weight_after(seg.param, seg.rho, a - seg.t0);
      const double ub = kin.grow_weight_after(seg.param, seg.rho, b - seg.t0);
      const double int_u = kin.grow_integral(ua, ub, seg.rho);
      out.energy = int_u;  // P(s) = U under the P = U rule
      out.delta_volume = PowerLawKinematics::grow_volume(ua, ub, seg.rho);
      out.processed_time = (int_u - ua * len) / seg.rho;
      break;
    }
  }
  (void)sched;
  return out;
}

/// Kahan-compensated accumulator for the running active weighted volume.
struct Compensated {
  double sum = 0.0;
  double c = 0.0;
  void add(double x) {
    const double y = x - c;
    const double t = sum + y;
    c = (t - sum) - y;
    sum = t;
  }
};

/// The replay.  `by_release` lists the replayed jobs in (release, id) order
/// and `in_scope(id)` selects the same jobs; the reference path and the
/// integral-flow sum visit them in id order.
template <class InScope>
Metrics replay(const Instance& instance, const std::vector<JobId>& by_release,
               InScope in_scope, const Schedule& schedule, const PowerFunction& power,
               bool incremental) {
  // Power-law segments hard-code P = s^alpha; refuse silent mis-evaluation.
  const bool has_power_law_segments =
      std::any_of(schedule.segments().begin(), schedule.segments().end(), [](const Segment& s) {
        return s.law == SpeedLaw::kPowerDecay || s.law == SpeedLaw::kPowerGrow;
      });
  if (has_power_law_segments) {
    const auto* pl = dynamic_cast<const PowerLaw*>(&power);
    if (pl == nullptr || std::abs(pl->alpha() - schedule.alpha()) > 1e-12) {
      throw ModelError(
          "compute_metrics: schedule contains power-law segments but the power "
          "function is not PowerLaw(schedule.alpha())");
    }
  }

  for (const Job& j : instance.jobs()) {
    if (in_scope(j.id) && !schedule.completed(j.id)) {
      throw ModelError("compute_metrics: job " + std::to_string(j.id) +
                       " never completes; flow-time is infinite");
    }
  }

  const PowerLawKinematics kin(schedule.alpha());
  const auto& segs = schedule.segments();

  // Cut the timeline at all segment boundaries and all release epochs so that
  // within each piece the active set is fixed and only the piece's job moves.
  // The segment tape is time-ordered (Schedule::append) and so is
  // `by_release`: one merge gives the sorted cut sequence.
  std::vector<double> cuts;
  cuts.reserve(1 + 2 * segs.size() + by_release.size());
  cuts.push_back(0.0);
  {
    const std::size_t n_ends = 2 * segs.size();
    const auto end_at = [&segs](std::size_t e) {
      return e % 2 == 0 ? segs[e / 2].t0 : segs[e / 2].t1;
    };
    std::size_t e = 0;
    std::size_t r = 0;
    while (e < n_ends && r < by_release.size()) {
      const double release = instance.job(by_release[r]).release;
      if (release < end_at(e)) {
        cuts.push_back(release);
        ++r;
      } else {
        cuts.push_back(end_at(e));
        ++e;
      }
    }
    for (; e < n_ends; ++e) cuts.push_back(end_at(e));
    for (; r < by_release.size(); ++r) cuts.push_back(instance.job(by_release[r]).release);
    // A segment before time 0 moves the leading 0 to its sorted place.
    std::rotate(cuts.begin(), cuts.begin() + 1,
                std::lower_bound(cuts.begin() + 1, cuts.end(), 0.0));
  }
  cuts.erase(std::unique(cuts.begin(), cuts.end(),
                         [](double x, double y) { return std::abs(x - y) <= 1e-15; }),
             cuts.end());

  std::vector<double> remaining(instance.size());
  for (const JobId id : by_release) {
    remaining[static_cast<std::size_t>(id)] = instance.job(id).volume;
  }

  // Incremental path: release order pointer + compensated running sum of
  // rho_j * V_j over released, unfinished jobs.  Cuts include every release
  // epoch, so releases only happen at piece starts.
  std::size_t next_release = 0;
  Compensated active_sum;

  Metrics m;
  std::size_t seg_idx = 0;

  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const double a = cuts[c];
    const double b = cuts[c + 1];
    if (b <= a) continue;

    // Find the segment covering [a, b] (pieces never straddle boundaries).
    while (seg_idx < segs.size() && segs[seg_idx].t1 <= a) ++seg_idx;
    const Segment* seg = nullptr;
    if (seg_idx < segs.size() && segs[seg_idx].t0 <= a && b <= segs[seg_idx].t1) {
      seg = &segs[seg_idx];
    }

    PieceIntegrals pi;
    JobId cur = kNoJob;
    if (seg != nullptr && seg->law != SpeedLaw::kIdle) {
      pi = integrate_piece(schedule, kin, power, *seg, a, b);
      cur = seg->job;
    }
    m.energy += pi.energy;

    if (incremental) {
      while (next_release < by_release.size() &&
             instance.job(by_release[next_release]).release <= a + 1e-15) {
        const Job& j = instance.job(by_release[next_release]);
        active_sum.add(j.density * j.volume);
        ++next_release;
      }
      m.fractional_flow += active_sum.sum * (b - a);
      if (cur != kNoJob) {
        m.fractional_flow -= instance.job(cur).density * pi.processed_time;
      }
    } else {
      // Reference: re-sum the active set per piece.
      for (const Job& j : instance.jobs()) {
        if (!in_scope(j.id) || j.release > a + 1e-15) continue;
        const double v = remaining[static_cast<std::size_t>(j.id)];
        if (v <= 0.0) continue;
        if (j.id == cur) {
          m.fractional_flow += j.density * (v * (b - a) - pi.processed_time);
        } else {
          m.fractional_flow += j.density * v * (b - a);
        }
      }
    }

    if (cur != kNoJob) {
      double& v = remaining[static_cast<std::size_t>(cur)];
      const double dv = std::min(v, pi.delta_volume);
      v -= dv;
      if (incremental) active_sum.add(-instance.job(cur).density * dv);
    }
  }

  for (const Job& j : instance.jobs()) {
    if (!in_scope(j.id)) continue;
    m.integral_flow += j.weight() * (schedule.completion(j.id) - j.release);
  }
  return m;
}

constexpr auto kEveryJob = [](JobId) { return true; };

}  // namespace

Metrics compute_metrics(const Instance& instance, const Schedule& schedule,
                        const PowerFunction& power) {
  return replay(instance, instance.fifo_order(), kEveryJob, schedule, power,
                /*incremental=*/true);
}

Metrics compute_metrics_reference(const Instance& instance, const Schedule& schedule,
                                  const PowerFunction& power) {
  return replay(instance, instance.fifo_order(), kEveryJob, schedule, power,
                /*incremental=*/false);
}

Metrics compute_machine_metrics(const Instance& instance, const std::vector<JobId>& fifo,
                                const std::vector<MachineId>& assignment, MachineId machine,
                                const Schedule& schedule, const PowerFunction& power) {
  if (assignment.size() < instance.size()) {
    throw ModelError("compute_machine_metrics: assignment does not cover every job");
  }
  const auto here = [&assignment, machine](JobId id) {
    return assignment[static_cast<std::size_t>(id)] == machine;
  };
  for (const Segment& seg : schedule.segments()) {
    if (seg.job == kNoJob) continue;
    if (seg.job < 0 || static_cast<std::size_t>(seg.job) >= instance.size() || !here(seg.job)) {
      throw ModelError("compute_machine_metrics: schedule processes a job not assigned here");
    }
  }
  std::vector<JobId> by_release;
  for (const JobId id : fifo) {
    if (here(id)) by_release.push_back(id);
  }
  return replay(instance, by_release, here, schedule, power, /*incremental=*/true);
}

Metrics combine(const Metrics& a, const Metrics& b) {
  Metrics m;
  m.energy = a.energy + b.energy;
  m.fractional_flow = a.fractional_flow + b.fractional_flow;
  m.integral_flow = a.integral_flow + b.integral_flow;
  return m;
}

}  // namespace speedscale
