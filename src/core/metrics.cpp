#include "src/core/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/obs/metrics_registry.h"

namespace speedscale {

namespace {

/// The largest weight a finished job may leave unprocessed in the replay,
/// relative to the busy period it ran in.  Two roundings bound it.  The
/// weight level is a running difference whose rounding is relative to the
/// highest level of the busy period (a last tiny job can see 1e-7 of its own
/// weight), and x^{1/b} magnifies x's rounding 1/b-fold (a hundredfold at
/// alpha = 1.01): 1e-9 of that level is far above both.  And an absolute
/// time t carries ulp(t), in which the machine processes density * speed *
/// ulp(t): a stretch shorter than ulp(t) vanishes, and at t ~ 1e7 and
/// alpha = 1.01 the weight it held reaches 1e-9 of the level by itself.
constexpr double kLeftoverRelTol = 1e-9;
constexpr double kLeftoverTimeUlps = 64.0;

/// Energy and current-job flow contribution of one replay piece [a, b] that
/// lies inside segment `seg`.
struct PieceIntegrals {
  double energy = 0.0;         ///< int_a^b P(s(t)) dt
  double delta_volume = 0.0;   ///< volume of seg.job processed in [a, b]
  double processed_time = 0.0; ///< int_a^b DeltaV(t) dt with DeltaV(a) = 0
  double level = 0.0;          ///< top weight level of a power-law piece (0 otherwise)
  double speed = 0.0;          ///< top speed of the piece
};

/// A power-law segment's pieces in the b-coordinate x = w^b, where the
/// segment is linear in time: x = param^b -/+ rho b (t - t0).  param^b is
/// taken once per segment, a piece starts at the level the previous piece of
/// the segment ended on, and a piece from the segment's own t0 starts at
/// param exactly, so a piece costs one pow: its end's w = x^{1/b}.
class PowerLawCursor {
 public:
  explicit PowerLawCursor(const PowerLawKinematics& kin) : kin_(kin) {}

  /// Weight level w and w^b at time t >= the last call's t on `seg`.
  struct Level {
    double w;
    double wb;
  };
  Level at(const Segment& seg, double t) {
    if (seg_ != &seg) {
      seg_ = &seg;
      t_ = seg.t0;
      w_ = std::max(seg.param, 0.0);
      wb_ = param_b_ = kin_.pow_b(w_);
      ++pow_calls_;
    }
    if (t != t_) {
      const double dt = t - seg.t0;
      wb_ = seg.law == SpeedLaw::kPowerDecay ? kin_.decay_pow_after(param_b_, seg.rho, dt)
                                             : kin_.grow_pow_after(param_b_, seg.rho, dt);
      w_ = kin_.weight_from_pow(wb_);
      if (wb_ > 0.0) ++pow_calls_;
      t_ = t;
    }
    return {w_, wb_};
  }

  [[nodiscard]] std::int64_t pow_calls() const { return pow_calls_; }

 private:
  const PowerLawKinematics& kin_;
  const Segment* seg_ = nullptr;
  double param_b_ = 0.0;  ///< max(seg_->param, 0)^b
  double t_ = 0.0;        ///< time of the cached level
  double w_ = 0.0;
  double wb_ = 0.0;
  std::int64_t pow_calls_ = 0;
};

PieceIntegrals integrate_piece(PowerLawCursor& cursor, const PowerLawKinematics& kin,
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
      out.speed = s;
      break;
    }
    case SpeedLaw::kPowerDecay: {
      const PowerLawCursor::Level wa = cursor.at(seg, a);
      const PowerLawCursor::Level wb = cursor.at(seg, b);
      const double int_w = kin.band_integral_pow(wb.w, wb.wb, wa.w, wa.wb, seg.rho);
      out.energy = int_w;  // P(s) = W under the P = W rule
      out.delta_volume = PowerLawKinematics::decay_volume(wa.w, wb.w, seg.rho);
      out.processed_time = (wa.w * len - int_w) / seg.rho;
      out.level = wa.w;
      out.speed = wa.wb > 0.0 ? wa.w / wa.wb : 0.0;  // w^{1/alpha} = w / w^b
      break;
    }
    case SpeedLaw::kPowerGrow: {
      const PowerLawCursor::Level ua = cursor.at(seg, a);
      const PowerLawCursor::Level ub = cursor.at(seg, b);
      const double int_u = kin.band_integral_pow(ua.w, ua.wb, ub.w, ub.wb, seg.rho);
      out.energy = int_u;  // P(s) = U under the P = U rule
      out.delta_volume = PowerLawKinematics::grow_volume(ua.w, ub.w, seg.rho);
      out.processed_time = (int_u - ua.w * len) / seg.rho;
      out.level = ub.w;
      out.speed = ub.wb > 0.0 ? ub.w / ub.wb : 0.0;
      break;
    }
  }
  return out;
}

/// Holds what the replay leaves of finished jobs to rounding.  The replay
/// zeroes a job's volume at its completion (left in the active sum, the
/// rounding would charge flow to the end of the run: 6e-5 of C's
/// fractional flow on a t ~ 1e7 horizon), but must not hide a schedule that
/// under-processes a job.  A leftover is judged when its busy period ends,
/// because the period's highest level and speed may come after the job.
class LeftoverGuard {
 public:
  /// A piece that processes a job of weight `job_weight`.
  void busy(const PieceIntegrals& pi, double job_weight) {
    peak_level_ = std::max({peak_level_, pi.level, job_weight});
    peak_speed_ = std::max(peak_speed_, pi.speed);
  }
  /// Job `id` (of `density`) finished at time t with `leftover` weight.
  void finished(JobId id, double density, double leftover, double t) {
    const Leftover l{id, density, leftover, t};
    // The peaks only grow, so a leftover within them now stays within.
    if (l.weight > bound(l)) pending_.push_back(l);
  }
  /// The machine went idle, or the replay ended: the busy period's peaks
  /// are final.
  void idle() {
    for (const Leftover& l : pending_) {
      if (l.weight > bound(l)) {
        char detail[128];
        std::snprintf(detail, sizeof detail,
                      " completes with weight %.3g unprocessed (rounding bound %.3g)", l.weight,
                      bound(l));
        throw ModelError("compute_metrics: job " + std::to_string(l.job) + detail);
      }
    }
    pending_.clear();
    peak_level_ = 0.0;
    peak_speed_ = 0.0;
  }

 private:
  struct Leftover {
    JobId job;
    double density;
    double weight;
    double t;
  };
  [[nodiscard]] double bound(const Leftover& l) const {
    constexpr double kEps = std::numeric_limits<double>::epsilon();
    return kLeftoverRelTol * peak_level_ +
           kLeftoverTimeUlps * kEps * l.density * peak_speed_ * std::abs(l.t);
  }

  double peak_level_ = 0.0;
  double peak_speed_ = 0.0;
  std::vector<Leftover> pending_;
};

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
  PowerLawCursor cursor(kin);
  LeftoverGuard leftovers;

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
      pi = integrate_piece(cursor, kin, power, *seg, a, b);
      cur = seg->job;
      leftovers.busy(pi, instance.job(cur).weight());
    } else {
      leftovers.idle();
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
      const Job& job = instance.job(cur);
      double& v = remaining[static_cast<std::size_t>(cur)];
      double dv = std::min(v, pi.delta_volume);
      if (b >= schedule.completion(cur)) {
        leftovers.finished(cur, job.density, job.density * (v - dv), b);
        dv = v;
      }
      v -= dv;
      if (incremental) active_sum.add(-job.density * dv);
    }
  }
  leftovers.idle();
  if (cursor.pow_calls() > 0) OBS_COUNT("core.replay.pow_calls", cursor.pow_calls());

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
